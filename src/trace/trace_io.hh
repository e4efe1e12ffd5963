/**
 * @file
 * Binary trace file format (".xbt").
 *
 * Layout (little endian):
 *   magic  'X','B','T','1'
 *   u32    name length, bytes (at most kMaxTraceNameLen)
 *   u64    instruction count
 *   per instruction: u64 ip, u8 len, u8 uops, u8 cls, i32 takenIdx,
 *                    i32 behaviorId
 *   u64    record count
 *   per record: i32 staticIdx, u8 taken
 *
 * Behaviors are not serialized: a written trace replays exactly, it
 * is not re-executable.
 *
 * readTraceEx() validates everything before constructing the Trace:
 * the magic, the name/instruction/record counts against the file
 * size, the instruction count against the 2^30 static index space
 * (kMaxStaticInsts), each instruction's length (1..15), uop count
 * (1..16), class and takenIdx range, IP uniqueness, and each record's
 * staticIdx range and taken flag. Trailing bytes after the record
 * section are rejected too. A malformed file therefore yields a
 * Status with the offending byte offset, never UB or an abort.
 *
 * Both directions move the instruction and record sections through
 * one fixed buffer, a bounded chunk per fread/fwrite (see the
 * k*PerChunk constants). Beyond the Trace itself, reading a trace
 * costs 320 KiB plus the IP-uniqueness set, whatever the record
 * count: the file is never held whole in memory, nor mapped.
 */

#ifndef XBS_TRACE_TRACE_IO_HH
#define XBS_TRACE_TRACE_IO_HH

#include <string>

#include "common/status.hh"
#include "trace/trace.hh"

namespace xbs
{

/** Format limit on the serialized trace name. The field is a u32,
 *  but no legitimate name approaches this; enforcing a tight cap
 *  turns a corrupt length into an early structured error. */
constexpr std::size_t kMaxTraceNameLen = 4096;

/** Instructions (19 bytes each) and records (5 bytes each) moved
 *  per fread or fwrite. */
constexpr uint64_t kTraceInstsPerChunk = 4096;
constexpr uint64_t kTraceRecordsPerChunk = 65536;

/** Write @p trace to @p path; returns an error Status (with file and
 *  byte-offset context) on I/O failure or a name exceeding the
 *  format's field width — nothing is silently truncated/wrapped. */
Status writeTraceEx(const Trace &trace, const std::string &path);

/** Read and fully validate a trace file written by writeTraceEx(). */
Expected<Trace> readTraceEx(const std::string &path);

/** Legacy wrapper: writeTraceEx(), fatal() on error. */
void writeTrace(const Trace &trace, const std::string &path);

/** Legacy wrapper: readTraceEx(), fatal() on error. */
Trace readTrace(const std::string &path);

} // namespace xbs

#endif // XBS_TRACE_TRACE_IO_HH
