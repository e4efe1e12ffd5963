/**
 * @file
 * Robustness tests for the binary trace reader/writer: every file in
 * the malformed corpus under tests/data/ must come back as a
 * structured Status (never an abort or UB), with the cause naming the
 * defect and the byte offset populated; the writer must refuse values
 * the format cannot represent instead of silently wrapping. Traces
 * generated at test time check that data spanning several I/O chunks
 * round-trips and keeps its exact error offsets.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hh"
#include "test_helpers.hh"
#include "trace/trace_io.hh"

#ifndef XBS_TEST_DATA_DIR
#error "XBS_TEST_DATA_DIR must point at tests/data"
#endif

namespace xbs
{
namespace
{

std::string
dataPath(const std::string &file)
{
    return std::string(XBS_TEST_DATA_DIR) + "/" + file;
}

/** Read a corpus file, assert a structured error whose cause
 *  mentions @p expect_substr. */
void
expectCorrupt(const std::string &file, const std::string &expect_substr)
{
    SCOPED_TRACE(file);
    Expected<Trace> t = readTraceEx(dataPath(file));
    ASSERT_FALSE(t.ok()) << "corrupt file parsed successfully";
    const Status &st = t.status();
    EXPECT_NE(st.toString().find(expect_substr), std::string::npos)
        << "error was: " << st.toString();
    // Every corpus defect sits at a known place in the byte stream.
    EXPECT_TRUE(st.offset().has_value())
        << "error carries no byte offset: " << st.toString();
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), (std::streamsize)bytes.size());
}

/** Serialized sizes of one instruction and one record. */
constexpr uint64_t kInstBytes = 19;
constexpr uint64_t kRecordBytes = 5;

/** Byte offset of @p t's first instruction once written. */
uint64_t
instsStart(const Trace &t)
{
    return 4 + 4 + t.name().size() + 8;
}

/** Byte offset of @p t's first record once written. */
uint64_t
recordsStart(const Trace &t)
{
    return instsStart(t) + t.code().size() * kInstBytes + 8;
}

/**
 * A valid trace whose instruction and record sections each hold
 * three items more than one I/O chunk: a straight run of
 * kTraceInstsPerChunk + 1 instructions, a conditional branch back to
 * the top (taken two trips in three) and a jump back to the top.
 */
Trace
makeMultiChunkTrace()
{
    CodeBuilder cb;
    for (uint64_t i = 0; i < kTraceInstsPerChunk + 1; ++i)
        cb.seq((uint8_t)(1 + i % 3));
    const int32_t br = cb.cond(0);
    const int32_t jmp = cb.jump(0);
    auto code = cb.finalize();

    std::vector<std::pair<int32_t, bool>> path;
    int32_t pc = 0;
    unsigned trips = 0;
    while (path.size() < kTraceRecordsPerChunk + 3) {
        const bool taken = pc == br && ++trips % 3 != 0;
        path.emplace_back(pc, taken);
        pc = (taken || pc == jmp) ? 0 : pc + 1;
    }
    return makeTestTrace(code, path, "chunks");
}

TEST(TraceIoCorpus, ValidControlParses)
{
    Expected<Trace> t = readTraceEx(dataPath("valid_min.xbt"));
    ASSERT_TRUE(t.ok()) << t.status().toString();
    Trace trace = t.take();
    EXPECT_EQ(trace.name(), "mini");
    EXPECT_EQ(trace.numRecords(), 2u);
    EXPECT_EQ(trace.totalUops(), 2u);
}

TEST(TraceIoCorpus, MissingFile)
{
    Expected<Trace> t = readTraceEx(dataPath("no_such_file.xbt"));
    ASSERT_FALSE(t.ok());
    EXPECT_NE(t.status().toString().find("cannot open"),
              std::string::npos);
}

TEST(TraceIoCorpus, EmptyFile)
{
    expectCorrupt("empty.xbt", "not an XBT1 trace");
}

TEST(TraceIoCorpus, BadMagic)
{
    expectCorrupt("bad_magic.xbt", "not an XBT1 trace");
}

TEST(TraceIoCorpus, TruncatedHeader)
{
    expectCorrupt("trunc_header.xbt", "not an XBT1 trace");
}

TEST(TraceIoCorpus, TruncatedName)
{
    expectCorrupt("trunc_name.xbt", "name length 100");
}

TEST(TraceIoCorpus, NameBeyondFormatCap)
{
    expectCorrupt("huge_name.xbt", "exceeds the format limit");
}

TEST(TraceIoCorpus, OversizedInstructionCount)
{
    expectCorrupt("oversized_inst_count.xbt", "instruction count");
}

TEST(TraceIoCorpus, UnknownInstructionClass)
{
    expectCorrupt("bad_inst_class.xbt", "unknown class 99");
}

TEST(TraceIoCorpus, TakenIdxOutOfRange)
{
    expectCorrupt("bad_taken_idx.xbt", "takenIdx 5 out of range");
}

TEST(TraceIoCorpus, ZeroUopInstruction)
{
    expectCorrupt("zero_uops.xbt", "uop count 0 outside 1..16");
}

TEST(TraceIoCorpus, DuplicateIp)
{
    expectCorrupt("dup_ip.xbt", "duplicate ip");
}

TEST(TraceIoCorpus, RecordIndexOutOfRange)
{
    expectCorrupt("bad_record_idx.xbt", "staticIdx 7 out of range");
}

TEST(TraceIoCorpus, BadTakenFlag)
{
    expectCorrupt("bad_taken_flag.xbt", "taken flag 2 is not 0/1");
}

TEST(TraceIoCorpus, TruncatedRecordSection)
{
    expectCorrupt("trunc_records.xbt", "record count 50");
}

TEST(TraceIoCorpus, TrailingBytes)
{
    expectCorrupt("trailing_bytes.xbt", "trailing bytes");
}

TEST(TraceIoCorpus, RewritingValidFileIsByteIdentical)
{
    // The writer's output format is pinned by the corpus itself.
    Expected<Trace> t = readTraceEx(dataPath("valid_min.xbt"));
    ASSERT_TRUE(t.ok()) << t.status().toString();
    const std::string path =
        testing::TempDir() + "/xbs_valid_min_rewrite.xbt";
    ASSERT_TRUE(writeTraceEx(t.value(), path).isOk());
    EXPECT_EQ(readBytes(path), readBytes(dataPath("valid_min.xbt")));
    std::remove(path.c_str());
}

TEST(TraceIoCorpus, InstructionCountBeyondIndexSpace)
{
    // 2^30 + 1 instructions need ~19 GiB, so the file is sparse: a
    // header, then a hole up to the size the count implies. The
    // reader must refuse the count before reading any instruction.
    const uint64_t count = kMaxStaticInsts + 1;
    const std::string path = testing::TempDir() + "/xbs_2pow30.xbt";
    std::string header("XBT1\0\0\0\0", 8);
    header.append((const char *)&count, 8);
    writeBytes(path, header);
    if (truncate(path.c_str(),
                 (off_t)(header.size() + count * kInstBytes + 8)) != 0) {
        std::remove(path.c_str());
        GTEST_SKIP() << "no sparse file support: " << std::strerror(errno);
    }
    Expected<Trace> t = readTraceEx(path);
    std::remove(path.c_str());
    ASSERT_FALSE(t.ok());
    EXPECT_NE(t.status().toString().find(
                  "instruction count 1073741825 exceeds the 2^30 "
                  "static index space"),
              std::string::npos)
        << t.status().toString();
    ASSERT_TRUE(t.status().offset().has_value());
    EXPECT_EQ(*t.status().offset(), header.size());
}

// ---------------------------------------------------------------
// Sections longer than one I/O chunk.

TEST(TraceIoChunks, RoundTripAcrossChunkBoundaries)
{
    const Trace t = makeMultiChunkTrace();
    ASSERT_EQ(t.code().size(), kTraceInstsPerChunk + 3);
    ASSERT_EQ(t.numRecords(), kTraceRecordsPerChunk + 3);
    t.validate();

    const std::string path = testing::TempDir() + "/xbs_chunks.xbt";
    ASSERT_TRUE(writeTraceEx(t, path).isOk());
    EXPECT_EQ(readBytes(path).size(),
              recordsStart(t) + t.numRecords() * kRecordBytes);
    Expected<Trace> back = readTraceEx(path);
    std::remove(path.c_str());
    ASSERT_TRUE(back.ok()) << back.status().toString();
    const Trace &u = back.value();

    ASSERT_EQ(u.code().size(), t.code().size());
    for (int32_t i = 0; i < (int32_t)t.code().size(); ++i) {
        const StaticInst &a = t.code().inst(i);
        const StaticInst &b = u.code().inst(i);
        ASSERT_EQ(b.ip, a.ip) << "instruction " << i;
        ASSERT_EQ(b.length, a.length) << "instruction " << i;
        ASSERT_EQ(b.numUops, a.numUops) << "instruction " << i;
        ASSERT_EQ(b.cls, a.cls) << "instruction " << i;
        ASSERT_EQ(b.takenIdx, a.takenIdx) << "instruction " << i;
        ASSERT_EQ(b.behaviorId, a.behaviorId) << "instruction " << i;
    }
    ASSERT_EQ(u.numRecords(), t.numRecords());
    for (std::size_t i = 0; i < t.numRecords(); ++i) {
        ASSERT_EQ(u.record(i).staticIdx, t.record(i).staticIdx)
            << "record " << i;
        ASSERT_EQ(u.record(i).taken, t.record(i).taken)
            << "record " << i;
    }
    EXPECT_EQ(u.totalUops(), t.totalUops());
    EXPECT_EQ(u.name(), "chunks");
    u.validate();
}

TEST(TraceIoChunks, BadRecordInSecondChunkReportsExactOffset)
{
    const Trace t = makeMultiChunkTrace();
    const std::string path = testing::TempDir() + "/xbs_chunk_rec.xbt";
    ASSERT_TRUE(writeTraceEx(t, path).isOk());

    const uint64_t n = kTraceRecordsPerChunk + 1;
    const uint64_t at = recordsStart(t) + n * kRecordBytes;
    const int32_t idx = (int32_t)t.code().size();
    std::string bytes = readBytes(path);
    ASSERT_GT(bytes.size(), at + 4);
    std::memcpy(&bytes[at], &idx, 4);
    writeBytes(path, bytes);

    Expected<Trace> back = readTraceEx(path);
    std::remove(path.c_str());
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.status().cause().find(
                  "record " + std::to_string(n) + ": staticIdx " +
                  std::to_string(idx) + " out of range"),
              std::string::npos)
        << back.status().toString();
    ASSERT_TRUE(back.status().offset().has_value());
    EXPECT_EQ(*back.status().offset(), at);
}

TEST(TraceIoChunks, BadInstructionInSecondChunkReportsExactOffset)
{
    const Trace t = makeMultiChunkTrace();
    const std::string path =
        testing::TempDir() + "/xbs_chunk_inst.xbt";
    ASSERT_TRUE(writeTraceEx(t, path).isOk());

    // The class byte of the second chunk's second instruction.
    const uint64_t n = kTraceInstsPerChunk + 1;
    const uint64_t at = instsStart(t) + n * kInstBytes;
    std::string bytes = readBytes(path);
    bytes[at + 10] = 99;
    writeBytes(path, bytes);

    Expected<Trace> back = readTraceEx(path);
    std::remove(path.c_str());
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.status().cause().find(
                  "instruction " + std::to_string(n) +
                  ": unknown class 99"),
              std::string::npos)
        << back.status().toString();
    ASSERT_TRUE(back.status().offset().has_value());
    EXPECT_EQ(*back.status().offset(), at);
}

// ---------------------------------------------------------------
// Writer-side refusals and the legacy fatal wrappers.

TEST(TraceIoWriter, RefusesOverlongName)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    cb.jump(0);
    auto code = cb.finalize();
    Trace t = makeTestTrace(code, {{a, false}},
                            std::string(kMaxTraceNameLen + 1, 'n'));
    Status st = writeTraceEx(t, "/tmp/xbs_overlong_name.xbt");
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.toString().find("exceeds the format limit"),
              std::string::npos);
}

TEST(TraceIoWriter, RefusesUnwritablePath)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    cb.jump(0);
    auto code = cb.finalize();
    Trace t = makeTestTrace(code, {{a, false}});
    Status st = writeTraceEx(t, "/no/such/dir/out.xbt");
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.toString().find("cannot open"), std::string::npos);
}

TEST(TraceIoWriter, RoundTripSurvives)
{
    CodeBuilder cb;
    int32_t a = cb.seq(3);
    int32_t b = cb.cond(0, 2);
    auto code = cb.finalize();
    Trace t = makeTestTrace(code,
                            {{a, false}, {b, true}, {a, false}},
                            "roundtrip");
    const std::string path = "/tmp/xbs_roundtrip.xbt";
    ASSERT_TRUE(writeTraceEx(t, path).isOk());
    Expected<Trace> back = readTraceEx(path);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().numRecords(), t.numRecords());
    EXPECT_EQ(back.value().totalUops(), t.totalUops());
    EXPECT_EQ(back.value().name(), "roundtrip");
    std::remove(path.c_str());
}

TEST(TraceIoLegacy, FatalWrapperStillAborts)
{
    EXPECT_EXIT(readTrace(dataPath("bad_magic.xbt")),
                testing::ExitedWithCode(1), "not an XBT1 trace");
}

TEST(TraceIoLegacy, ReadWrapperReportsFileAndOffset)
{
    // The Status already carries the path and byte offset; the
    // legacy wrapper must surface both in its fatal message, not
    // just the cause string.
    EXPECT_EXIT(readTrace(dataPath("bad_taken_idx.xbt")),
                testing::ExitedWithCode(1),
                "bad_taken_idx\\.xbt' at byte [0-9]+");
}

TEST(TraceIoLegacy, ReadWrapperReportsFileWithoutOffset)
{
    // fopen failures have no offset, but the wrapper still attaches
    // the path it was asked to read.
    EXPECT_EXIT(readTrace(dataPath("no_such_file.xbt")),
                testing::ExitedWithCode(1),
                "cannot open for reading in '.*no_such_file\\.xbt'");
}

TEST(TraceIoLegacy, WriteWrapperReportsFile)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    cb.jump(0);
    auto code = cb.finalize();
    Trace t = makeTestTrace(code, {{a, false}});
    EXPECT_EXIT(writeTrace(t, "/no/such/dir/out.xbt"),
                testing::ExitedWithCode(1),
                "in '/no/such/dir/out\\.xbt'");
}

// ---------------------------------------------------------------
// Status / Expected unit behavior.

TEST(Status, ContextAttachmentInnerWins)
{
    Status st = Status::error("boom").withOffset(7);
    st.withFile("a.xbt").withOffset(99).withFile("b.xbt");
    EXPECT_EQ(st.file(), "a.xbt");
    ASSERT_TRUE(st.offset().has_value());
    EXPECT_EQ(*st.offset(), 7u);
    EXPECT_EQ(st.toString(), "boom in 'a.xbt' at byte 7");
}

TEST(Status, OkCarriesNoContext)
{
    Status st = Status::ok();
    EXPECT_TRUE(st.isOk());
    st.withFile("ignored").withOffset(3);
    EXPECT_EQ(st.toString(), "ok");
}

TEST(ExpectedT, ValueAndTake)
{
    Expected<int> e(42);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value(), 42);
    EXPECT_EQ(e.take(), 42);

    Expected<int> bad(Status::error("nope"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().cause(), "nope");
}

} // anonymous namespace
} // namespace xbs
