#include "trace/trace_io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"

namespace xbs
{

namespace
{

constexpr char kMagic[4] = {'X', 'B', 'T', '1'};

/** Serialized sizes (fields are packed, not struct images). */
constexpr uint64_t kInstBytes = 8 + 1 + 1 + 1 + 4 + 4;
constexpr uint64_t kRecordBytes = 4 + 1;

/** Where each field starts inside a serialized instruction/record. */
constexpr uint64_t kInstFields[] = {0, 8, 9, 10, 11, 15};
constexpr uint64_t kRecordFields[] = {0, 4};

/** The one section buffer: 76 KiB of instructions or 320 KiB of
 *  records per chunk. */
constexpr std::size_t kChunkBytes =
    std::max(kTraceInstsPerChunk * kInstBytes,
             kTraceRecordsPerChunk * kRecordBytes);

template <typename T>
T
load(const unsigned char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

template <typename T>
unsigned char *
store(unsigned char *p, T v)
{
    std::memcpy(p, &v, sizeof(T));
    return p + sizeof(T);
}

struct FileCloser
{
    void operator()(FILE *f) const { if (f) std::fclose(f); }
};

using FilePtr = std::unique_ptr<FILE, FileCloser>;

/**
 * Bounds-tracked reader over a stdio stream: every get knows the
 * current byte offset (for error context) and the total file size
 * (so section counts can be sanity-checked before any allocation).
 */
struct Reader
{
    FILE *f = nullptr;
    uint64_t offset = 0;
    uint64_t size = 0;
    Status error;  ///< first failure; reads after it are no-ops

    bool
    read(void *dst, std::size_t n, const char *what)
    {
        if (!error.isOk())
            return false;
        if (std::fread(dst, 1, n, f) != n) {
            error = Status::error(std::string("truncated ") + what)
                        .withOffset(offset);
            return false;
        }
        offset += n;
        return true;
    }

    /**
     * Read @p count items of @p item_bytes each (fields starting at
     * @p fields) with one fread. A short read fails at the start of
     * the field it cut into, as a field-by-field read would.
     */
    template <std::size_t N>
    bool
    readItems(unsigned char *dst, uint64_t count, uint64_t item_bytes,
              const uint64_t (&fields)[N], const char *what)
    {
        if (!error.isOk())
            return false;
        const std::size_t n = count * item_bytes;
        const std::size_t got = std::fread(dst, 1, n, f);
        if (got != n) {
            uint64_t field = 0;
            for (uint64_t start : fields) {
                if (start <= got % item_bytes)
                    field = start;
            }
            error = Status::error(std::string("truncated ") + what)
                        .withOffset(offset + got - got % item_bytes +
                                    field);
            return false;
        }
        offset += n;
        return true;
    }

    template <typename T>
    T
    get(const char *what)
    {
        T v{};
        read(&v, sizeof(T), what);
        return v;
    }

    uint64_t remaining() const { return size - offset; }

    void
    fail(std::string cause)
    {
        if (error.isOk())
            error = Status::error(std::move(cause)).withOffset(offset);
    }
};

} // anonymous namespace

Status
writeTraceEx(const Trace &trace, const std::string &path)
{
    // Refuse anything the format fields cannot represent instead of
    // wrapping on the (uint32_t) cast the old writer performed.
    if (trace.name().size() > kMaxTraceNameLen) {
        return Status::error(
            "trace name length " + std::to_string(trace.name().size()) +
            " exceeds the format limit of " +
            std::to_string(kMaxTraceNameLen))
            .withFile(path);
    }

    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return Status::error("cannot open for writing").withFile(path);

    // Each write reports failure at the offset it started from.
    uint64_t offset = 0;
    auto write = [&](const void *src, std::size_t n) {
        if (std::fwrite(src, 1, n, f.get()) != n)
            return false;
        offset += n;
        return true;
    };
    auto fail = [&]() {
        return Status::error("trace write failed")
            .withFile(path).withOffset(offset);
    };

    const auto &code = trace.code();
    const uint32_t name_len = (uint32_t)trace.name().size();
    const uint64_t num_insts = code.size();
    const uint64_t num_records = trace.numRecords();
    if (!write(kMagic, 4) || !write(&name_len, 4) ||
        !write(trace.name().data(), name_len) || !write(&num_insts, 8)) {
        return fail();
    }

    std::vector<unsigned char> buf(kChunkBytes);
    for (uint64_t base = 0; base < num_insts;
         base += kTraceInstsPerChunk) {
        const uint64_t end =
            std::min(num_insts, base + kTraceInstsPerChunk);
        unsigned char *p = buf.data();
        for (uint64_t i = base; i < end; ++i) {
            const auto &si = code.inst((int32_t)i);
            p = store<uint64_t>(p, si.ip);
            p = store<uint8_t>(p, si.length);
            p = store<uint8_t>(p, si.numUops);
            p = store<uint8_t>(p, (uint8_t)si.cls);
            p = store<int32_t>(p, si.takenIdx);
            p = store<int32_t>(p, si.behaviorId);
        }
        if (!write(buf.data(), (std::size_t)(p - buf.data())))
            return fail();
    }

    if (!write(&num_records, 8))
        return fail();
    for (uint64_t base = 0; base < num_records;
         base += kTraceRecordsPerChunk) {
        const uint64_t end =
            std::min(num_records, base + kTraceRecordsPerChunk);
        unsigned char *p = buf.data();
        for (uint64_t i = base; i < end; ++i) {
            const TraceRecord &rec = trace.record(i);
            p = store<int32_t>(p, rec.staticIdx);
            p = store<uint8_t>(p, rec.taken);
        }
        if (!write(buf.data(), (std::size_t)(p - buf.data())))
            return fail();
    }
    if (std::fflush(f.get()) != 0)
        return fail();
    return Status::ok();
}

Expected<Trace>
readTraceEx(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return Status::error("cannot open for reading").withFile(path);

    Reader r;
    r.f = f.get();
    if (std::fseek(r.f, 0, SEEK_END) != 0)
        return Status::error("cannot seek").withFile(path);
    long end = std::ftell(r.f);
    if (end < 0)
        return Status::error("cannot tell").withFile(path);
    r.size = (uint64_t)end;
    std::rewind(r.f);

    char magic[4] = {};
    if (!r.read(magic, 4, "header") ||
        std::memcmp(magic, kMagic, 4) != 0) {
        return Status::error("'" + path +
                             "' is not an XBT1 trace file")
            .withOffset(0);
    }

    // Name section, with the length checked against both the format
    // cap and the bytes actually present.
    auto name_len = r.get<uint32_t>("name length");
    if (!r.error.isOk())
        return r.error.withFile(path);
    if (name_len > kMaxTraceNameLen) {
        r.fail("name length " + std::to_string(name_len) +
               " exceeds the format limit of " +
               std::to_string(kMaxTraceNameLen));
        return r.error.withFile(path);
    }
    if (name_len > r.remaining()) {
        r.fail("name length " + std::to_string(name_len) +
               " exceeds the " + std::to_string(r.remaining()) +
               " bytes left in the file");
        return r.error.withFile(path);
    }
    std::string name(name_len, '\0');
    if (name_len && !r.read(name.data(), name_len, "name"))
        return r.error.withFile(path);

    // Instruction section: bound the count by the bytes present
    // before reserving anything, then validate each field so the
    // StaticCode/Trace constructors (which assert) never see junk.
    auto num_insts = r.get<uint64_t>("instruction count");
    if (!r.error.isOk())
        return r.error.withFile(path);
    if (num_insts > r.remaining() / kInstBytes) {
        r.fail("instruction count " + std::to_string(num_insts) +
               " exceeds the " + std::to_string(r.remaining()) +
               " bytes left in the file");
        return r.error.withFile(path);
    }
    if (num_insts > kMaxStaticInsts) {
        r.fail("instruction count " + std::to_string(num_insts) +
               " exceeds the 2^30 static index space");
        return r.error.withFile(path);
    }

    std::vector<unsigned char> buf(kChunkBytes);
    auto code = std::make_shared<StaticCode>();
    std::unordered_set<uint64_t> seen_ips;
    seen_ips.reserve((std::size_t)num_insts);
    for (uint64_t base = 0; base < num_insts;
         base += kTraceInstsPerChunk) {
        const uint64_t n =
            std::min(kTraceInstsPerChunk, num_insts - base);
        const uint64_t chunk_off = r.offset;
        if (!r.readItems(buf.data(), n, kInstBytes, kInstFields,
                         "instruction")) {
            return r.error.withFile(path);
        }
        for (uint64_t j = 0; j < n; ++j) {
            const uint64_t i = base + j;
            const unsigned char *p = buf.data() + j * kInstBytes;
            StaticInst si;
            si.ip = load<uint64_t>(p);
            si.length = p[8];
            si.numUops = p[9];
            const uint8_t cls = p[10];
            si.takenIdx = load<int32_t>(p + 11);
            si.behaviorId = load<int32_t>(p + 15);

            auto bad = [&](const std::string &what) {
                r.error = Status::error("instruction " +
                                        std::to_string(i) + ": " + what)
                              .withOffset(chunk_off + j * kInstBytes)
                              .withFile(path);
                return r.error;
            };
            if (si.length < 1 || si.length > 15)
                return bad("length " + std::to_string(si.length) +
                           " outside 1..15");
            if (si.numUops < 1 || si.numUops > 16)
                return bad("uop count " + std::to_string(si.numUops) +
                           " outside 1..16");
            if (cls >= (uint8_t)InstClass::NumClasses)
                return bad("unknown class " + std::to_string(cls));
            si.cls = (InstClass)cls;
            if (si.takenIdx != kNoTarget &&
                (si.takenIdx < 0 || (uint64_t)si.takenIdx >= num_insts)) {
                return bad("takenIdx " + std::to_string(si.takenIdx) +
                           " out of range");
            }
            if (si.behaviorId != kNoBehavior && si.behaviorId < 0)
                return bad("negative behaviorId");
            if (!seen_ips.insert(si.ip).second)
                return bad("duplicate ip " + std::to_string(si.ip));
            code->append(si);
        }
    }
    code->finalize();

    // Record section, again count-bounded by the remaining bytes and
    // with every index checked against the code image.
    auto num_records = r.get<uint64_t>("record count");
    if (!r.error.isOk())
        return r.error.withFile(path);
    if (num_records > r.remaining() / kRecordBytes) {
        r.fail("record count " + std::to_string(num_records) +
               " exceeds the " + std::to_string(r.remaining()) +
               " bytes left in the file");
        return r.error.withFile(path);
    }
    std::vector<TraceRecord> records;
    records.reserve((std::size_t)num_records);
    for (uint64_t base = 0; base < num_records;
         base += kTraceRecordsPerChunk) {
        const uint64_t n =
            std::min(kTraceRecordsPerChunk, num_records - base);
        const uint64_t chunk_off = r.offset;
        if (!r.readItems(buf.data(), n, kRecordBytes, kRecordFields,
                         "record")) {
            return r.error.withFile(path);
        }
        for (uint64_t j = 0; j < n; ++j) {
            const uint64_t i = base + j;
            const unsigned char *p = buf.data() + j * kRecordBytes;
            const int32_t idx = load<int32_t>(p);
            const uint8_t taken = p[4];
            if (idx < 0 || (uint64_t)idx >= num_insts) {
                return Status::error("record " + std::to_string(i) +
                                     ": staticIdx " +
                                     std::to_string(idx) +
                                     " out of range")
                    .withOffset(chunk_off + j * kRecordBytes)
                    .withFile(path);
            }
            if (taken > 1) {
                return Status::error("record " + std::to_string(i) +
                                     ": taken flag " +
                                     std::to_string(taken) +
                                     " is not 0/1")
                    .withOffset(chunk_off + j * kRecordBytes)
                    .withFile(path);
            }
            TraceRecord rec;
            rec.staticIdx = idx;
            rec.taken = taken;
            records.push_back(rec);
        }
    }

    if (r.remaining() != 0) {
        r.fail(std::to_string(r.remaining()) +
               " trailing bytes after the record section");
        return r.error.withFile(path);
    }

    return Trace(std::move(code), std::move(records),
                 std::move(name));
}

void
writeTrace(const Trace &trace, const std::string &path)
{
    Status st = writeTraceEx(trace, path);
    if (!st) {
        // Attach the path before formatting: a few early failures
        // (e.g. fopen) report only a cause, and the legacy callers
        // have no Status to recover the context from, so the fatal
        // message is their one chance to see file and byte offset.
        st.withFile(path);
        xbs_fatal("%s", st.toString().c_str());
    }
}

Trace
readTrace(const std::string &path)
{
    Expected<Trace> t = readTraceEx(path);
    if (!t) {
        Status st = t.status();
        st.withFile(path);
        xbs_fatal("%s", st.toString().c_str());
    }
    return t.take();
}

} // namespace xbs
