#include "batch/result_cache.hh"

#include <cstdio>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "batch/journal.hh"
#include "common/crashpoint.hh"
#include "common/fs.hh"
#include "common/json.hh"
#include "common/sha256.hh"
#include "ckpt/checkpoint.hh"
#include "prof/build_info.hh"
#include "workload/catalog.hh"

namespace xbs
{

namespace
{

/** Fixed-format doubles so the hash input is platform-stable. */
void
hashField(Sha256 &h, const char *name, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%.17g\n", name, v);
    h.update(buf, std::strlen(buf));
}

void
hashField(Sha256 &h, const char *name, uint64_t v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%llu\n", name,
                  (unsigned long long)v);
    h.update(buf, std::strlen(buf));
}

void
hashField(Sha256 &h, const char *name, const std::string &v)
{
    h.update(name, std::strlen(name));
    h.update("=", 1);
    h.update(v);
    h.update("\n", 1);
}

constexpr char kBodyHashPrefix[] = "sha256:";

} // anonymous namespace

Expected<std::string>
workloadContentHash(const std::string &name)
{
    Expected<const CatalogEntry *> e = findWorkloadEx(name);
    if (!e.ok())
        return e.status();
    const WorkloadProfile &p = e.value()->profile;

    // Every field that influences program generation or execution,
    // in declaration order. Adding a profile knob without extending
    // this list would serve stale results; test_batch's
    // CacheKey.WorkloadHashListsEveryProfileField fails when the
    // profile's field count changes.
    Sha256 h;
    hashField(h, "name", p.name);
    hashField(h, "suite", p.suite);
    hashField(h, "seed", p.seed);
    hashField(h, "numFunctions", (uint64_t)p.numFunctions);
    hashField(h, "itemsPerFunctionMean", p.itemsPerFunctionMean);
    hashField(h, "bodyInstMean", p.bodyInstMean);
    hashField(h, "uopsPerInstMean", p.uopsPerInstMean);
    hashField(h, "instLenMean", p.instLenMean);
    hashField(h, "wStraight", p.wStraight);
    hashField(h, "wIfElse", p.wIfElse);
    hashField(h, "wLoop", p.wLoop);
    hashField(h, "wSwitch", p.wSwitch);
    hashField(h, "wCall", p.wCall);
    hashField(h, "monotonicFraction", p.monotonicFraction);
    hashField(h, "patternFraction", p.patternFraction);
    hashField(h, "biasLow", p.biasLow);
    hashField(h, "biasHigh", p.biasHigh);
    hashField(h, "shortTripMean", p.shortTripMean);
    hashField(h, "longLoopFraction", p.longLoopFraction);
    hashField(h, "longTripMin", (uint64_t)p.longTripMin);
    hashField(h, "longTripMax", (uint64_t)p.longTripMax);
    hashField(h, "tripJitter", p.tripJitter);
    hashField(h, "switchFanoutMax", (uint64_t)p.switchFanoutMax);
    hashField(h, "indirectCallFraction", p.indirectCallFraction);
    hashField(h, "icallFanoutMax", (uint64_t)p.icallFanoutMax);
    hashField(h, "indirectRepeatProb", p.indirectRepeatProb);
    hashField(h, "calleeZipfS", p.calleeZipfS);
    hashField(h, "maxNestDepth", (uint64_t)p.maxNestDepth);
    hashField(h, "armItemMean", p.armItemMean);
    hashField(h, "nestedCallScale", p.nestedCallScale);
    hashField(h, "mainIterationBudget", p.mainIterationBudget);
    hashField(h, "budgetDecay", p.budgetDecay);
    return h.hexDigest();
}

const std::string &
buildInfoHash()
{
    static const std::string hash = [] {
        const BuildInfo &b = buildInfo();
        Sha256 h;
        hashField(h, "compiler", b.compiler);
        hashField(h, "buildType", b.buildType);
        hashField(h, "flags", b.flags);
        hashField(h, "source", b.source);
        hashField(h, "cxxStandard", b.cxxStandard);
        hashField(h, "sanitized", (uint64_t)(b.sanitized ? 1 : 0));
        return h.hexDigest();
    }();
    return hash;
}

Expected<CacheKey>
makeCacheKey(const RunSpec &run)
{
    // Canonicalize through the argv round trip (the encoding the
    // manifest and journal already rely on) with the effective
    // instruction count resolved: insts=0 means "the default", and
    // the default moves with XBS_TRACE_LEN/XBS_FAST, so two
    // environments with different defaults must not share entries.
    Expected<RunSpec> canon = RunSpec::fromArgv(run.toArgv());
    if (!canon.ok())
        return canon.status();
    RunSpec spec = canon.take();
    if (spec.insts == 0)
        spec.insts = defaultTraceLength();

    Expected<std::string> workload = workloadContentHash(spec.workload);
    if (!workload.ok())
        return workload.status();

    CacheKey key;
    // A restored job keys on the checkpoint *content*, not its path:
    // hash the file's bytes and canonicalize the path out of the
    // spec. An unreadable checkpoint means no key — the caller
    // simulates (and the run itself then reports the defect).
    if (!spec.restoreFrom.empty()) {
        Expected<std::string> digest =
            checkpointFileDigest(spec.restoreFrom);
        if (!digest.ok())
            return digest.status();
        key.ckptDigest = digest.take();
        spec.restoreFrom.clear();
    }
    std::string joined;
    for (const std::string &flag : spec.toArgv()) {
        joined += flag;
        joined += '\n';
    }
    key.spec = std::move(joined);
    key.workloadHash = workload.take();
    key.buildHash = buildInfoHash();

    Sha256 h;
    h.update(key.spec);
    h.update("\0", 1);
    h.update(key.workloadHash);
    h.update("\0", 1);
    h.update(key.buildHash);
    if (!key.ckptDigest.empty()) {
        // Appended only for warm runs so every pre-existing cold-run
        // cache entry keeps its address.
        h.update("\0", 1);
        h.update(key.ckptDigest);
    }
    key.hex = h.hexDigest();
    return key;
}

Status
ResultCache::open(const std::string &dir)
{
    if (Status st = ensureDir(dir + "/objects"); !st.isOk())
        return st;
    dir_ = dir;
    return Status::ok();
}

std::string
ResultCache::entryPath(const CacheKey &key) const
{
    return dir_ + "/objects/" + key.hex.substr(0, 2) + "/" + key.hex;
}

Expected<CacheEntry>
ResultCache::lookup(const CacheKey &key)
{
    if (!isOpen())
        return Status::error("result cache is not open");
    const std::string path = entryPath(key);
    Expected<std::string> text = readFileToString(path);
    if (!text.ok()) {
        ++misses_;
        return Status::error(StatusCode::NotFound,
                             "no cache entry").withFile(path);
    }

    // Layout: "sha256:<hex>\n<body>". The guard covers the exact
    // body bytes, so any tear or flip — including in the JSON the
    // parser would happily half-read — demotes the entry to a miss.
    auto corrupt = [&](const std::string &why) -> Status {
        ++corrupt_;
        ::unlink(path.c_str());
        return Status::error(StatusCode::Corrupt,
                             "corrupt cache entry: " + why)
            .withFile(path);
    };
    const std::string &raw = text.value();
    std::size_t nl = raw.find('\n');
    if (nl == std::string::npos)
        return corrupt("no guard line");
    const std::string guard = raw.substr(0, nl);
    const std::string body = raw.substr(nl + 1);
    if (guard.rfind(kBodyHashPrefix, 0) != 0)
        return corrupt("bad guard prefix");
    if (guard.substr(sizeof(kBodyHashPrefix) - 1) != sha256Hex(body))
        return corrupt("body hash mismatch");

    JsonValue v;
    std::string err;
    if (!parseJson(body, &v, &err) || !v.isObject())
        return corrupt("unparseable body: " + err);
    const JsonValue *spec = v.find("spec");
    if (!spec || spec->asString() != key.spec)
        return corrupt("key mismatch (hash collision or bad store)");

    CacheEntry entry;
    if (const JsonValue *f = v.find("label"))
        entry.label = f->asString();
    if (const JsonValue *f = v.find("seconds"))
        entry.seconds = f->asNumber();
    entry.metrics = readJobMetricsFields(v);
    ++hits_;
    return entry;
}

Status
ResultCache::store(const CacheKey &key, const CacheEntry &entry)
{
    if (!isOpen())
        return Status::error("result cache is not open");
    if (!key.valid())
        return Status::error("invalid cache key");

    std::ostringstream body;
    {
        JsonWriter jw(body, /*pretty=*/false);
        jw.beginObject();
        jw.field("version", (uint64_t)1);
        jw.field("spec", key.spec);
        jw.field("workloadHash", key.workloadHash);
        jw.field("buildHash", key.buildHash);
        if (!key.ckptDigest.empty())
            jw.field("ckptDigest", key.ckptDigest);
        jw.field("label", entry.label);
        jw.fieldFull("seconds", entry.seconds);
        writeJobMetricsFields(jw, entry.metrics);
        jw.endObject();
    }

    const std::string path = entryPath(key);
    const std::string shard = dir_ + "/objects/" + key.hex.substr(0, 2);
    if (Status st = ensureDir(shard); !st.isOk())
        return st;
    crashPoint("cache.pre_store");
    Status st = writeFileAtomic(
        path, kBodyHashPrefix + sha256Hex(body.str()) + "\n" +
                  body.str());
    if (st.isOk()) {
        ++stores_;
        crashPoint("cache.stored");
    }
    return st;
}

} // namespace xbs
