/**
 * @file
 * xbbench - the benchmark's job runner. Runs one benchmark workload as
 * a series of xbsim-style jobs (get the trace, build the frontends, run
 * the cycle loops, emit results) in a single thread, timing each call
 * into a simulator module from outside. Nothing under src/ is
 * instrumented; every number here comes from clocks read around the
 * modules' public entry points.
 *
 *   xbbench --list
 *   xbbench --workload=hot-delivery --seed=0 --seconds=30
 *   xbbench --workload=xbt-replay --seed=0 --xbt=t.xbt --prepare
 *   xbbench --workload=xbt-replay --seed=0 --xbt=t.xbt --seconds=30 \
 *           --spans=spans.json
 *
 * Each job prints one JSON line on stdout: host times, peak RSS, and
 * per frontend ("op") its status, paper metrics (%.17g strings, so a
 * comparison is bit-exact), XBC structure counts and the host time of
 * each window of kWindowCycles simulated cycles of its loop. With
 * --spans the run alternates untraced and traced jobs; a traced job
 * also records a span (name, start, end, parent) around every layer
 * call, keeps them in memory and writes them all to --spans when the
 * run ends. --prepare synthesizes the workload's trace and writes it
 * to --xbt (run it in its own process so the measured process starts
 * fresh). --list prints each workload's frontends, and whether it
 * replays a .xbt file, as JSON.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/interval_stats.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/config.hh"
#include "trace/trace_io.hh"
#include "workload/builder.hh"
#include "workload/catalog.hh"
#include "workload/executor.hh"

using namespace xbs;

namespace
{

/** One benchmark workload: a catalog program, a trace length and the
 *  frontends that replay it. See README.md for why each exists. */
struct Workload
{
    const char *name;
    const char *program;       ///< catalog entry
    uint64_t insts;            ///< paper length unless --insts
    bool replay;               ///< trace from a .xbt file, not synthesis
    std::vector<std::pair<const char *, SimConfig>> frontends;
};

std::vector<Workload>
workloads()
{
    return {
        {"hot-delivery", "gcc", 30000000, false,
         {{"xbc", SimConfig::xbcBaseline(32768)}}},
        {"capacity-pressure", "access", 30000000, false,
         {{"xbc", SimConfig::xbcBaseline(8192)}}},
        {"xbt-replay", "netscape", 10000000, true,
         {{"ic", SimConfig::icBaseline()},
          {"dc", SimConfig::dcBaseline(32768)},
          {"tc", SimConfig::tcBaseline(32768)},
          {"bbtc", SimConfig::bbtcBaseline(32768)}}},
    };
}

/** Loop window length in simulated cycles: tens of milliseconds of
 *  host time on the benchmark's jobs. */
constexpr uint64_t kWindowCycles = 65536;

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/**
 * Host-speed probe: the fastest of 40 passes of a fixed kernel of four
 * independent xorshift chains (about 1.5 ms each), in seconds. The
 * kernel is part of the benchmark, not of the simulator, so its time
 * changes only with the host's speed; run.py scales the job times by
 * it. It touches no memory, so it leaves the caches as they were.
 */
volatile uint64_t g_probeSink;   ///< keeps the probe kernel alive

double
probeHost()
{
    double best = 1e9;
    for (int pass = 0; pass < 40; ++pass) {
        const double t = now();
        uint64_t a = 1, b = 2, c = 3, d = 4;
        for (int i = 0; i < 600000; ++i) {
            a ^= a << 13; a ^= a >> 7; a ^= a << 17;
            b ^= b << 13; b ^= b >> 7; b ^= b << 17;
            c ^= c << 13; c ^= c >> 7; c ^= c << 17;
            d ^= d << 13; d ^= d >> 7; d ^= d << 17;
        }
        g_probeSink = a + b + c + d;
        best = std::min(best, now() - t);
    }
    return best;
}

struct Span
{
    std::string name;
    unsigned job;
    int parent;     ///< index into the span list, -1 for a job's root
    double start;   ///< seconds since process start
    double end;
};

/** In-memory span list; written out once, when the run ends. */
class SpanLog
{
  public:
    std::size_t
    open(const std::string &name, unsigned job)
    {
        int parent = stack_.empty() ? -1 : (int)stack_.back();
        spans_.push_back({name, job, parent, now(), 0.0});
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(std::size_t id)
    {
        spans_[id].end = now();
        stack_.pop_back();
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "{\"id\": %zu, \"job\": %u, \"name\": \"%s\", "
                          "\"parent\": %d, \"start\": %.9f, "
                          "\"end\": %.9f}%s\n",
                          i, s.job, s.name.c_str(), s.parent, s.start,
                          s.end, i + 1 < spans_.size() ? "," : "");
            os << buf;
        }
        os << "]\n";
        return (bool)os;
    }

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** Span around a scope in a traced job; a no-op when @p log is null. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name, unsigned job)
        : log_(log), id_(log ? log->open(name, job) : 0)
    {
    }

    ~ScopedSpan()
    {
        if (log_)
            log_->close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    std::size_t id_;
};

/** A field of /proc/self/status in MiB (VmHWM, VmRSS), 0 if absent. */
double
procStatusMb(const char *field)
{
    std::ifstream is("/proc/self/status");
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(is, line)) {
        if (line.rfind(key, 0) == 0)
            return std::stod(line.substr(key.size())) / 1024.0;
    }
    return 0.0;
}

std::string
full(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

uint64_t
statValue(const Frontend &fe, const char *path)
{
    auto *s = dynamic_cast<const ScalarStat *>(fe.statRoot().find(path));
    return s ? s->value() : 0;
}

/** The paper metrics and XBC structure counts of one op, as
 *  "key": value JSON members (paper metrics as %.17g strings). */
std::string
opResultJson(const Frontend &fe)
{
    const FrontendMetrics &m = fe.metrics();
    const uint64_t delivery = m.deliveryUops.value();
    const uint64_t build = m.buildUops.value();
    std::ostringstream os;
    os << "\"paper\": {\"bandwidth\": \"" << full(m.bandwidth())
       << "\", \"missRate\": \"" << full(m.missRate())
       << "\", \"cycles\": \"" << m.cycles.value()
       << "\", \"totalUops\": \"" << delivery + build
       << "\", \"deliveryUops\": \"" << delivery
       << "\", \"buildUops\": \"" << build
       << "\", \"modeSwitches\": \"" << m.modeSwitches.value() << "\"}";
    if (fe.name() == "xbcfe") {
        os << ", \"counts\": {\"xbtb_lookups\": "
           << statValue(fe, "xbtb.lookups")
           << ", \"xbtb_hits\": " << statValue(fe, "xbtb.hits")
           << ", \"array_inserts\": " << statValue(fe, "xbc.inserts")
           << ", \"array_evictions\": " << statValue(fe, "xbc.evictions")
           << ", \"set_searches\": " << statValue(fe, "xbc.setSearches")
           << ", \"xbs_built\": " << statValue(fe, "xfu.xbsBuilt") << "}";
    }
    return os.str();
}

/** What an xbsim --json --stats job writes for one frontend (the
 *  text is built and dropped: only its cost is of interest). */
void
emitResult(const Frontend &fe, const std::string &workload)
{
    const FrontendMetrics &m = fe.metrics();
    std::ostringstream os;
    JsonWriter jw(os);
    jw.beginObject();
    jw.field("frontend", fe.name());
    jw.field("workload", workload);
    jw.field("totalUops", m.deliveryUops.value() + m.buildUops.value());
    jw.field("bandwidth", m.bandwidth());
    jw.field("missRate", m.missRate());
    jw.field("overallIpc", m.overallIpc());
    jw.field("cycles", m.cycles.value());
    jw.field("condMispredictRate", m.condMispredictRate());
    fe.attrib().writeJson(jw, m.buildUops.value(), m.stallCycles.value(),
                          fe.arrayAccounting());
    fe.statRoot().dumpJson(jw, /*as_member=*/true);
    jw.endObject();
}

struct Inputs
{
    const Workload *w;
    WorkloadProfile profile;   ///< the catalog entry's, unchanged
    uint64_t seed;             ///< Executor seed: the dynamic path
    uint64_t insts;
    std::string xbtPath;
};

/**
 * One xbsim-style job; prints its JSON line. With @p log set, every
 * layer call gets a span and RSS is sampled after setup and loops.
 * Returns false when an op failed.
 */
bool
runJob(const Inputs &in, unsigned job, SpanLog *log)
{
    const Workload &w = *in.w;
    std::optional<Trace> trace;
    std::vector<std::unique_ptr<Frontend>> fes;
    std::vector<std::string> statuses(w.frontends.size(), "ok");
    std::vector<double> loop_s(w.frontends.size(), 0.0);
    std::vector<std::vector<double>> windows(w.frontends.size());
    double rss_setup = 0.0, rss_loop = 0.0, t_setup = 0.0;

    const double probe_s = probeHost();
    const double t0 = now();
    {
        ScopedSpan job_span(log, "job", job);
        if (w.replay) {
            ScopedSpan s(log, "trace.load", job);
            Expected<Trace> tr = readTraceEx(in.xbtPath);
            if (tr.ok())
                trace.emplace(tr.take());
            else
                statuses.assign(statuses.size(), tr.status().toString());
        } else {
            std::shared_ptr<const Program> program;
            {
                ScopedSpan s(log, "workload.program", job);
                program = buildProgram(in.profile);
            }
            ScopedSpan s(log, "workload.exec", job);
            Executor ex(program, in.seed);
            trace.emplace(ex.run(in.insts));
        }
        for (std::size_t i = 0; i < w.frontends.size(); ++i) {
            ScopedSpan s(log, "sim.construct", job);
            Status st = validateConfig(w.frontends[i].second);
            if (!st.isOk())
                statuses[i] = st.toString();
            fes.push_back(st.isOk() && trace
                              ? makeFrontend(w.frontends[i].second)
                              : nullptr);
        }
        t_setup = now();
        if (log)
            rss_setup = procStatusMb("VmRSS");
        for (std::size_t i = 0; i < fes.size(); ++i) {
            if (!fes[i])
                continue;
            ScopedSpan s(log, std::string(w.frontends[i].first) + ".loop",
                         job);
            // The interval sampler is the frontends' own pay-for-use
            // observer (one compare per cycle); its window hook reads
            // the clock at each window boundary.
            IntervalSampler sampler(fes[i]->statRoot(), kWindowCycles);
            double mark = 0.0;
            sampler.setWindowHook(
                [&](const IntervalSampler::WindowInfo &, JsonWriter *) {
                    const double t = now();
                    windows[i].push_back(t - mark);
                    mark = t;
                });
            fes[i]->attachSampler(&sampler);
            const double t = now();
            mark = t;
            fes[i]->run(*trace);
            fes[i]->finishObservation();
            loop_s[i] = now() - t;
            fes[i]->attachSampler(nullptr);
        }
        if (log)
            rss_loop = procStatusMb("VmRSS");
        for (const auto &fe : fes) {
            if (!fe)
                continue;
            ScopedSpan s(log, "common.emit", job);
            emitResult(*fe, in.profile.name);
        }
    }
    const double t_end = now();

    std::ostringstream os;
    os << "{\"job\": " << job << ", \"traced\": " << (log ? "true" : "false")
       << ", \"wall_s\": " << full(t_end - t0)
       << ", \"setup_s\": " << full(t_setup - t0)
       << ", \"probe_s\": " << full(probe_s)
       << ", \"hwm_mb\": " << full(procStatusMb("VmHWM"))
       << ", \"insts\": " << (trace ? trace->numRecords() : 0)
       << ", \"trace_uops\": " << (trace ? trace->totalUops() : 0);
    if (log) {
        os << ", \"rss_after_setup_mb\": " << full(rss_setup)
           << ", \"rss_after_loop_mb\": " << full(rss_loop);
    }
    os << ", \"ops\": [";
    for (std::size_t i = 0; i < fes.size(); ++i) {
        os << (i ? ", " : "") << "{\"fe\": \"" << w.frontends[i].first
           << "\", \"status\": \"" << statuses[i] << "\"";
        if (fes[i]) {
            os << ", \"loop_s\": " << full(loop_s[i]) << ", \"windows_s\": [";
            for (std::size_t k = 0; k < windows[i].size(); ++k)
                os << (k ? ", " : "") << full(windows[i][k]);
            os << "], " << opResultJson(*fes[i]);
        }
        os << "}";
    }
    os << "]}\n";
    std::fputs(os.str().c_str(), stdout);
    std::fflush(stdout);
    return std::count(statuses.begin(), statuses.end(), "ok") ==
           (long)statuses.size();
}

/** Synthesize the replay trace and write it; prints one JSON line. */
int
prepare(const Inputs &in)
{
    Trace trace = makeTrace(buildProgram(in.profile), in.insts, in.seed);
    const double t = now();
    Status st = writeTraceEx(trace, in.xbtPath);
    const double write_s = now() - t;
    if (!st.isOk()) {
        std::fprintf(stderr, "xbbench: %s\n", st.toString().c_str());
        return 1;
    }
    std::printf("{\"write_s\": %.17g, \"probe_s\": %.17g, \"insts\": %zu}\n",
                write_s, probeHost(), trace.numRecords());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, xbt, spans;
    uint64_t seed = 0, insts = 0;
    double seconds = 10;
    bool do_prepare = false, list = false;

    ArgParser args("xbbench", "benchmark job runner (see README.md)");
    args.addString("workload", &workload, "a workload of --list");
    args.addUint("seed", &seed,
                 "executor seed; 0 keeps the catalog entry's own seed");
    args.addDouble("seconds", &seconds,
                   "start no job that would end past this budget");
    args.addUint("insts", &insts, "trace length (0 = paper length)");
    args.addString("spans", &spans,
                   "alternate untraced and traced jobs; write the "
                   "traced jobs' spans here");
    args.addString("xbt", &xbt, "replay trace file (xbt-replay)");
    args.addBool("prepare", &do_prepare,
                 "write the replay trace to --xbt and exit");
    args.addBool("list", &list,
                 "print the workloads as JSON and exit");
    if (!args.parse(argc, argv))
        return 0;
    setLogQuiet(true);

    const std::vector<Workload> all = workloads();
    if (list) {
        std::printf("{");
        for (std::size_t k = 0; k < all.size(); ++k) {
            std::printf("%s\"%s\": {\"replay\": %s, \"frontends\": [",
                        k ? ", " : "", all[k].name,
                        all[k].replay ? "true" : "false");
            for (std::size_t i = 0; i < all[k].frontends.size(); ++i)
                std::printf("%s\"%s\"", i ? ", " : "",
                            all[k].frontends[i].first);
            std::printf("]}");
        }
        std::printf("}\n");
        return 0;
    }
    const Workload *w = nullptr;
    for (const Workload &c : all) {
        if (workload == c.name)
            w = &c;
    }
    if (!w) {
        std::fprintf(stderr, "xbbench: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    if (w->replay && xbt.empty()) {
        std::fprintf(stderr, "xbbench: %s needs --xbt\n", w->name);
        return 2;
    }

    // The seed drives the dynamic path (branch outcomes, indirect
    // targets, trip counts) through the catalog program. Re-seeding
    // the program itself would redraw its footprint: on access the
    // 8K-uop miss rate then ranges 5-16% across seeds, so the seed
    // would choose how much work a job is rather than vary its input.
    const WorkloadProfile &profile = findWorkload(w->program).profile;
    Inputs in{w, profile, seed ? seed : profile.seed,
              insts ? insts : w->insts, xbt};
    if (do_prepare)
        return prepare(in);

    // Jobs run back to back, each after its host probe; a job starts
    // only if, at the slowest job time seen so far, it ends within the
    // budget (at least three jobs,
    // and in a traced run at least one untraced/traced pair more). A
    // failed op ends the run: its result line already says so.
    const bool traced = !spans.empty();
    SpanLog log;
    const unsigned min_jobs = traced ? 4 : 3;
    const double start = now();
    double slowest = 0.0;
    for (unsigned job = 0;
         job < min_jobs || now() - start + slowest <= seconds; ++job) {
        const bool span_this = traced && job % 2 == 1;
        const double t = now();
        if (!runJob(in, job, span_this ? &log : nullptr))
            break;
        slowest = std::max(slowest, now() - t);
    }
    if (traced && !log.write(spans)) {
        std::fprintf(stderr, "xbbench: cannot write '%s'\n",
                     spans.c_str());
        return 1;
    }
    return 0;
}
