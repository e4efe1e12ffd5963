#include "verify/crash_matrix.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "batch/journal.hh"
#include "batch/result_cache.hh"
#include "batch/subprocess.hh"
#include "common/crashpoint.hh"
#include "common/fs.hh"
#include "common/sha256.hh"

namespace xbs
{

namespace
{

/**
 * The cache key the victim stores and the verifier re-derives.
 * Fabricated (not via makeCacheKey) so the harness does not depend
 * on the workload catalog; the store/lookup path treats it exactly
 * like a real key.
 */
CacheKey
victimKey()
{
    CacheKey key;
    key.spec = "--workload=crash-victim\n--frontend=xbc\n"
               "--capacity=1024\n";
    key.workloadHash = sha256Hex("crash-victim-workload");
    key.buildHash = buildInfoHash();
    Sha256 h;
    h.update(key.spec);
    h.update("\0", 1);
    h.update(key.workloadHash);
    h.update("\0", 1);
    h.update(key.buildHash);
    key.hex = h.hexDigest();
    return key;
}

JobMetrics
victimMetrics(int job)
{
    JobMetrics m;
    m.bandwidth = 10.0 + job;
    m.missRate = 0.01 * (job + 1);
    m.overallIpc = 2.0;
    m.cycles = 1000u * (unsigned)(job + 1);
    m.totalUops = 4000u * (unsigned)(job + 1);
    return m;
}

/** write(2) so the ack reaches the pipe before any planted _exit. */
void
ackLine(const std::string &line)
{
    std::string out = line + "\n";
    (void)!::write(STDOUT_FILENO, out.data(), out.size());
}

} // anonymous namespace

int
crashVictimMain(const std::string &dir)
{
    if (Status st = ensureDir(dir); !st.isOk())
        return 1;

    // Journal leg: five jobs through the batch event sequence
    // (launch, result, final). The first three are per-record
    // durable; the last two exercise the group-commit path that
    // cache-hit finals take (unsynced appends + one sync). An id is
    // acked only after the barrier that makes its Final durable.
    SweepJournal journal;
    if (Status st = journal.open(dir); !st.isOk())
        return 1;
    for (int job = 0; job < 5; ++job) {
        const bool durable = job < 3;
        JournalEvent launch;
        launch.kind = JournalEvent::Kind::Launch;
        launch.job = job;
        launch.attempt = 1;
        if (Status st = journal.append(launch, durable); !st.isOk())
            return 1;
        JournalEvent result;
        result.kind = JournalEvent::Kind::Result;
        result.job = job;
        result.attempt = 1;
        result.cls = JobClass::Ok;
        result.exitCode = 0;
        result.seconds = 0.25;
        result.hasMetrics = true;
        result.metrics = victimMetrics(job);
        if (Status st = journal.append(result, durable); !st.isOk())
            return 1;
        JournalEvent fin;
        fin.kind = JournalEvent::Kind::Final;
        fin.job = job;
        fin.attempt = 1;
        fin.cls = JobClass::Ok;
        fin.exitCode = 0;
        fin.seconds = 0.25;
        fin.hasMetrics = true;
        fin.metrics = victimMetrics(job);
        if (Status st = journal.append(fin, durable); !st.isOk())
            return 1;
        if (durable)
            ackLine("acked " + std::to_string(job));
    }
    if (Status st = journal.sync(); !st.isOk())
        return 1;
    ackLine("acked 3");
    ackLine("acked 4");

    // Cache leg: one store (tmp+fsync+rename+dirsync inside) and a
    // read-back.
    ResultCache cache;
    if (Status st = cache.open(dir + "/cache"); !st.isOk())
        return 1;
    CacheEntry entry;
    entry.label = "crash-victim";
    entry.seconds = 0.25;
    entry.metrics = victimMetrics(0);
    if (Status st = cache.store(victimKey(), entry); !st.isOk())
        return 1;
    ackLine("stored");
    if (!cache.lookup(victimKey()).ok())
        return 1;
    ackLine("read-back");
    return 0;
}

CrashSiteResult
runCrashSite(const std::string &site,
             const std::vector<std::string> &victim_argv,
             const std::string &dir)
{
    CrashSiteResult res;
    res.site = site;
    auto fail = [&](const std::string &why) {
        res.detail = why;
        return res;
    };

    if (Status st = ensureDir(dir); !st.isOk())
        return fail("scratch dir: " + st.toString());

    // env(1) plants the crash point in the child only; this process
    // keeps running unarmed. "{DIR}" in the victim argv becomes the
    // per-site scratch dir so victim and verifier agree on it.
    std::vector<std::string> argv;
    argv.push_back("env");
    argv.push_back("XBATCH_CRASH_AT=" + site + ":1");
    for (std::string arg : victim_argv) {
        for (std::size_t at; (at = arg.find("{DIR}")) !=
                             std::string::npos;) {
            arg.replace(at, 5, dir);
        }
        argv.push_back(std::move(arg));
    }
    Expected<Child> spawned = spawnChild(argv);
    if (!spawned.ok())
        return fail("spawn: " + spawned.status().toString());
    Child child = spawned.take();

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    int raw = 0;
    for (;;) {
        pumpChild(child);
        if (reapChild(child, &raw))
            break;
        if (std::chrono::steady_clock::now() > deadline) {
            signalChild(child, SIGKILL);
            while (!reapChild(child, &raw)) {
            }
            return fail("victim timed out");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!WIFEXITED(raw) || WEXITSTATUS(raw) != kCrashPointExit) {
        std::ostringstream os;
        os << "victim did not die at the plant (raw status " << raw
           << "; stderr: " << child.err << ")";
        return fail(os.str());
    }
    res.crashed = true;

    // Acks the victim got out before dying: results that MUST have
    // survived.
    std::vector<int> acked;
    {
        std::istringstream is(child.out);
        std::string word;
        while (is >> word) {
            if (word == "acked") {
                int id;
                if (is >> id)
                    acked.push_back(id);
            }
        }
    }

    // --- Recovery, exactly as `xbatch --resume` would do it. ---

    // 1. Replay accepts the journal (at most a torn tail).
    std::vector<JournalEvent> events;
    if (pathExists(SweepJournal::journalPath(dir))) {
        Expected<std::vector<JournalEvent>> replayed =
            SweepJournal::replay(dir);
        if (!replayed.ok())
            return fail("replay rejected: " +
                        replayed.status().toString());
        events = replayed.take();
    }

    // 2. No job finalized twice; no acked final lost.
    std::vector<int> final_jobs;
    for (const JournalEvent &ev : events) {
        if (ev.kind != JournalEvent::Kind::Final)
            continue;
        for (int seen : final_jobs) {
            if (seen == ev.job)
                return fail("job " + std::to_string(ev.job) +
                            " finalized twice");
        }
        final_jobs.push_back(ev.job);
    }
    for (int id : acked) {
        bool found = false;
        for (int seen : final_jobs)
            found = found || seen == id;
        if (!found)
            return fail("acked final for job " + std::to_string(id) +
                        " lost");
    }

    // 3. The journal takes appends again (not wedged by the crash).
    {
        SweepJournal journal;
        if (Status st = journal.open(dir); !st.isOk())
            return fail("re-open: " + st.toString());
        uint64_t last_seq = 0;
        for (const JournalEvent &ev : events)
            last_seq = std::max(last_seq, ev.seq);
        journal.seedSeq(last_seq);
        JournalEvent probe;
        probe.kind = JournalEvent::Kind::Launch;
        probe.job = 999;
        probe.attempt = 1;
        if (Status st = journal.append(probe); !st.isOk())
            return fail("post-crash append: " + st.toString());
    }

    // 4. The cache entry is a hit or a (possibly corruption-demoted)
    //    miss — never a wedged store — and a fresh store round-trips.
    {
        ResultCache cache;
        if (Status st = cache.open(dir + "/cache"); !st.isOk())
            return fail("cache re-open: " + st.toString());
        Expected<CacheEntry> hit = cache.lookup(victimKey());
        if (!hit.ok() && hit.status().code() != StatusCode::NotFound &&
            hit.status().code() != StatusCode::Corrupt) {
            return fail("cache lookup: " + hit.status().toString());
        }
        CacheEntry entry;
        entry.label = "probe";
        entry.seconds = 1.0;
        entry.metrics = victimMetrics(1);
        if (Status st = cache.store(victimKey(), entry); !st.isOk())
            return fail("post-crash store: " + st.toString());
        Expected<CacheEntry> back = cache.lookup(victimKey());
        if (!back.ok())
            return fail("post-crash read-back: " +
                        back.status().toString());
        if (back.value().label != "probe")
            return fail("post-crash read-back returned stale data");
    }

    res.recovered = true;
    return res;
}

std::vector<CrashSiteResult>
runCrashMatrix(const std::vector<std::string> &victim_argv,
               const std::string &scratch)
{
    std::vector<CrashSiteResult> results;
    for (const std::string &site : crashPointSites()) {
        std::string dir = scratch + "/" + site;
        for (char &c : dir) {
            if (c == '.')
                c = '_';
        }
        results.push_back(runCrashSite(site, victim_argv, dir));
    }
    return results;
}

bool
crashMatrixPassed(const std::vector<CrashSiteResult> &results)
{
    if (results.empty())
        return false;
    for (const CrashSiteResult &res : results) {
        if (!res.crashed || !res.recovered)
            return false;
    }
    return true;
}

} // namespace xbs
