/**
 * @file
 * Crash-point matrix: drive the durability layer through every
 * fsync/rename/append site and prove the recovery story at each.
 *
 * The hooks live in the durability code itself (common/crashpoint.hh;
 * armed via XBATCH_CRASH_AT=<site>:<n>, the victim _exit()s with
 * kCrashPointExit on the n-th visit of <site>). This harness is the
 * *driver*: for one site it forks a victim that exercises the
 * journal + result-cache write path, waits for the planted death,
 * then re-opens the state like `xbatch --resume` would and checks
 * the consistency contract:
 *
 *  - journal replay accepts the file (at most a torn tail, never a
 *    mid-file corruption);
 *  - every job id appears at most once as Final (no double counts);
 *  - every final that was ACKED before the crash point still exists
 *    (no lost results — the victim prints acked ids on stdout as it
 *    goes, fsync-ordered before the next step);
 *  - each cache entry either passes its guard hash or is demoted to
 *    a miss on lookup (never a half-entry served as a hit);
 *  - the journal accepts appends again after recovery (the log is
 *    usable, not wedged).
 *
 * runCrashMatrix() iterates every registered site; test_batch calls
 * it (in tier-1 and in the CI chaos job) with its own gtest binary
 * as the victim host.
 */

#ifndef XBS_VERIFY_CRASH_MATRIX_HH
#define XBS_VERIFY_CRASH_MATRIX_HH

#include <string>
#include <vector>

#include "common/status.hh"

namespace xbs
{

/** Outcome of one site's crash-and-recover cycle. */
struct CrashSiteResult
{
    std::string site;
    bool crashed = false;     ///< the victim died at the plant
    bool recovered = false;   ///< post-crash state passed all checks
    std::string detail;       ///< first failed check (empty if ok)
};

/**
 * The victim body: exercises every durability site at least once
 * against @p dir — appends journal events (durable and group
 * committed), stores and re-reads a cache entry, rewrites a
 * whole file atomically — printing "acked <n>" lines for work that
 * was durable before proceeding. Runs to completion (exit 0) when no
 * crash point is armed; exits kCrashPointExit mid-flight when one
 * is. Exposed so a test binary can act as the victim process.
 */
int crashVictimMain(const std::string &dir);

/**
 * Fork a victim (re-executing @p victim_argv with
 * XBATCH_CRASH_AT=<site>:1 in its environment), wait for the planted
 * death, then verify recovery of @p dir. The victim argv must invoke
 * crashVictimMain against @p dir; the literal token "{DIR}" in any
 * argv element is replaced with @p dir so one argv template serves
 * every per-site scratch directory.
 */
CrashSiteResult runCrashSite(
    const std::string &site,
    const std::vector<std::string> &victim_argv,
    const std::string &dir);

/**
 * Run runCrashSite() for every registered crash-point site (see
 * crashPointSites()), each in a fresh subdirectory of @p scratch.
 */
std::vector<CrashSiteResult> runCrashMatrix(
    const std::vector<std::string> &victim_argv,
    const std::string &scratch);

/** True when every site both crashed and recovered. */
bool crashMatrixPassed(const std::vector<CrashSiteResult> &results);

} // namespace xbs

#endif // XBS_VERIFY_CRASH_MATRIX_HH
