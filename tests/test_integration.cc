/**
 * @file
 * Cross-module integration tests: the paper's headline relationships
 * must hold end-to-end on catalog workloads for all five frontends,
 * across a parameterized sample of the catalog; the shared cycle
 * loop must reproduce pinned exact counters and honour the stop
 * flag on every frontend.
 */

#include <gtest/gtest.h>

#include <array>
#include <csignal>

#include "bbtc/bbtc_frontend.hh"
#include "core/xbc_frontend.hh"
#include "dc/dc_frontend.hh"
#include "ic/ic_frontend.hh"
#include "prof/perf_counters.hh"
#include "prof/phase_profiler.hh"
#include "sim/runner.hh"
#include "tc/tc_frontend.hh"
#include "workload/catalog.hh"

namespace xbs
{
namespace
{

constexpr uint64_t kLen = 60000;

struct Fixture
{
    explicit Fixture(const std::string &name)
        : trace(makeCatalogTrace(name, kLen)), ic(fp), tc(fp, {}),
          xbc(fp, {})
    {
        ic.run(trace);
        tc.run(trace);
        xbc.run(trace);
    }

    FrontendParams fp;
    Trace trace;
    IcFrontend ic;
    TcFrontend tc;
    XbcFrontend xbc;
};

class CrossFrontend : public testing::TestWithParam<std::string>
{
};

TEST_P(CrossFrontend, AllFrontendsConserveUops)
{
    Fixture f(GetParam());
    uint64_t total = f.trace.totalUops();
    EXPECT_EQ(f.ic.metrics().deliveryUops.value(), total);
    EXPECT_EQ(f.tc.metrics().deliveryUops.value() +
                  f.tc.metrics().buildUops.value(),
              total);
    EXPECT_EQ(f.xbc.metrics().deliveryUops.value() +
                  f.xbc.metrics().buildUops.value(),
              total);
}

TEST_P(CrossFrontend, DecodedStructuresBeatIcBandwidth)
{
    Fixture f(GetParam());
    EXPECT_GT(f.tc.metrics().bandwidth(),
              f.ic.metrics().bandwidth());
    EXPECT_GT(f.xbc.metrics().bandwidth(),
              f.ic.metrics().bandwidth());
}

TEST_P(CrossFrontend, XbcRedundancyBelowTc)
{
    Fixture f(GetParam());
    EXPECT_LT(f.xbc.dataArray().redundancy(),
              f.tc.cache().redundancy());
}

TEST_P(CrossFrontend, BandwidthParityBetweenTcAndXbc)
{
    // Figure 8: "the difference between the XBC and TC bandwidth is
    // negligible". Allow a generous band per workload.
    Fixture f(GetParam());
    double tc_bw = f.tc.metrics().bandwidth();
    double xbc_bw = f.xbc.metrics().bandwidth();
    EXPECT_NEAR(tc_bw, xbc_bw, 0.30 * std::max(tc_bw, xbc_bw));
}

TEST_P(CrossFrontend, XbcInvariantsAfterFullRun)
{
    Fixture f(GetParam());
    f.xbc.dataArray().checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    SampledWorkloads, CrossFrontend,
    testing::Values("gcc", "compress", "vortex", "word", "netscape",
                    "quake2", "falcon4"));

TEST(HeadlineResult, XbcMissRateBelowTcOnSuiteAverage)
{
    // Figure 9 at 32K uops: the XBC reduces misses versus the TC.
    // Evaluated on a 6-workload sample for test-time reasons; the
    // full 21-trace version lives in bench/fig9_missrate_size.
    SuiteRunner runner(kLen, {"gcc", "li", "word", "excel", "quake2",
                              "unreal"});
    auto results = runner.sweep({
        {"tc", SimConfig::tcBaseline(32768)},
        {"xbc", SimConfig::xbcBaseline(32768)},
    });
    double tc_mr = SuiteRunner::meanMissRate(results, "tc");
    double xbc_mr = SuiteRunner::meanMissRate(results, "xbc");
    EXPECT_LT(xbc_mr, tc_mr);
}

TEST(HeadlineResult, AssociativityReducesMisses)
{
    // Figure 10 shape: direct-mapped -> 2-way must cut misses.
    SuiteRunner runner(kLen, {"word", "gcc", "quake2"});
    auto results = runner.sweep({
        {"xbc1", SimConfig::xbcBaseline(32768, 1)},
        {"xbc2", SimConfig::xbcBaseline(32768, 2)},
    });
    EXPECT_GT(SuiteRunner::meanMissRate(results, "xbc1"),
              SuiteRunner::meanMissRate(results, "xbc2"));
}

TEST(HeadlineResult, MissRateFallsWithCapacity)
{
    SuiteRunner runner(kLen, {"word", "excel"});
    auto results = runner.sweep({
        {"s8", SimConfig::xbcBaseline(8192)},
        {"s64", SimConfig::xbcBaseline(65536)},
        {"t8", SimConfig::tcBaseline(8192)},
        {"t64", SimConfig::tcBaseline(65536)},
    });
    EXPECT_GT(SuiteRunner::meanMissRate(results, "s8"),
              SuiteRunner::meanMissRate(results, "s64"));
    EXPECT_GT(SuiteRunner::meanMissRate(results, "t8"),
              SuiteRunner::meanMissRate(results, "t64"));
}

/** All five structures, conservation and sane ranges. */
struct FiveWay
{
    std::string workload;
    FrontendKind kind;
};

class AllFrontends : public testing::TestWithParam<FiveWay>
{
};

TEST_P(AllFrontends, ConservesAndStaysInRange)
{
    const auto p = GetParam();
    SimConfig config;
    config.kind = p.kind;
    auto fe = makeFrontend(config);
    Trace trace = makeCatalogTrace(p.workload, 40000);
    fe->run(trace);
    const auto &m = fe->metrics();
    EXPECT_EQ(m.deliveryUops.value() + m.buildUops.value(),
              trace.totalUops())
        << frontendKindName(p.kind);
    EXPECT_LE(m.bandwidth(), 8.0 + 1e-9);
    EXPECT_GE(m.missRate(), 0.0);
    EXPECT_LE(m.missRate(), 1.0);
    EXPECT_GT(m.cycles.value(), trace.totalUops() / 8);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllFrontends,
    testing::Values(FiveWay{"gcc", FrontendKind::Ic},
                    FiveWay{"gcc", FrontendKind::Dc},
                    FiveWay{"gcc", FrontendKind::Tc},
                    FiveWay{"gcc", FrontendKind::Bbtc},
                    FiveWay{"gcc", FrontendKind::Xbc},
                    FiveWay{"word", FrontendKind::Dc},
                    FiveWay{"word", FrontendKind::Bbtc},
                    FiveWay{"word", FrontendKind::Xbc},
                    FiveWay{"quake2", FrontendKind::Tc},
                    FiveWay{"quake2", FrontendKind::Bbtc},
                    FiveWay{"quake2", FrontendKind::Xbc}),
    [](const testing::TestParamInfo<FiveWay> &info) {
        return info.param.workload +
               std::string(frontendKindName(info.param.kind));
    });

TEST(SurveyOrdering, DecodedStructuresBeatAddressIndexed)
{
    // Section 2 taxonomy on one mid-size workload: TC-family
    // bandwidth >> IC/DC bandwidth; DC misses most (fragmentation).
    Trace trace = makeCatalogTrace("excel", kLen);
    FrontendParams fp;
    DcFrontend dc(fp, DecodedCacheParams{});
    TcFrontend tc(fp, TcParams{});
    BbtcFrontend bbtc(fp, BbtcParams{});
    XbcFrontend xbc(fp, XbcParams{});
    dc.run(trace);
    tc.run(trace);
    bbtc.run(trace);
    xbc.run(trace);

    EXPECT_GT(tc.metrics().bandwidth(),
              dc.metrics().bandwidth() + 2.0);
    EXPECT_GT(bbtc.metrics().bandwidth(),
              dc.metrics().bandwidth() + 2.0);
    EXPECT_GT(dc.metrics().missRate(), tc.metrics().missRate());
    EXPECT_GT(dc.metrics().missRate(), xbc.metrics().missRate());
}

TEST(Determinism, HostProfilingNeverPerturbsPaperMetrics)
{
    // The --perf contract: host-side observation (phase timers plus
    // the perf counter group, available or not) must leave every
    // simulated metric bit-identical across all five frontends.
    Trace trace = makeCatalogTrace("gcc", 40000);
    for (FrontendKind kind :
         {FrontendKind::Ic, FrontendKind::Dc, FrontendKind::Tc,
          FrontendKind::Bbtc, FrontendKind::Xbc}) {
        SimConfig config;
        config.kind = kind;

        auto bare = makeFrontend(config);
        bare->run(trace);

        PhaseProfiler prof(0);  // worst case: sample every entry
        PerfCounterGroup grp;
        grp.open();  // may fail on this host; attach either way
        if (grp.available())
            prof.attachPerf(&grp, 0);
        auto profiled = makeFrontend(config);
        profiled->attachProfiler(&prof);
        profiled->run(trace);

        const auto &a = bare->metrics();
        const auto &b = profiled->metrics();
        EXPECT_EQ(a.deliveryUops.value(), b.deliveryUops.value())
            << frontendKindName(kind);
        EXPECT_EQ(a.buildUops.value(), b.buildUops.value())
            << frontendKindName(kind);
        EXPECT_EQ(a.cycles.value(), b.cycles.value())
            << frontendKindName(kind);
        EXPECT_EQ(a.bandwidth(), b.bandwidth())
            << frontendKindName(kind);
        EXPECT_EQ(a.missRate(), b.missRate())
            << frontendKindName(kind);
    }
}

/** One frontend configuration and its exact end-of-run counters. */
struct PinnedRun
{
    const char *name;
    SimConfig config;
    /// cycles, deliveryCycles, buildCycles, stallCycles,
    /// deliveryUops, buildUops, renamedUops, modeSwitches,
    /// traceRecords
    std::array<uint64_t, 9> counters;
};

SimConfig
tcWithAlternativeFill()
{
    SimConfig c = SimConfig::tcBaseline(8192, 2);
    c.tc.buildInDelivery = true;
    c.tc.pathAssociative = true;
    return c;
}

// Recorded on gcc (30K instructions) from the five per-frontend
// run() loops that preceded the shared Frontend::run. The loop
// refactor had to reproduce every one of these exactly.
std::vector<PinnedRun>
pinnedRuns()
{
    return {
        {"ic", SimConfig::icBaseline(),
         {23054, 11873, 0, 11181, 49215, 0, 49215, 0, 30000}},
        {"dc", SimConfig::dcBaseline(8192),
         {23119, 8927, 3011, 11181, 38115, 11100, 38115, 1955, 30000}},
        {"tc", SimConfig::tcBaseline(8192, 2),
         {18382, 5430, 1774, 11178, 42777, 6438, 42041, 104, 30000}},
        {"tc+bid+pa", tcWithAlternativeFill(),
         {18332, 5386, 1768, 11178, 42803, 6412, 41944, 108, 30000}},
        {"bbtc", SimConfig::bbtcBaseline(8192),
         {18098, 5191, 1666, 11172, 43217, 5998, 40774, 69, 30000}},
        {"xbc", SimConfig::xbcBaseline(8192, 2),
         {18050, 5716, 997, 11337, 45897, 3318, 44921, 94, 30000}},
    };
}

TEST(PinnedCounters, ExactOnEveryFrontend)
{
    const Trace trace = makeCatalogTrace("gcc", 30000);
    for (const PinnedRun &r : pinnedRuns()) {
        auto fe = makeFrontend(r.config);
        fe->run(trace);
        const FrontendMetrics &m = fe->metrics();
        const std::array<uint64_t, 9> got = {
            m.cycles.value(),       m.deliveryCycles.value(),
            m.buildCycles.value(),  m.stallCycles.value(),
            m.deliveryUops.value(), m.buildUops.value(),
            m.renamedUops.value(),  m.modeSwitches.value(),
            m.traceRecords.value()};
        EXPECT_EQ(got, r.counters) << r.name;

        // Mode-switch timing: the BBTC loses the cycle of each
        // delivery->build switch; every other frontend turns it into
        // a build cycle, so its cycles split exactly.
        uint64_t lost = m.cycles.value() - m.deliveryCycles.value() -
                        m.buildCycles.value() - m.stallCycles.value();
        EXPECT_EQ(lost, fe->name() == "bbtc" ? m.modeSwitches.value()
                                             : 0u)
            << r.name;
    }
}

/** Raises its stop flag once the cycle counter reaches @p at. */
class StopAtCycle : public CycleObserver
{
  public:
    explicit StopAtCycle(uint64_t at) : at_(at) {}

    void
    onCycle(Frontend &, uint64_t cycle) override
    {
        if (cycle >= at_)
            flag = 1;
    }

    volatile std::sig_atomic_t flag = 0;

  private:
    uint64_t at_;
};

TEST(StopFlag, EveryFrontendReturnsAtTheRaisedCycle)
{
    // The stop poll runs after each whole cycle: the run returns
    // with the raising cycle complete, the trace unfinished, and the
    // metrics covering exactly the records it consumed.
    const Trace trace = makeCatalogTrace("gcc", 50000);
    for (const PinnedRun &r : pinnedRuns()) {
        StopAtCycle stop(5000);
        auto fe = makeFrontend(r.config);
        fe->attachStopFlag(&stop.flag);
        fe->attachCycleObserver(&stop);
        fe->run(trace);
        const FrontendMetrics &m = fe->metrics();
        EXPECT_EQ(m.cycles.value(), 5000u) << r.name;
        ASSERT_LT(m.traceRecords.value(), trace.numRecords())
            << r.name;
        uint64_t uops = 0;
        for (uint64_t i = 0; i < m.traceRecords.value(); ++i)
            uops += trace.inst(i).numUops;
        EXPECT_EQ(m.deliveryUops.value() + m.buildUops.value(), uops)
            << r.name;
    }
}

TEST(Determinism, IdenticalTracesAcrossProcessRuns)
{
    // Catalog traces must be bit-identical between constructions.
    Trace a = makeCatalogTrace("descent3", 5000);
    Trace b = makeCatalogTrace("descent3", 5000);
    ASSERT_EQ(a.numRecords(), b.numRecords());
    for (std::size_t i = 0; i < a.numRecords(); ++i) {
        ASSERT_EQ(a.record(i).staticIdx, b.record(i).staticIdx);
        ASSERT_EQ(a.record(i).taken, b.record(i).taken);
    }
}

} // anonymous namespace
} // namespace xbs
