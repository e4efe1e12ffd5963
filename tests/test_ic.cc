/**
 * @file
 * Unit tests for the legacy path: instruction cache geometry/LRU,
 * the fetch/decode pipeline, and the IC baseline frontend.
 */

#include <gtest/gtest.h>

#include "frontend/predictors.hh"
#include "ic/ic_frontend.hh"
#include "frontend/inst_cache.hh"
#include "frontend/legacy_pipe.hh"
#include "test_helpers.hh"
#include "workload/catalog.hh"

namespace xbs
{
namespace
{

TEST(InstCache, HitAfterFill)
{
    InstCache ic(1024, 64, 2);
    EXPECT_FALSE(ic.access(0x100));  // compulsory miss, fills
    EXPECT_TRUE(ic.access(0x100));
    EXPECT_TRUE(ic.access(0x13f));   // same 64B line
    EXPECT_FALSE(ic.access(0x140));  // next line
}

TEST(InstCache, Geometry)
{
    InstCache ic(64 * 1024, 64, 4);
    EXPECT_EQ(ic.numSets(), 256u);
    EXPECT_EQ(ic.lineBytes(), 64u);
    EXPECT_EQ(ic.lineOf(0x12345), 0x12340u);
}

TEST(InstCache, LruEvictsOldest)
{
    // 2 sets x 2 ways x 64B: lines mapping to set 0 are multiples of
    // 128.
    InstCache ic(256, 64, 2);
    EXPECT_EQ(ic.numSets(), 2u);
    ic.access(0x000);
    ic.access(0x080);
    ic.access(0x000);        // refresh
    ic.access(0x100);        // evicts 0x080
    EXPECT_TRUE(ic.contains(0x000));
    EXPECT_FALSE(ic.contains(0x080));
    EXPECT_TRUE(ic.contains(0x100));
}

TEST(InstCache, ContainsDoesNotFill)
{
    InstCache ic(1024, 64, 2);
    EXPECT_FALSE(ic.contains(0x200));
    EXPECT_FALSE(ic.contains(0x200));
    EXPECT_FALSE(ic.access(0x200));
    EXPECT_TRUE(ic.contains(0x200));
}

struct PipeFixture : public testing::Test
{
    PipeFixture()
        : metrics(nullptr), preds(params),
          pipe(params, metrics, preds)
    {
    }

    FrontendParams params;
    FrontendMetrics metrics;
    PredictorBank preds;
    LegacyPipe pipe;
};

TEST_F(PipeFixture, StraightLineRespectsDecodeWidth)
{
    CodeBuilder cb;
    std::vector<std::pair<int32_t, bool>> path;
    for (int i = 0; i < 8; ++i)
        path.push_back({cb.seq(1, 2), false});
    path.push_back({cb.cond(0, 1), false});
    auto trace = makeTestTrace(cb.finalize(), path);

    std::size_t rec = 0;
    pipe.cycle(trace, rec);  // absorb the compulsory IC miss
    ASSERT_EQ(rec, 0u);
    auto r = pipe.cycle(trace, rec);
    // decodeWidth defaults to 4 instructions per cycle.
    EXPECT_EQ(r.insts, params.decode.decodeWidth);
    EXPECT_EQ(rec, (std::size_t)params.decode.decodeWidth);
}

TEST_F(PipeFixture, TakenBranchEndsFetchBlock)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    int32_t br = cb.cond(3);
    int32_t skip = cb.seq();
    int32_t tgt = cb.seq();
    (void)skip;
    cb.jump(0);
    auto trace = makeTestTrace(cb.finalize(),
                               {{a, 0}, {br, true}, {tgt, 0}});

    std::size_t rec = 0;
    pipe.cycle(trace, rec);  // absorb the compulsory IC miss
    auto r = pipe.cycle(trace, rec);
    // The taken branch ends the block: only a and br consumed.
    EXPECT_EQ(r.insts, 2u);
    EXPECT_EQ(rec, 2u);
    (void)r;
}

TEST_F(PipeFixture, IcMissChargesLatencyOnce)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    int32_t b = cb.seq();
    cb.jump(0);
    auto trace = makeTestTrace(cb.finalize(), {{a, 0}, {b, 0}});

    std::size_t rec = 0;
    auto r = pipe.cycle(trace, rec);
    // Cold IC and cold L2: the first access goes to memory.
    EXPECT_EQ(r.insts, 0u);
    EXPECT_EQ(r.stall, params.l2MissLatency);
    EXPECT_EQ(metrics.icMisses.value(), 1u);
    EXPECT_EQ(metrics.l2Misses.value(), 1u);

    auto r2 = pipe.cycle(trace, rec);
    EXPECT_GT(r2.insts, 0u);
    EXPECT_EQ(metrics.icMisses.value(), 1u);
}

TEST_F(PipeFixture, L2HitIsCheaperThanMemory)
{
    // Two lines far apart in the same IC set thrash the IC but stay
    // resident in the larger L2, so re-misses cost icMissLatency.
    CodeBuilder cb;
    int32_t a = cb.seq();
    cb.jump(0);
    auto trace_a = makeTestTrace(cb.finalize(), {{a, 0}});

    std::size_t rec = 0;
    auto cold = pipe.cycle(trace_a, rec);
    EXPECT_EQ(cold.stall, params.l2MissLatency);

    // Evict the line from the IC only (different tags, same set:
    // stride = icCapacity / ways).
    uint64_t ip = trace_a.inst(0).ip;
    unsigned stride = params.icCapacityBytes / params.icWays;
    for (unsigned w = 0; w <= params.icWays; ++w)
        pipe.icache().access(ip + (uint64_t)(w + 1) * stride);
    ASSERT_FALSE(pipe.icache().contains(ip));

    rec = 0;
    auto warm = pipe.cycle(trace_a, rec);
    EXPECT_EQ(warm.stall, params.icMissLatency);  // L2 hit
    EXPECT_EQ(metrics.l2Misses.value(), 1u);
}

TEST_F(PipeFixture, MispredictChargesPenalty)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    int32_t br = cb.cond(3);
    (void)cb.seq();
    int32_t tgt = cb.seq();
    cb.jump(0);
    // Make the branch alternate so the cold predictor misses at
    // least once.
    std::vector<std::pair<int32_t, bool>> path;
    for (int i = 0; i < 12; ++i) {
        path.push_back({a, false});
        path.push_back({br, true});
        path.push_back({tgt, false});
    }
    auto trace = makeTestTrace(cb.finalize(), path);

    std::size_t rec = 0;
    uint64_t stalls = 0;
    while (rec < trace.numRecords()) {
        auto r = pipe.cycle(trace, rec);
        stalls += r.stall;
    }
    EXPECT_GT(metrics.condBranches.value(), 0u);
    // Early cold mispredicts and/or BTB misses must cost something.
    EXPECT_GT(stalls, 0u);
}

TEST(IcFrontend, SuppliesEveryUop)
{
    Trace trace = makeCatalogTrace("compress", 20000);
    FrontendParams fp;
    IcFrontend fe(fp);
    fe.run(trace);
    EXPECT_EQ(fe.metrics().deliveryUops.value(), trace.totalUops());
    EXPECT_GT(fe.metrics().cycles.value(), 0u);
    // Decode-limited bandwidth: above 1, below the uop width.
    EXPECT_GT(fe.metrics().bandwidth(), 1.0);
    EXPECT_LE(fe.metrics().bandwidth(),
              (double)fp.decode.uopWidth);
}

TEST(IcFrontend, BandwidthBelowDecodedStructures)
{
    // The motivating claim: a single-ported IC cannot sustain the
    // renamer width because fetch ends at every taken transfer.
    Trace trace = makeCatalogTrace("word", 20000);
    FrontendParams fp;
    IcFrontend fe(fp);
    fe.run(trace);
    EXPECT_LT(fe.metrics().bandwidth(), 6.0);
}

} // anonymous namespace
} // namespace xbs
