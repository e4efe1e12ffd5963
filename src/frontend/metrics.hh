/**
 * @file
 * Frontend metrics, shared across all five frontends (IC, DC, TC,
 * BBTC, XBC) and charged by the one cycle loop in Frontend::run, so
 * the bench harnesses can compare them uniformly.
 *
 * The two headline metrics of the paper:
 *  - uop bandwidth: deliveryUops / deliveryCycles (delivery mode
 *    only, "defined only for hits");
 *  - uop miss rate: buildUops / (buildUops + deliveryUops), i.e. the
 *    percentage of uops that had to be brought from the IC path.
 */

#ifndef XBS_FRONTEND_METRICS_HH
#define XBS_FRONTEND_METRICS_HH

#include "common/stats.hh"

namespace xbs
{

class FrontendMetrics : public StatGroup
{
  public:
    explicit FrontendMetrics(StatGroup *parent = nullptr)
        : StatGroup("frontend", parent)
    {
    }

    ScalarStat cycles{this, "cycles", "total simulated cycles"};
    ScalarStat deliveryCycles{this, "deliveryCycles",
        "cycles spent in delivery mode (incl. buffer drain)"};
    ScalarStat buildCycles{this, "buildCycles",
        "cycles spent in build mode"};
    ScalarStat stallCycles{this, "stallCycles",
        "fetch-silent cycles (mispredict bubbles, IC misses)"};

    ScalarStat deliveryUops{this, "deliveryUops",
        "uops supplied by the decoded-cache structure"};
    ScalarStat renamedUops{this, "renamedUops",
        "uops passed to the renamer during counted delivery cycles"};
    ScalarStat buildUops{this, "buildUops",
        "uops supplied by the legacy IC path"};

    ScalarStat condBranches{this, "condBranches",
        "dynamic conditional branches"};
    ScalarStat condMispredicts{this, "condMispredicts",
        "mispredicted conditional branches"};
    ScalarStat indirectBranches{this, "indirectBranches",
        "dynamic indirect jumps/calls"};
    ScalarStat indirectMispredicts{this, "indirectMispredicts",
        "mispredicted indirect targets"};
    ScalarStat returns{this, "returns", "dynamic returns"};
    ScalarStat returnMispredicts{this, "returnMispredicts",
        "mispredicted return targets"};

    ScalarStat btbMisses{this, "btbMisses",
        "taken direct transfers missing in the BTB"};
    ScalarStat icAccesses{this, "icAccesses",
        "instruction cache line accesses"};
    ScalarStat icMisses{this, "icMisses",
        "instruction cache line misses"};
    ScalarStat l2Misses{this, "l2Misses",
        "code fetches missing the L2 as well"};

    ScalarStat modeSwitches{this, "modeSwitches",
        "delivery->build transitions"};

    /// Trace position (records consumed so far); monotone like every
    /// other counter here so interval deltas stay exact. Feeds the
    /// records/sec throughput rate (src/prof).
    ScalarStat traceRecords{this, "traceRecords",
        "dynamic trace records consumed"};

    /// @{ Derived statistics: the same quantities as the accessor
    ///    functions below, registered so dump()/dumpJson() output and
    ///    StatGroup::find include the headline metrics directly.
    FormulaStat bandwidthStat{this, "bandwidth",
        "delivery-mode uop bandwidth (renamedUops/deliveryCycles)",
        [this] { return bandwidth(); }};
    FormulaStat missRateStat{this, "missRate",
        "fraction of uops supplied by the legacy IC path",
        [this] { return missRate(); }};
    FormulaStat overallIpcStat{this, "overallIpc",
        "uops per cycle over all simulated cycles",
        [this] { return overallIpc(); }};
    FormulaStat condMispredictRateStat{this, "condMispredictRate",
        "conditional branch misprediction rate",
        [this] { return condMispredictRate(); }};
    /// @}

    /**
     * Delivery-mode uop bandwidth (the paper's Figure 8 metric):
     * uops crossing into the renamer per delivery-mode cycle,
     * excluding disruptive-event bubbles (which belong to the
     * transition phases, per [Mich99]).
     */
    double
    bandwidth() const
    {
        return deliveryCycles.value()
                   ? (double)renamedUops.value() /
                         (double)deliveryCycles.value()
                   : 0.0;
    }

    /** Fraction of uops brought from the IC (Figure 9/10 metric). */
    double
    missRate() const
    {
        uint64_t total = deliveryUops.value() + buildUops.value();
        return total ? (double)buildUops.value() / (double)total : 0.0;
    }

    /** Overall uops per cycle, counting every simulated cycle. */
    double
    overallIpc() const
    {
        uint64_t total = deliveryUops.value() + buildUops.value();
        return cycles.value()
                   ? (double)total / (double)cycles.value()
                   : 0.0;
    }

    /** Conditional branch misprediction rate. */
    double
    condMispredictRate() const
    {
        return condBranches.value()
                   ? (double)condMispredicts.value() /
                         (double)condBranches.value()
                   : 0.0;
    }
};

} // namespace xbs

#endif // XBS_FRONTEND_METRICS_HH
