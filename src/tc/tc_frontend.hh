/**
 * @file
 * Trace-cache frontend (paper section 2.3): build mode fetches from
 * the legacy IC path while the fill unit assembles traces; delivery
 * mode supplies whole traces per cycle through a decoupling fetch
 * buffer drained at renamer bandwidth.
 */

#ifndef XBS_TC_TC_FRONTEND_HH
#define XBS_TC_TC_FRONTEND_HH

#include "frontend/frontend.hh"
#include "tc/fill_unit.hh"
#include "tc/trace_cache.hh"

namespace xbs
{

/** TC-specific configuration. */
struct TcParams
{
    unsigned capacityUops = 32768;  ///< total uop capacity
    unsigned ways = 4;              ///< associativity (paper: 4)
    TraceLimits limits;             ///< 16 uops, 3 branches

    /** Keep building traces while in delivery mode as well
     *  (the basic model the paper compares against does not). */
    bool buildInDelivery = false;

    /**
     * Path associativity ([Jaco97] extension): allow several traces
     * with the same starting IP, distinguished by their embedded
     * paths, instead of the basic model's replace-on-conflict. The
     * frontend then selects the resident trace that matches the
     * predicted path best.
     */
    bool pathAssociative = false;
};

class TcFrontend final : public Frontend
{
  public:
    TcFrontend(const FrontendParams &params, const TcParams &tc_params);

    const TraceCache &cache() const { return tc_; }
    const TcParams &tcParams() const { return tcParams_; }

    /** Uops supplied by partially matching traces. */
    uint64_t partialHitUops() const { return partialHitUops_; }

  private:
    /// @{ Checkpoint hooks: the "tc" section's structures.
    const char *ckptSection() const override { return "tc"; }
    void saveStructure(CkptSink &sink) const override;
    void loadStructure(CkptSource &src) override;
    /// @}

    /// @{ Cycle-loop hooks.
    void startRun(const Trace &trace, bool cold) override;
    Delivery deliveryCycle(const Trace &trace) override;
    bool fillRecord(const Trace &trace, std::size_t i,
                    bool last) override;
    bool exitBuild(const Trace &trace, std::size_t rec,
                   bool completed) override;
    /// @}

    /**
     * Supply one resident trace line along the actual path.
     * Advances @p rec; returns uops supplied and sets @p stall.
     */
    unsigned supplyLine(const Trace &trace, const TraceLine &line,
                        std::size_t &rec, unsigned &stall);

    /** Pick the trace to supply at record @p rec (path-associative
     *  selection when enabled, plain lookup otherwise). */
    const TraceLine *selectLine(const Trace &trace, std::size_t rec);

    TcParams tcParams_;
    TraceCache tc_;
    TcFillUnit fill_;
    uint64_t partialHitUops_ = 0;
};

} // namespace xbs

#endif // XBS_TC_TC_FRONTEND_HH
