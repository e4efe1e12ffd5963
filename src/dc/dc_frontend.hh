/**
 * @file
 * Decoded-cache frontend (paper section 2.2): uops are supplied
 * without decode latency, but the structure is still indexed by
 * instruction address, so bandwidth stays IC-like (one sequential
 * run per cycle, ending at every taken transfer) and fragmentation
 * costs hit rate.
 */

#ifndef XBS_DC_DC_FRONTEND_HH
#define XBS_DC_DC_FRONTEND_HH

#include "dc/decoded_cache.hh"
#include "frontend/frontend.hh"

namespace xbs
{

class DcFrontend final : public Frontend
{
  public:
    DcFrontend(const FrontendParams &params,
               const DecodedCacheParams &dc_params);

    const DecodedCache &cache() const { return dc_; }

  private:
    /// @{ Checkpoint hooks: the "dc" section's structures.
    const char *ckptSection() const override { return "dc"; }
    void saveStructure(CkptSink &sink) const override;
    void loadStructure(CkptSource &src) override;
    /// @}

    /// @{ Cycle-loop hooks.
    Delivery deliveryCycle(const Trace &trace) override;
    bool fillRecord(const Trace &trace, std::size_t i,
                    bool last) override;
    bool exitBuild(const Trace &trace, std::size_t rec,
                   bool completed) override;
    /// @}

    /**
     * Supply one sequential run from the decoded cache.
     * @return uops supplied; 0 with @p miss set on a lookup miss
     */
    unsigned supplyRun(const Trace &trace, std::size_t &rec,
                       unsigned &stall, bool &miss);

    DecodedCacheParams dcParams_;
    DecodedCache dc_;
};

} // namespace xbs

#endif // XBS_DC_DC_FRONTEND_HH
