/**
 * @file
 * The instruction-cache baseline frontend (paper section 2.1): all
 * uops come from the legacy fetch/decode path, one sequential run per
 * cycle. It demonstrates the bandwidth ceiling the XBC and TC are
 * built to break.
 */

#ifndef XBS_IC_IC_FRONTEND_HH
#define XBS_IC_IC_FRONTEND_HH

#include "frontend/frontend.hh"

namespace xbs
{

class IcFrontend final : public Frontend
{
  public:
    explicit IcFrontend(const FrontendParams &params);

  private:
    /** The "ic" section holds only the predictor bank and the pipe. */
    const char *ckptSection() const override { return "ic"; }

    /// @{ Cycle-loop hooks: the IC never leaves delivery mode; its
    ///    delivery cycle is one legacy fetch.
    void
    startRun(const Trace &, bool) override
    {
        // Also on resume: an IC checkpoint may record mode 0 (build),
        // which the IC does not have.
        loop_.mode = Mode::Delivery;
    }
    Delivery deliveryCycle(const Trace &trace) override;
    bool countsTrailingStall() const override { return true; }
    void registerPhases(PhaseProfiler *prof) override;
    /// @}
};

} // namespace xbs

#endif // XBS_IC_IC_FRONTEND_HH
