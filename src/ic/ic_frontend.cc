#include "ic/ic_frontend.hh"

namespace xbs
{

IcFrontend::IcFrontend(const FrontendParams &params)
    : Frontend("ic", params)
{
}

void
IcFrontend::registerPhases(PhaseProfiler *prof)
{
    if (prof)
        phFetch_ = prof->definePhase("fetch");
    pipe_.attachProfiler(prof, phFetch_);
}

Frontend::Delivery
IcFrontend::deliveryCycle(const Trace &trace)
{
    const std::size_t first = loop_.rec;
    LegacyPipe::Result r;
    {
        ScopedPhase timer(prof_, phFetch_);
        r = pipe_.cycle(trace, loop_.rec);
    }
    for (std::size_t i = first; i < loop_.rec; ++i)
        oracleConsume(i, kNoTarget, 0);
    // The IC baseline has no decoded-cache structure; count its
    // supply as "delivery" so bandwidth() reports its uops/cycle.
    metrics_.deliveryUops += r.uops;
    metrics_.renamedUops += r.uops;
    loop_.stall += r.stall;
    return Delivery::Counted;
}

} // namespace xbs
