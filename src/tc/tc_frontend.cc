#include "tc/tc_frontend.hh"

#include "common/logging.hh"
#include "frontend/control.hh"

namespace xbs
{

TcFrontend::TcFrontend(const FrontendParams &params,
                       const TcParams &tc_params)
    : Frontend("tc", params), tcParams_(tc_params),
      tc_(tc_params.capacityUops, tc_params.ways, tc_params.limits,
          &root_, &probes_),
      fill_(tc_params.limits)
{
}

const TraceLine *
TcFrontend::selectLine(const Trace &trace, std::size_t rec)
{
    if (!tcParams_.pathAssociative)
        return tc_.lookup(trace.inst(rec).ip);

    // Path-associative selection: among the same-IP candidates, take
    // the one whose embedded path matches the actual path longest
    // (a perfect next-trace selector, the upper bound of [Jaco97]).
    auto candidates = tc_.lookupAll(trace.inst(rec).ip);
    const TraceLine *best = nullptr;
    std::size_t best_match = 0;
    for (const TraceLine *l : candidates) {
        std::size_t m = 0;
        for (; m < l->insts.size() &&
               rec + m < trace.numRecords(); ++m) {
            if (trace.record(rec + m).staticIdx !=
                l->insts[m].staticIdx) {
                break;
            }
        }
        if (!best || m > best_match) {
            best = l;
            best_match = m;
        }
    }
    if (best)
        tc_.touch(best);
    return best;
}

unsigned
TcFrontend::supplyLine(const Trace &trace, const TraceLine &line,
                       std::size_t &rec, unsigned &stall)
{
    unsigned supplied = 0;
    bool full_match = true;
    attrib_.clearDisruption();

    for (const auto &e : line.insts) {
        if (rec >= trace.numRecords())
            break;
        if (trace.record(rec).staticIdx != e.staticIdx) {
            // The resident trace was built along a different path
            // than the one executing now: partial hit.
            full_match = false;
            attrib_.noteDisruption(Cause::PartialHit);
            break;
        }

        const StaticInst &si = trace.inst(rec);
        const bool actual_taken = trace.record(rec).taken != 0;
        unsigned penalty = 0;
        bool trace_diverges = false;

        if (si.isControl()) {
            penalty = predictControl(params_, metrics_, preds_, trace,
                                     rec, /*legacy_path=*/false,
                                     &attrib_);
            if (si.cls == InstClass::CondBranch && penalty == 0 &&
                (e.taken != 0) != actual_taken) {
                // Predictor right, embedded path wrong: supply stops
                // after the branch, next lookup resumes at the
                // actual target. No bubble: the disagreement is
                // known at prediction time.
                trace_diverges = true;
            }
        }

        oracleConsume(rec, e.staticIdx, si.numUops);
        supplied += si.numUops;
        ++rec;

        if (penalty > 0) {
            stall += penalty;
            full_match = false;
            break;
        }
        if (trace_diverges) {
            full_match = false;
            attrib_.noteDisruption(Cause::PartialHit);
            break;
        }
    }

    if (!full_match)
        partialHitUops_ += supplied;
    return supplied;
}

void
TcFrontend::saveStructure(CkptSink &sink) const
{
    tc_.ckptSave(sink);
    fill_.ckptSave(sink);
    sink.u64(partialHitUops_);
}

void
TcFrontend::loadStructure(CkptSource &src)
{
    tc_.ckptLoad(src);
    fill_.ckptLoad(src);
    partialHitUops_ = src.u64();
}

void
TcFrontend::startRun(const Trace &, bool cold)
{
    if (cold)
        fill_.restart();
}

Frontend::Delivery
TcFrontend::deliveryCycle(const Trace &trace)
{
    if (loop_.buffer >= params_.renamerWidth ||
        loop_.rec >= trace.numRecords()) {
        return Delivery::Counted;
    }
    ScopedPhase arrayTimer(prof_, phArray_);
    const TraceLine *line = selectLine(trace, loop_.rec);
    if (!line) {
        if (loop_.buffer > 0)
            return Delivery::Counted;
        fill_.restart();
        return switchToBuild(Cause::StructMiss, Delivery::BuildNow);
    }
    const std::size_t first = loop_.rec;
    unsigned got = supplyLine(trace, *line, loop_.rec, loop_.stall);
    metrics_.deliveryUops += got;
    loop_.buffer += got;
    if (tcParams_.buildInDelivery) {
        // [Frie97]-style alternative fill policy: keep (re)building
        // traces from the supplied stream so partial-hit paths get
        // their own traces without a build-mode excursion.
        for (std::size_t i = first; i < loop_.rec; ++i)
            fillRecord(trace, i, i + 1 == loop_.rec);
    }
    return Delivery::Counted;
}

bool
TcFrontend::fillRecord(const Trace &trace, std::size_t i, bool)
{
    return fill_.feed(trace, i, [&](const TraceLine &l) {
        tc_.insert(l, trace.code(), tcParams_.pathAssociative);
    });
}

bool
TcFrontend::exitBuild(const Trace &trace, std::size_t rec,
                      bool completed)
{
    return completed && rec < trace.numRecords() &&
           tc_.lookup(trace.inst(rec).ip);
}

} // namespace xbs
