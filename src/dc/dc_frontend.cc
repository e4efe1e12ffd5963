#include "dc/dc_frontend.hh"

#include "frontend/control.hh"

namespace xbs
{

DcFrontend::DcFrontend(const FrontendParams &params,
                       const DecodedCacheParams &dc_params)
    : Frontend("dcfe", params), dcParams_(dc_params),
      dc_(dcParams_, &root_)
{
}

unsigned
DcFrontend::supplyRun(const Trace &trace, std::size_t &rec,
                      unsigned &stall, bool &miss)
{
    miss = false;
    unsigned supplied = 0;
    const DecodedCache::Line *line = nullptr;
    uint64_t cur_window = ~0ULL;

    while (rec < trace.numRecords() &&
           supplied < params_.renamerWidth) {
        const StaticInst &si = trace.inst(rec);
        uint64_t window = dc_.windowOf(si.ip);
        if (window != cur_window) {
            if (cur_window != ~0ULL) {
                // A sequential run may cross into the next window
                // only once per cycle (single-ported array).
                break;
            }
            auto [l, pos] = dc_.lookup(si.ip,
                                       trace.record(rec).staticIdx);
            (void)pos;
            if (!l) {
                miss = supplied == 0;
                break;
            }
            attrib_.clearDisruption();
            line = l;
            cur_window = window;
        } else {
            // Same window: the instruction must be present in the
            // line (fragmentation drops punch holes).
            bool present = false;
            for (const auto &di : line->insts) {
                if (di.staticIdx == trace.record(rec).staticIdx) {
                    present = true;
                    break;
                }
            }
            if (!present) {
                miss = supplied == 0;
                break;
            }
        }

        if (supplied + si.numUops > params_.renamerWidth)
            break;

        oracleConsume(rec, trace.record(rec).staticIdx, si.numUops);
        supplied += si.numUops;
        bool redirects = si.isControl() &&
                         !(si.cls == InstClass::CondBranch &&
                           trace.record(rec).taken == 0);
        if (si.isControl()) {
            stall += predictControl(params_, metrics_, preds_, trace,
                                    rec, /*legacy_path=*/true,
                                    &attrib_);
        }
        ++rec;
        if (redirects || stall > 0)
            break;
    }
    return supplied;
}

void
DcFrontend::saveStructure(CkptSink &sink) const
{
    dc_.ckptSave(sink);
}

void
DcFrontend::loadStructure(CkptSource &src)
{
    dc_.ckptLoad(src);
}

Frontend::Delivery
DcFrontend::deliveryCycle(const Trace &trace)
{
    bool miss = false;
    unsigned got;
    {
        ScopedPhase timer(prof_, phArray_);
        got = supplyRun(trace, loop_.rec, loop_.stall, miss);
    }
    if (miss)
        return switchToBuild(Cause::StructMiss, Delivery::BuildNow);
    // No decoupling buffer: the run goes straight to the renamer.
    metrics_.deliveryUops += got;
    metrics_.renamedUops += got;
    return Delivery::Counted;
}

bool
DcFrontend::fillRecord(const Trace &trace, std::size_t i, bool)
{
    dc_.fill(trace.inst(i), trace.record(i).staticIdx);
    return false;
}

bool
DcFrontend::exitBuild(const Trace &trace, std::size_t rec, bool)
{
    // Return to delivery as soon as the next instruction's window is
    // cached (no trace/XB build boundary here).
    return rec < trace.numRecords() &&
           dc_.lookup(trace.inst(rec).ip, trace.record(rec).staticIdx)
               .first;
}

} // namespace xbs
