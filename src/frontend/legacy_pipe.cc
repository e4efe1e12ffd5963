#include "frontend/legacy_pipe.hh"

#include "frontend/control.hh"

#include "common/logging.hh"

namespace xbs
{

LegacyPipe::LegacyPipe(const FrontendParams &params,
                       FrontendMetrics &metrics, PredictorBank &preds,
                       ProbeManager *probes)
    : params_(params), metrics_(metrics), preds_(preds),
      icache_(params.icCapacityBytes, params.icLineBytes,
              params.icWays),
      l2_(params.l2CapacityBytes, params.icLineBytes, params.l2Ways),
      decoder_(params.decode),
      icMissProbe_(probes, "icpipe", "icMiss"),
      resteerProbe_(probes, "icpipe", "resteer")
{
}

unsigned
LegacyPipe::handleControl(const Trace &trace, std::size_t rec)
{
    ScopedPhase timer(prof_, phPredict_);
    unsigned penalty = predictControl(params_, metrics_, preds_,
                                      trace, rec,
                                      /*legacy_path=*/true, attrib_);
    if (penalty > 0)
        resteerProbe_.fire((int64_t)penalty);
    return penalty;
}

LegacyPipe::Result
LegacyPipe::cycle(const Trace &trace, std::size_t &rec)
{
    Result res;
    unsigned bytes_used = 0;
    unsigned insts_used = 0;
    unsigned uops_used = 0;

    // The fetch block reads from a single IC line region; track which
    // lines were touched this cycle so straddles charge a second
    // access but repeated hits to the same line do not.
    uint64_t lines_touched[2] = {~0ULL, ~0ULL};
    unsigned num_lines = 0;

    while (rec < trace.numRecords()) {
        const StaticInst &si = trace.inst(rec);

        // Instruction cache access(es) for this instruction.
        uint64_t first_line = icache_.lineOf(si.ip);
        uint64_t last_line = icache_.lineOf(si.ip + si.length - 1);
        bool missed = false;
        for (uint64_t line = first_line; line <= last_line;
             line += icache_.lineBytes()) {
            if (line == lines_touched[0] || line == lines_touched[1])
                continue;
            ++metrics_.icAccesses;
            if (!icache_.access(line)) {
                ++metrics_.icMisses;
                // Fill from the unified L2; a second miss goes all
                // the way to memory.
                unsigned latency;
                Cause cause;
                if (l2_.access(line)) {
                    latency = params_.icMissLatency;
                    cause = Cause::IcMiss;
                } else {
                    ++metrics_.l2Misses;
                    latency = params_.l2MissLatency;
                    cause = Cause::L2Miss;
                }
                res.stall += latency;
                if (attrib_)
                    attrib_->noteStall(cause, latency);
                icMissProbe_.fire((int64_t)latency);
                missed = true;
            }
            if (num_lines < 2)
                lines_touched[num_lines++] = line;
        }
        if (missed) {
            // The line arrives after the stall; fetch resumes next
            // cycle with the line resident.
            break;
        }

        if (!decoder_.admit(si, bytes_used, insts_used, uops_used))
            break;

        res.uops += si.numUops;
        res.insts += 1;
        bool is_control = si.isControl();
        bool redirects = is_control &&
                         !(si.cls == InstClass::CondBranch &&
                           trace.record(rec).taken == 0);
        if (is_control)
            res.stall += handleControl(trace, rec);
        ++rec;

        // A taken transfer ends the sequential fetch block; a
        // mispredict ends the cycle outright.
        if (redirects || res.stall > 0)
            break;
    }

    return res;
}

} // namespace xbs
