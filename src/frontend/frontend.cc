#include "frontend/frontend.hh"

#include <algorithm>

namespace xbs
{

Frontend::Frontend(std::string name, const FrontendParams &params)
    : root_(std::move(name)), metrics_(&root_), params_(params),
      preds_(params_), pipe_(params_, metrics_, preds_, &probes_)
{
    probes_.setCycleSource(&metrics_.cycles);
    pipe_.attachAttrib(&attrib_);
}

namespace
{

/** Parse section @p name of @p f with @p load, which must consume it
 *  exactly; Corrupt when the section is missing or malformed. */
template <typename Load>
Status
loadSection(const CheckpointFile &f, const std::string &name,
            Load &&load)
{
    const std::string *sec = f.section(name);
    if (!sec) {
        return Status::error(StatusCode::Corrupt,
                             "checkpoint lacks the '" + name +
                                 "' section");
    }
    CkptSource src(*sec);
    Status st = load(src);
    if (!st.isOk())
        return st;
    if (!src.consumed()) {
        return Status::error(StatusCode::Corrupt,
                             "malformed checkpoint '" + name +
                                 "' section");
    }
    return Status::ok();
}

} // namespace

void
Frontend::saveState(CheckpointWriter &w) const
{
    {
        CkptSink sink;
        saveStatTree(root_, sink);
        w.addSection("stats", sink.take());
    }
    {
        CkptSink sink;
        attrib_.ckptSave(sink);
        w.addSection("attrib", sink.take());
    }
    {
        CkptSink sink;
        sink.u64(loop_.rec);
        sink.u32((uint32_t)loop_.mode);
        sink.u32(loop_.buffer);
        sink.u32(loop_.stall);
        w.addSection("loop", sink.take());
    }
    CkptSink sink;
    preds_.ckptSave(sink);
    pipe_.ckptSave(sink);
    saveStructure(sink);
    w.addSection(ckptSection(), sink.take());
}

Status
Frontend::restoreState(const CheckpointFile &f)
{
    Status st = loadSection(f, "stats", [&](CkptSource &src) {
        return loadStatTree(root_, src);
    });
    if (!st.isOk())
        return st;
    st = loadSection(f, "attrib", [&](CkptSource &src) {
        attrib_.ckptLoad(src);
        return Status::ok();
    });
    if (!st.isOk())
        return st;
    RunLoopState loop;
    st = loadSection(f, "loop", [&](CkptSource &src) {
        loop.rec = (std::size_t)src.u64();
        loop.mode = src.u32() ? Mode::Delivery : Mode::Build;
        loop.buffer = src.u32();
        loop.stall = src.u32();
        return Status::ok();
    });
    if (!st.isOk())
        return st;
    st = loadSection(f, ckptSection(), [&](CkptSource &src) {
        preds_.ckptLoad(src);
        pipe_.ckptLoad(src);
        loadStructure(src);
        return Status::ok();
    });
    if (!st.isOk())
        return st;
    loop_ = loop;
    resumePending_ = true;
    return Status::ok();
}

void
Frontend::run(const Trace &trace)
{
    const std::size_t num_records = trace.numRecords();
    RunLoopState &s = loop_;
    const bool cold = !resumePending_;
    resumePending_ = false;
    if (cold)
        s = RunLoopState{};
    startRun(trace, cold);
    if (cold && s.mode == Mode::Build)
        attrib_.enterBuild(Cause::ColdStart);

    while ((s.rec < num_records || s.buffer > 0 ||
            (s.stall > 0 && countsTrailingStall())) &&
           !stopRequested()) {
        maybeCheckpoint();
        ++metrics_.cycles;
        metrics_.traceRecords.set(s.rec);
        observeCycle();
        traceMode(s.mode);

        if (s.stall > 0) {
            // Fetch-silent bubble; the buffer keeps draining, but
            // neither the uops nor the cycle count toward the
            // steady-state bandwidth metric.
            --s.stall;
            ++metrics_.stallCycles;
            attrib_.chargeSilentCycle();
            s.buffer -= std::min(s.buffer, params_.renamerWidth);
            continue;
        }

        if (s.mode == Mode::Delivery) {
            Delivery d = deliveryCycle(trace);
            if (d == Delivery::Counted) {
                ++metrics_.deliveryCycles;
                unsigned drained =
                    std::min(s.buffer, params_.renamerWidth);
                metrics_.renamedUops += drained;
                s.buffer -= drained;
            }
            if (d != Delivery::BuildNow)
                continue;
        }
        buildCycle(trace);
    }
    metrics_.traceRecords.set(s.rec);
    traceModeDone();
}

void
Frontend::buildCycle(const Trace &trace)
{
    ++metrics_.buildCycles;
    attrib_.chargeBuildCycle();
    const std::size_t first = loop_.rec;
    ScopedPhase timer(prof_, phBuild_);
    LegacyPipe::Result r = pipe_.cycle(trace, loop_.rec);
    metrics_.buildUops += r.uops;
    attrib_.chargeBuildUops(r.uops);
    loop_.stall += r.stall;
    const std::size_t end = loop_.rec;
    bool completed = false;
    for (std::size_t i = first; i < end; ++i) {
        oracleConsume(i, kNoTarget, 0);
        completed |= fillRecord(trace, i, i + 1 == end);
    }
    if (exitBuild(trace, end, completed))
        loop_.mode = Mode::Delivery;
}

} // namespace xbs
