/**
 * @file
 * Frontend base class: a structure that consumes a dynamic trace and
 * reports cycle/uop metrics. Concrete implementations are IcFrontend,
 * DcFrontend, TcFrontend, BbtcFrontend and XbcFrontend.
 *
 * The base class owns the one cycle loop (run()) together with what
 * every frontend shares: the predictor bank, the legacy fetch/decode
 * pipe and its build cycle, the stall bubble, the renamer drain,
 * checkpoint parking and per-cycle observation. A concrete frontend
 * supplies the delivery cycle of its decoded structure and the fill
 * of that structure from build-mode records (see the hooks below and
 * docs/MODEL.md, "The per-cycle contract").
 *
 * The simulator is trace-driven with oracle resteer: the frontend
 * always follows the actual dynamic path, consults its predictors
 * along it, and charges penalty bubbles whenever a prediction
 * disagrees with the actual outcome. This matches the methodology of
 * standalone frontend studies (hit rates and bandwidth are exact;
 * wrong-path fetch effects are out of scope, as in the paper).
 *
 * Observability: every frontend owns a ProbeManager that its
 * components register named probe points with (attach an
 * EventTraceSink to capture a timeline) and accepts an
 * IntervalSampler for windowed statistics. Both are pay-for-use:
 * with nothing attached, the per-cycle cost is one branch each.
 */

#ifndef XBS_FRONTEND_FRONTEND_HH
#define XBS_FRONTEND_FRONTEND_HH

#include <algorithm>
#include <csignal>
#include <functional>
#include <string>
#include <vector>

#include "attrib/recorder.hh"
#include "ckpt/checkpoint.hh"
#include "common/interval_stats.hh"
#include "common/probe.hh"
#include "common/stats.hh"
#include "frontend/legacy_pipe.hh"
#include "frontend/metrics.hh"
#include "frontend/oracle.hh"
#include "frontend/params.hh"
#include "frontend/predictors.hh"
#include "prof/phase_profiler.hh"
#include "trace/trace.hh"

namespace xbs
{

class Frontend;

/**
 * Per-cycle observer ticked from the run loop right after the cycle
 * counter advances. The invariant auditor and the
 * fault injectors (src/verify) hang off this; with none attached the
 * cost is one branch per cycle.
 */
class CycleObserver
{
  public:
    virtual ~CycleObserver() = default;
    virtual void onCycle(Frontend &fe, uint64_t cycle) = 0;
};

class Frontend
{
  public:
    Frontend(std::string name, const FrontendParams &params);

    virtual ~Frontend() = default;

    Frontend(const Frontend &) = delete;
    Frontend &operator=(const Frontend &) = delete;

    /**
     * Simulate the trace, accumulating metrics: the one cycle loop
     * every frontend runs. Resumes from a restored checkpoint when
     * one is queued, else cold-starts; returns at the end of the
     * trace or once the attached stop flag is raised.
     */
    void run(const Trace &trace);

    /** Human-readable structure name ("ic", "tc", "xbc"). */
    const std::string &name() const { return root_.statName(); }

    const FrontendMetrics &metrics() const { return metrics_; }
    FrontendMetrics &metrics() { return metrics_; }

    /** Root stat group (frontends hang structure stats below it). */
    StatGroup &statRoot() { return root_; }
    const StatGroup &statRoot() const { return root_; }

    const FrontendParams &params() const { return params_; }

    /** Probe registry; attach a sink here to capture event traces. */
    ProbeManager &probes() { return probes_; }
    const ProbeManager &probes() const { return probes_; }

    /** Root-cause attribution recorder (src/attrib). */
    AttribRecorder &attrib() { return attrib_; }
    const AttribRecorder &attrib() const { return attrib_; }

    /** XBC structure accounting, when this frontend has one. */
    virtual const ArrayAccounting *arrayAccounting() const
    {
        return nullptr;
    }

    /** Attach (or detach, with nullptr) an interval sampler ticked
     *  once per simulated cycle during run(). */
    void attachSampler(IntervalSampler *sampler)
    {
        sampler_ = sampler;
    }

    /**
     * Attach an external stop request (typically a sig_atomic_t set
     * by a SIGINT/SIGTERM handler; see common/signals.hh). The run
     * loop polls it at each cycle boundary and returns early when it
     * goes nonzero, leaving metrics and observation state consistent
     * so a supervisor-terminated job still flushes usable partial
     * output. nullptr detaches.
     */
    void attachStopFlag(const volatile std::sig_atomic_t *flag)
    {
        stopFlag_ = flag;
    }

    /** True once the attached stop flag has been raised. */
    bool stopRequested() const
    {
        return stopFlag_ && *stopFlag_ != 0;
    }

    /// @{ Verification hooks (src/verify): per-cycle observers and
    ///    the delivery oracle the supply paths report records to.
    void
    attachCycleObserver(CycleObserver *obs)
    {
        if (obs && std::find(observers_.begin(), observers_.end(),
                             obs) == observers_.end()) {
            observers_.push_back(obs);
        }
    }

    void
    detachCycleObserver(CycleObserver *obs)
    {
        observers_.erase(std::remove(observers_.begin(),
                                     observers_.end(), obs),
                         observers_.end());
    }

    /** Attach (or detach, with nullptr) the delivery oracle. The
     *  caller owns it and calls begin()/finish() around run(). */
    void attachOracle(DeliveryOracle *oracle) { oracle_ = oracle; }
    DeliveryOracle *oracle() { return oracle_; }
    /// @}

    /**
     * Attach (or detach, with nullptr) a host-time phase profiler
     * (src/prof). Defines the phases this frontend's loop enters —
     * build (legacy pipe + fill) and array (decoded-structure
     * delivery), or fetch for the IC baseline — with the legacy
     * pipe's "predict" sub-phase below the pipe's phase.
     * Detached, every instrumented scope costs one branch.
     */
    void
    attachProfiler(PhaseProfiler *prof)
    {
        prof_ = prof;
        phFetch_ = phBuild_ = phArray_ = PhaseProfiler::kNoPhase;
        registerPhases(prof);
    }

    PhaseProfiler *profiler() { return prof_; }

    /**
     * Flush observation state after run(): emits the sampler's final
     * partial window. Drivers that attached a sampler call this once
     * per run before reading the outputs.
     */
    void
    finishObservation()
    {
        if (sampler_)
            sampler_->finish(metrics_.cycles.value());
    }

    /// @{ Warm-state checkpoint/restore (src/ckpt).

    /** Callback fired at the checkpoint cycle, with the run loop
     *  parked at a cycle boundary; typically serializes the frontend
     *  via saveState() and writes the container to disk. */
    using CkptHook = std::function<Status(Frontend &)>;

    /**
     * Arm a one-shot checkpoint: the first cycle boundary at or
     * after @p cycle fires @p hook (">=", not "==": a run resumed
     * past @p cycle fires at its first boundary). The run then
     * continues normally — cutting a live-point does not perturb
     * the simulated outcome.
     */
    void
    armCheckpoint(uint64_t cycle, CkptHook hook)
    {
        ckptAt_ = cycle;
        ckptHook_ = std::move(hook);
        ckptArmed_ = true;
        ckptTaken_ = false;
        ckptStatus_ = Status::ok();
    }

    bool checkpointArmed() const { return ckptArmed_; }

    /** True once an armed checkpoint has fired during run(). */
    bool checkpointTaken() const { return ckptTaken_; }

    /** Outcome of the checkpoint hook (ok until fired). */
    const Status &checkpointStatus() const { return ckptStatus_; }

    /**
     * Serialize the complete warm state into @p w: the sections every
     * frontend shares — "stats" (the whole stat tree, including
     * cycle/uop metrics), "attrib" (the attribution recorder) and
     * "loop" (the run-loop state) — then the frontend's own section
     * (ckptSection()): the predictor bank, the legacy pipe and
     * saveStructure()'s storage structures.
     *
     * Only valid while the run loop is parked at a cycle boundary
     * (inside a checkpoint hook) or before/after run().
     */
    void saveState(CheckpointWriter &w) const;

    /**
     * Restore warm state from a parsed checkpoint and queue the
     * run-loop resume point consumed by the next run() call. All-or-
     * nothing per the class contract: any missing or malformed
     * section returns Corrupt and the frontend must then be treated
     * as unusable (callers fall back to a cold start with a fresh
     * frontend, never this one).
     */
    Status restoreState(const CheckpointFile &f);
    /// @}

  protected:
    /** Mode-FSM state of the run loop (checkpoints store it as 0/1). */
    enum class Mode : uint32_t
    {
        Build = 0,     ///< the legacy pipe supplies; the fill unit builds
        Delivery = 1,  ///< the decoded structure (or the IC) supplies
    };

    /**
     * The run loop's state between cycles; a checkpoint parks and
     * restores exactly these fields. The meanings are the same for
     * every frontend (IC and DC never buffer: their buffer stays 0).
     */
    struct RunLoopState
    {
        std::size_t rec = 0;      ///< next trace record to supply
        Mode mode = Mode::Build;  ///< build or delivery mode
        unsigned buffer = 0;      ///< uops waiting for the renamer
        unsigned stall = 0;       ///< pending fetch-silent cycles
    };

    /** What one delivery cycle did (the result of deliveryCycle()). */
    enum class Delivery
    {
        Counted,    ///< a delivery cycle; the buffer then drains
        BuildNow,   ///< missed: this cycle is the first build cycle
        BuildNext,  ///< missed: this cycle is lost, build starts next
    };

    /// @{ Checkpoint hooks: the frontend's own section ("ic", "dc",
    ///    "tc", "bbtc", "xbc") and the state of its structures,
    ///    written after the predictor bank and the legacy pipe.
    virtual const char *ckptSection() const = 0;
    virtual void saveStructure(CkptSink &) const {}
    virtual void loadStructure(CkptSource &) {}
    /// @}

    /// @{ Per-frontend hooks of the cycle loop.

    /**
     * Run entry, before the first cycle. @p cold: no checkpoint is
     * being resumed, loop_ has been reset (build mode, record 0) and
     * the fill state must be reset too; a cold start that stays in
     * build mode then enters build with cause ColdStart.
     */
    virtual void
    startRun(const Trace &trace, bool cold)
    {
        (void)trace;
        (void)cold;
    }

    /**
     * One delivery-mode cycle, not a stall bubble: supply from the
     * decoded structure at loop_.rec, advancing loop_.rec, adding
     * supplied uops to metrics_.deliveryUops and loop_.buffer (or
     * straight to metrics_.renamedUops when there is no buffer), and
     * predictor penalties to loop_.stall. A miss returns
     * switchToBuild(cause, BuildNow or BuildNext).
     */
    virtual Delivery deliveryCycle(const Trace &trace) = 0;

    /** Build mode: feed record @p i, consumed by this cycle's legacy
     *  fetch, to the fill unit (@p last: the cycle's final record);
     *  true when that completed a fill unit. A frontend without a
     *  build mode (the IC) keeps this default and exitBuild()'s. */
    virtual bool fillRecord(const Trace &, std::size_t, bool)
    {
        return false;
    }

    /** End of a build cycle: true to resume delivery at record
     *  @p rec next cycle. @p completed: some fillRecord() of this
     *  cycle returned true. */
    virtual bool exitBuild(const Trace &, std::size_t rec,
                           bool completed)
    {
        (void)rec;
        (void)completed;
        return false;
    }

    /** Whether the pending stall still counts once the trace has
     *  run out (the IC's last fetch bubble) or is dropped when the
     *  last uop leaves the buffer (the decoded structures). */
    virtual bool countsTrailingStall() const { return false; }

    /** Define the profiler phases the loop enters (see
     *  attachProfiler); called with nullptr on detach. */
    virtual void
    registerPhases(PhaseProfiler *prof)
    {
        if (prof) {
            phBuild_ = prof->definePhase("build");
            phArray_ = prof->definePhase("array");
        }
        // The legacy pipe runs as the build path.
        pipe_.attachProfiler(prof, phBuild_);
    }

    /// @}

    /** Delivery-to-build switch on a delivery miss: count it, latch
     *  the build cause, and return @p when for deliveryCycle(). */
    Delivery
    switchToBuild(Cause cause, Delivery when)
    {
        ++metrics_.modeSwitches;
        attrib_.enterBuild(cause);
        loop_.mode = Mode::Build;
        return when;
    }

    /** Report a delivered record to the oracle, if attached. See
     *  DeliveryOracle::consume for the cached_idx convention. */
    void
    oracleConsume(std::size_t rec, int32_t cached_idx,
                  unsigned cached_uops)
    {
        if (oracle_) {
            oracle_->consume(rec, cached_idx, cached_uops,
                             metrics_.cycles.value());
        }
    }

  private:
    /** The shared build cycle: one legacy fetch, each consumed record
     *  handed to the oracle and fillRecord(), then exitBuild(). */
    void buildCycle(const Trace &trace);

    /** Per-cycle observation; the loop calls this right after
     *  advancing metrics_.cycles. One branch when nothing attached. */
    void
    observeCycle()
    {
        if (sampler_)
            sampler_->tick(metrics_.cycles.value());
        if (!observers_.empty()) {
            for (CycleObserver *obs : observers_)
                obs->onCycle(*this, metrics_.cycles.value());
        }
    }

    /**
     * Checkpoint trigger, called at the top of the cycle loop (before
     * the cycle counter advances). When the armed cycle has been
     * reached the hook runs with loop_ parked at this cycle boundary
     * and the trigger disarms; the loop then continues unchanged.
     */
    void
    maybeCheckpoint()
    {
        if (!ckptArmed_ || metrics_.cycles.value() < ckptAt_)
            return;
        ckptArmed_ = false;
        ckptTaken_ = true;
        if (ckptHook_)
            ckptStatus_ = ckptHook_(*this);
    }

    /**
     * Mode-FSM timeline: open a slice named after @p mode ("build" /
     * "delivery"), closing the previous one. Called once per cycle;
     * consecutive same-mode calls cost one pointer compare.
     */
    void
    traceMode(Mode mode)
    {
        static constexpr const char *kLabels[] = {"build", "delivery"};
        const char *label = kLabels[(uint32_t)mode];
        if (label == modeLabel_)
            return;
        if (modeProbe_.enabled()) {
            if (modeLabel_)
                modeProbe_.end();
            modeProbe_.begin(label);
        }
        modeLabel_ = label;
    }

    /** Close the open mode slice (end of run). */
    void
    traceModeDone()
    {
        if (modeProbe_.enabled() && modeLabel_)
            modeProbe_.end();
        modeLabel_ = nullptr;
    }

  public:
    /** Current mode-FSM label ("build"/"delivery"), or nullptr
     *  outside run(). Tracked whether or not a trace sink is
     *  attached, so live telemetry can report the phase. */
    const char *modeLabel() const { return modeLabel_; }

  protected:
    StatGroup root_;
    FrontendMetrics metrics_;
    FrontendParams params_;
    ProbeManager probes_;
    ProbePoint modeProbe_{&probes_, "mode", "mode"};
    AttribRecorder attrib_{&root_, &probes_};
    PredictorBank preds_;
    LegacyPipe pipe_;

    /** The run loop's state; parked/restored by checkpoints. */
    RunLoopState loop_;

    /// @{ Host-time profiling (null/kNoPhase when detached).
    PhaseProfiler *prof_ = nullptr;
    unsigned phFetch_ = PhaseProfiler::kNoPhase;
    unsigned phBuild_ = PhaseProfiler::kNoPhase;
    unsigned phArray_ = PhaseProfiler::kNoPhase;
    /// @}

  private:
    /** restoreState() set loop_; the next run() resumes from it. */
    bool resumePending_ = false;
    uint64_t ckptAt_ = 0;
    CkptHook ckptHook_;
    bool ckptArmed_ = false;
    bool ckptTaken_ = false;
    Status ckptStatus_;

    IntervalSampler *sampler_ = nullptr;
    std::vector<CycleObserver *> observers_;
    DeliveryOracle *oracle_ = nullptr;
    const volatile std::sig_atomic_t *stopFlag_ = nullptr;
    const char *modeLabel_ = nullptr;
};

} // namespace xbs

#endif // XBS_FRONTEND_FRONTEND_HH
