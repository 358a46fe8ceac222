#include "soc/fastrpc.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace aitax::soc {

sim::DurationNs
FastRpcBreakdown::overheadNs() const
{
    return sessionOpenNs + userToKernelNs + cacheFlushNs +
           kernelSignalNs + queueWaitNs + retryNs + returnPathNs;
}

sim::DurationNs
FastRpcBreakdown::totalNs() const
{
    return overheadNs() + dspExecNs;
}

/**
 * State of one logical call, shared by its (possibly several)
 * attempts. The original job is kept here so a retry can resubmit an
 * identical AccelJob after a transient failure or watchdog kill
 * consumed the previous one, and so the caller can see it at the end.
 */
struct FastRpcChannel::CallState
{
    FastRpcBreakdown breakdown;
    /** The caller's job; its onDone runs only if the call succeeds. */
    AccelJob job;
    RpcDoneFn onDone;
    int attempt = 1;
    AccelCompletion completion;
};

namespace {

/** Fail loudly on configs that would divide by zero under NDEBUG. */
void
validateFastRpcConfig(const FastRpcConfig &cfg)
{
    if (!(cfg.cacheFlushBytesPerSec > 0.0)) {
        std::fprintf(stderr,
                     "aitax: FastRPC config has non-positive "
                     "cacheFlushBytesPerSec (%g)\n",
                     cfg.cacheFlushBytesPerSec);
        std::abort();
    }
    if (cfg.sessionOpenNs < 0 || cfg.userToKernelNs < 0 ||
        cfg.kernelSignalNs < 0 || cfg.returnPathNs < 0) {
        std::fprintf(stderr,
                     "aitax: FastRPC config has a negative stage "
                     "duration\n");
        std::abort();
    }
}

} // namespace

FastRpcChannel::FastRpcChannel(sim::Simulator &sim, FastRpcConfig cfg,
                               Accelerator &dsp)
    : sim(sim), cfg(cfg), dsp(dsp)
{
    validateFastRpcConfig(this->cfg);
}

FastRpcChannel::~FastRpcChannel() = default;

bool
FastRpcChannel::sessionOpen(std::int32_t process_id) const
{
    return std::find(sessions.begin(), sessions.end(), process_id) !=
           sessions.end();
}

void
FastRpcChannel::closeSession(std::int32_t process_id)
{
    sessions.erase(
        std::remove(sessions.begin(), sessions.end(), process_id),
        sessions.end());
}

FastRpcChannel::CallState *
FastRpcChannel::acquireState()
{
    if (freeStates_.empty()) {
        states_.push_back(std::make_unique<CallState>());
        return states_.back().get();
    }
    CallState *state = freeStates_.back();
    freeStates_.pop_back();
    return state;
}

void
FastRpcChannel::releaseState(CallState *state)
{
    // Drop the callbacks' captures (resume tokens own their tasks) now
    // rather than at the state's next use.
    *state = CallState{};
    freeStates_.push_back(state);
}

void
FastRpcChannel::call(std::int32_t process_id, double payload_bytes,
                     AccelJob job, RpcDoneFn on_done)
{
    CallState *state = acquireState();
    FastRpcBreakdown &breakdown = state->breakdown;

    // Injected session loss: the DSP subsystem restarted since the
    // last call, so every process re-pays the Fig 8 cold start.
    if (faults_ != nullptr && faults_->drawSessionLoss()) {
        dropAllSessions();
        faults_->recordSessionLoss(sim.now());
    }

    sim::DurationNs pre = 0;
    if (!sessionOpen(process_id)) {
        sessions.push_back(process_id);
        breakdown.sessionOpenNs = cfg.sessionOpenNs;
        pre += cfg.sessionOpenNs;
    }
    breakdown.userToKernelNs = cfg.userToKernelNs;
    pre += cfg.userToKernelNs;

    const auto flush_ns = static_cast<sim::DurationNs>(std::ceil(
        payload_bytes / cfg.cacheFlushBytesPerSec * 1e9));
    breakdown.cacheFlushNs = flush_ns;
    pre += flush_ns;

    breakdown.kernelSignalNs = cfg.kernelSignalNs;
    pre += cfg.kernelSignalNs;

    state->job = std::move(job);
    state->onDone = std::move(on_done);

    // After the CPU-side stages, the job lands in the DSP queue.
    sim.scheduleIn(pre, [this, state] { startAttempt(state); });
}

void
FastRpcChannel::startAttempt(CallState *state)
{
    const sim::TimeNs enqueued = sim.now();

    // Injected transient failure: the attempt dies in the driver and
    // is detected after a fixed delay without ever occupying the DSP.
    if (faults_ != nullptr && faults_->drawTransientFailure()) {
        faults_->recordTransient(enqueued);
        const sim::DurationNs detect =
            faults_->config().transientDetectNs;
        sim.scheduleIn(detect, [this, state, detect] {
            retryOrFail(state, detect);
        });
        return;
    }

    AccelJob attempt;
    attempt.label = state->job.label;
    attempt.ops = state->job.ops;
    attempt.bytes = state->job.bytes;
    attempt.format = state->job.format;
    attempt.onDone = [this, state,
                      enqueued](const AccelCompletion &completion) {
        if (completion.failed) {
            // Watchdog kill: the whole attempt (queue wait included)
            // was wasted.
            retryOrFail(state, completion.finishedAt - enqueued);
            return;
        }
        // The accounting fix: derive queue wait and execution from
        // the *observed* dispatch/completion times rather than a
        // duration estimated at enqueue time — fabric derate may
        // have changed while the job sat in the queue.
        state->breakdown.queueWaitNs = completion.startedAt - enqueued;
        state->breakdown.dspExecNs = completion.execNs;
        state->completion = completion;
        finishCall(state);
    };
    dsp.submit(std::move(attempt));
}

void
FastRpcChannel::retryOrFail(CallState *state, sim::DurationNs wasted)
{
    assert(faults_ != nullptr && "retry path requires an injector");
    state->breakdown.retryNs += wasted;
    const faults::FaultConfig &fcfg = faults_->config();
    if (state->attempt >= fcfg.maxAttempts) {
        state->breakdown.failed = true;
        faults_->recordPermanentFailure(sim.now(), wasted);
        finishCall(state);
        return;
    }
    // Exponential backoff in simulated time, capped to keep the
    // shift well-defined for absurd max-attempts settings.
    const int exponent = std::min(state->attempt - 1, 16);
    const sim::DurationNs backoff = fcfg.retryBackoffBaseNs
                                    << exponent;
    state->breakdown.retryNs += backoff;
    ++state->breakdown.retries;
    ++state->attempt;
    faults_->recordRetry(sim.now(), wasted + backoff);
    sim.scheduleIn(backoff, [this, state] { startAttempt(state); });
}

void
FastRpcChannel::finishCall(CallState *state)
{
    state->breakdown.returnPathNs = cfg.returnPathNs;
    sim.scheduleIn(cfg.returnPathNs, [this, state] {
        ++completed;
        // A permanently failed call never ran; only the error is
        // propagated back to the caller, which handles degradation.
        if (!state->breakdown.failed && state->job.onDone)
            state->job.onDone(state->completion);
        if (state->onDone)
            state->onDone(state->breakdown, state->job);
        releaseState(state);
    });
}

} // namespace aitax::soc
