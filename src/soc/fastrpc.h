/**
 * @file
 * FastRPC channel model — the CPU<->DSP communication path of Fig 7.
 *
 * Every call crosses user -> kernel driver -> (cache flush for
 * coherency) -> DSP-side driver and back. The first call from a
 * process additionally pays the session-open cost (process mapping +
 * library load), the paper's DSP cold-start penalty (Fig 8).
 *
 * A call costs no heap in steady state: its state, breakdown included,
 * comes from a per-channel free list that is refilled when the call
 * completes and reused by retries, and both callbacks are inline.
 */

#ifndef AITAX_SOC_FASTRPC_H
#define AITAX_SOC_FASTRPC_H

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/injector.h"
#include "sim/simulator.h"
#include "soc/accelerator.h"
#include "soc/soc_config.h"

namespace aitax::soc {

/** Per-call latency breakdown mirroring the Fig 7 stages. */
struct FastRpcBreakdown
{
    sim::DurationNs sessionOpenNs = 0;
    sim::DurationNs userToKernelNs = 0;
    sim::DurationNs cacheFlushNs = 0;
    sim::DurationNs kernelSignalNs = 0;
    sim::DurationNs queueWaitNs = 0;
    sim::DurationNs dspExecNs = 0;
    sim::DurationNs returnPathNs = 0;
    /** Wasted attempts + backoff waits under injected faults. */
    sim::DurationNs retryNs = 0;
    /** Retries taken (0 on the happy path). */
    std::int32_t retries = 0;
    /** True when the call failed permanently after all attempts. */
    bool failed = false;

    /** Offload overhead: everything except the DSP execution itself. */
    sim::DurationNs overheadNs() const;
    sim::DurationNs totalNs() const;
};

/**
 * Completion callback of a FastRPC call: the call's breakdown, and the
 * job it carried, which a caller re-runs elsewhere after a permanent
 * failure.
 */
using RpcDoneFn =
    sim::InlineFunction<void(const FastRpcBreakdown &, const AccelJob &)>;

/**
 * The FastRPC channel to one DSP.
 */
class FastRpcChannel
{
  public:
    FastRpcChannel(sim::Simulator &sim, FastRpcConfig cfg,
                   Accelerator &dsp);

    FastRpcChannel(const FastRpcChannel &) = delete;
    FastRpcChannel &operator=(const FastRpcChannel &) = delete;
    ~FastRpcChannel();

    /**
     * Issue a remote call.
     *
     * On the happy path the breakdown reports the Fig 7 stages with
     * queue wait and execution derived from the accelerator's
     * *observed* dispatch/completion times. Under an armed fault
     * injector a call may additionally lose its session (re-paying
     * session open), fail transiently and retry with exponential
     * backoff in simulated time (accumulated in retryNs), or — after
     * maxAttempts — complete with failed=true, in which case the
     * job's own onDone is never invoked and the caller is expected
     * to degrade along the fallback chain.
     *
     * @param process_id calling process (first call pays session open).
     * @param payload_bytes bytes flushed/transferred for arguments.
     * @param job the DSP work to run remotely.
     * @param on_done completion callback, given the call's breakdown.
     */
    void call(std::int32_t process_id, double payload_bytes,
              AccelJob job, RpcDoneFn on_done);

    /** True once a process has an open DSP session. */
    bool sessionOpen(std::int32_t process_id) const;

    /** Drop a process's session (app restart / model reload). */
    void closeSession(std::int32_t process_id);

    /** Drop every session (injected subsystem restart). */
    void dropAllSessions() { sessions.clear(); }

    /** Attach a fault injector (session loss + transient failures). */
    void setFaultInjector(faults::FaultInjector *injector)
    {
        faults_ = injector;
    }

    std::int64_t callsCompleted() const { return completed; }

  private:
    /** Per-call state shared across retry attempts. */
    struct CallState;

    sim::Simulator &sim;
    FastRpcConfig cfg;
    Accelerator &dsp;
    faults::FaultInjector *faults_ = nullptr;
    /** Processes with an open session, in insertion order. */
    std::vector<std::int32_t> sessions;
    std::int64_t completed = 0;
    /** Every call state this channel has made; owned here. */
    std::vector<std::unique_ptr<CallState>> states_;
    /** States of finished calls, ready for the next call. */
    std::vector<CallState *> freeStates_;

    CallState *acquireState();
    void releaseState(CallState *state);
    void startAttempt(CallState *state);
    void retryOrFail(CallState *state, sim::DurationNs wasted);
    void finishCall(CallState *state);
};

} // namespace aitax::soc

#endif // AITAX_SOC_FASTRPC_H
