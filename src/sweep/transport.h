/**
 * @file
 * Worker transports for the campaign coordinator.
 *
 * PR 8's coordinator owned its pipe/fork plumbing directly; this file
 * factors that into a Transport abstraction so the same protocol state
 * machine (campaign.cc) drives local forked workers and remote socket
 * workers identically. Two implementations:
 *
 *  - makeProcessTransport: fork/exec one worker process per channel,
 *    newline-delimited text over a stdin/stdout pipe pair. kill() is
 *    SIGKILL; finishClean() reaps with waitpid (EINTR-retried; ECHILD
 *    or any wait error counts as *unclean* so the in-flight chunk is
 *    re-dispatched rather than silently dropped).
 *
 *  - makeTcpTransport: connect to `host:port` worker endpoints (the
 *    `aitax_cli serve` daemon, the only TCP server).
 *    The wire format is length-delimited frames — a 4-byte big-endian
 *    payload length followed by one protocol line without its '\n' —
 *    decoded back into newline-terminated lines on receipt, so the
 *    coordinator's line parser is transport-agnostic. kill() and
 *    closeSend() map to closing / shutting down the socket; a "respawn"
 *    is a fresh connection (a daemon serves each one in a fresh forked
 *    session, which is what makes crash re-dispatch byte-identical to
 *    the local case).
 *
 * Channels never interpret protocol lines; framing and process/socket
 * lifetime are the whole job. Byte-identity of campaignReportJson
 * across the two transports is enforced by tests/test_transport.cc.
 */

#ifndef AITAX_SWEEP_TRANSPORT_H
#define AITAX_SWEEP_TRANSPORT_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace aitax::sweep {

/** One bidirectional line-oriented connection to a worker. */
class WorkerChannel
{
  public:
    virtual ~WorkerChannel() = default;

    /** Readable fd for poll(); -1 once the channel is torn down. */
    virtual int pollFd() const = 0;

    /**
     * Send one protocol line (no trailing '\n'; the channel frames
     * it). Best-effort: a write failure means the worker died, which
     * the read side reports as EOF — not an error here.
     */
    virtual void sendLine(std::string_view line) = 0;

    /** Half-close the command direction (worker sees end-of-input). */
    virtual void closeSend() = 0;

    /**
     * Drain readable bytes, appending complete decoded protocol text
     * (always '\n'-terminated lines plus possibly a trailing partial
     * line) to @p out.
     * @return >0 bytes appended; 0 on EOF/peer loss; -1 to retry
     *         (EINTR or an incomplete frame).
     */
    virtual int readLines(std::string &out) = 0;

    /** Forcibly terminate the worker (hung-worker deadline path). */
    virtual void kill() = 0;

    /**
     * Tear down and report whether the *worker endpoint* finished
     * cleanly (process: exited with status 0; socket: connection
     * closed). The coordinator still requires its own protocol state
     * (quit acknowledged, no chunk in flight) before trusting it.
     */
    virtual bool finishClean() = 0;
};

/** Factory for worker channels; one per shard slot. */
class Transport
{
  public:
    virtual ~Transport() = default;

    /** "pipe" or "tcp" — surfaced in summaries and BENCH artifacts. */
    virtual const char *name() const = 0;

    /**
     * Open one worker channel. @p extraArgs extends the worker argv
     * (process transport only; crash-injection flags). On failure
     * returns nullptr with @p error set.
     */
    virtual std::unique_ptr<WorkerChannel>
    openWorker(const std::vector<std::string> &extraArgs,
               std::string *error) = 0;
};

/** Local transport: fork/exec @p workerCmd, pipes for stdio. */
std::unique_ptr<Transport>
makeProcessTransport(const std::vector<std::string> &workerCmd);

/**
 * Remote transport: round-robin over @p endpoints ("host:port").
 * Endpoints may repeat to open several sessions against one daemon.
 */
std::unique_ptr<Transport>
makeTcpTransport(const std::vector<std::string> &endpoints);

} // namespace aitax::sweep

#endif // AITAX_SWEEP_TRANSPORT_H
