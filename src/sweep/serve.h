/**
 * @file
 * Worker-side campaign protocol service: stdio sessions, socket
 * sessions, and the long-running `aitax serve` daemon.
 *
 * Sessions speak protocol v2, the only one (see campaign.h for the
 * full grammar):
 *
 *  - banner: "aitax-sweep-worker-v2 ready"; coordinators refuse any
 *    other first line.
 *  - worker-side corpus addressing: "spec <text>" binds the scenario
 *    corpus *by description* (the campaign identity line), answered
 *    with "spec-ok" or "spec-err <why>". Remote workers never receive
 *    scenario payloads — they resolve (identity, chunk) locally, so a
 *    daemon can serve many different campaigns concurrently.
 *  - liveness: "hb" acknowledges each range command before the chunk
 *    runs, and result lines stream back in sub-slices, giving the
 *    coordinator's hung-worker deadline something to observe.
 *
 * The daemon (`aitax serve`) forks one server process per accepted
 * connection: snapshot-cache counters, SweepRunner pools and any
 * resolved corpus state are per-campaign isolated by the process
 * boundary, and a session crash cannot take down the daemon or a
 * concurrent campaign.
 */

#ifndef AITAX_SWEEP_SERVE_H
#define AITAX_SWEEP_SERVE_H

#include <string>
#include <string_view>

#include "sweep/campaign.h"

namespace aitax::sweep {

/** Line-oriented protocol endpoint (framing-agnostic). */
class LineIO
{
  public:
    virtual ~LineIO() = default;
    /** Read one line, stripped of its terminator. False on EOF. */
    virtual bool readLine(std::string &line) = 0;
    /** Write one line (no trailing '\n'; the endpoint frames it). */
    virtual void writeLine(std::string_view line) = 0;
    virtual void flush() = 0;
};

/** Protocol lines over this process's stdin/stdout. */
class StdioLineIO final : public LineIO
{
  public:
    bool readLine(std::string &line) override;
    void writeLine(std::string_view line) override;
    void flush() override;
};

/**
 * Protocol lines as length-delimited frames (4-byte big-endian
 * payload length + line bytes) over a connected socket. Owns @p fd.
 */
class FrameLineIO final : public LineIO
{
  public:
    explicit FrameLineIO(int fd) : fd_(fd) {}
    ~FrameLineIO() override;
    bool readLine(std::string &line) override;
    void writeLine(std::string_view line) override;
    void flush() override {}

  private:
    int fd_;
    std::string raw_; ///< received, undecoded frame bytes
};

/**
 * Serve one coordinator session over @p io until "quit" or EOF.
 *
 * @param fn corpus bound at startup (argv-addressed); may be empty if
 *        a @p resolver is supplied and the coordinator sends "spec".
 * @param resolver optional worker-side corpus addressing: maps a spec
 *        line to a ScenarioFn, or returns an empty function with
 *        *error set ("spec-err" goes back on the wire).
 * @return process exit code (0 on clean quit / EOF).
 */
int serveSession(LineIO &io, const WorkerOptions &opts, ScenarioFn fn,
                 const SpecResolver &resolver);

/**
 * `aitax_cli sweep-serve --listen`: bind @p bindAddr:@p port (port 0
 * picks an ephemeral port), announce "sweep-serve: listening on
 * <addr>:<port>" on stdout (and into @p portFile when non-empty, port
 * number only), then serve sessions *sequentially* in-process.
 * @param acceptLimit exit after this many sessions; < 0 serves
 *        forever. @return exit code.
 */
int serveTcpWorker(const std::string &bindAddr, int port,
                   const WorkerOptions &opts, ScenarioFn fn,
                   const SpecResolver &resolver, int acceptLimit,
                   const std::string &portFile);

struct DaemonOptions
{
    std::string bindAddr = "127.0.0.1";
    int port = 0; ///< 0 picks an ephemeral port
    /** SweepRunner threads per campaign session. */
    int jobs = 1;
    /** Exit after this many accepted connections; < 0 = forever. */
    int acceptLimit = -1;
    /** When non-empty, the bound port number is written here. */
    std::string portFile;
};

/**
 * `aitax serve`: long-running fleet worker daemon. Accepts any number
 * of concurrent campaign connections, forking one server process per
 * connection (per-campaign isolation of snapshot-cache stats and
 * corpus state). Corpora are always spec-addressed — @p resolver is
 * mandatory. Announces "aitax-serve: listening on <addr>:<port>".
 */
int runServeDaemon(const DaemonOptions &opts,
                   const SpecResolver &resolver);

} // namespace aitax::sweep

#endif // AITAX_SWEEP_SERVE_H
