/**
 * @file
 * Worker-side campaign protocol service: one session loop, served
 * over stdio (pipe workers, `aitax_cli sweep-serve`) or over a socket
 * by the long-running `aitax_cli serve` daemon, the only TCP server.
 *
 * Sessions speak protocol v2, the only one (see campaign.h for the
 * full grammar):
 *
 *  - banner: "aitax-sweep-worker-v2 ready"; coordinators refuse any
 *    other first line.
 *  - worker-side corpus addressing: "spec <text>" binds the scenario
 *    corpus *by description* (the campaign identity line), answered
 *    with "spec-ok" or "spec-err <why>". It is the only corpus
 *    binding and must precede the first range. Workers never receive
 *    scenario payloads — they resolve (identity, chunk) locally, so a
 *    daemon can serve many different campaigns concurrently.
 *  - liveness: "hb" acknowledges each range command before the chunk
 *    runs, and result lines stream back in sub-slices, giving the
 *    coordinator's hung-worker deadline something to observe.
 *
 * The daemon (`aitax_cli serve`) forks one server process per accepted
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
 * @param resolver worker-side corpus addressing: maps the session's
 *        spec line to a ScenarioFn, or returns an empty function with
 *        *error set ("spec-err" goes back on the wire). A range before
 *        an accepted spec ends the session.
 * @return process exit code (0 on clean quit / EOF).
 */
int serveSession(LineIO &io, const WorkerOptions &opts,
                 const SpecResolver &resolver);

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
 * `aitax_cli serve`: long-running fleet worker daemon. Accepts any
 * number of concurrent campaign connections, forking one server
 * process per connection (per-campaign isolation of snapshot-cache
 * stats and corpus state). @p resolver is mandatory. Announces
 * "aitax-serve: listening on <addr>:<port>".
 */
int runServeDaemon(const DaemonOptions &opts,
                   const SpecResolver &resolver);

} // namespace aitax::sweep

#endif // AITAX_SWEEP_SERVE_H
