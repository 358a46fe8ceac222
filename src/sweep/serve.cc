#include "sweep/serve.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "stats/numfmt.h"
#include "sweep/protocol.h"
#include "sweep/sweep_runner.h"

namespace aitax::sweep {

// ---------------------------------------------------------------------
// Line endpoints
// ---------------------------------------------------------------------

bool
StdioLineIO::readLine(std::string &line)
{
    line.clear();
    char buf[256];
    for (;;) {
        if (std::fgets(buf, sizeof(buf), stdin) == nullptr)
            return !line.empty();
        line += buf;
        if (!line.empty() && line.back() == '\n') {
            line.pop_back();
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            return true;
        }
    }
}

void
StdioLineIO::writeLine(std::string_view line)
{
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
}

void
StdioLineIO::flush()
{
    std::fflush(stdout);
}

FrameLineIO::~FrameLineIO()
{
    if (fd_ >= 0)
        close(fd_);
}

bool
FrameLineIO::readLine(std::string &line)
{
    for (;;) {
        const FrameStatus status = takeFrame(raw_, line);
        if (status == FrameStatus::Complete)
            return true;
        if (status == FrameStatus::Corrupt)
            return false; // corrupt peer: drop the session
        char buf[4096];
        const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        raw_.append(buf, static_cast<std::size_t>(n));
    }
}

void
FrameLineIO::writeLine(std::string_view line)
{
    if (fd_ < 0)
        return;
    std::string wire;
    appendFrame(wire, line);
    // MSG_NOSIGNAL: a vanished coordinator surfaces as EPIPE (the next
    // readLine sees EOF), never as a fatal SIGPIPE in the worker.
    std::size_t off = 0;
    while (off < wire.size()) {
        const ssize_t n = send(fd_, wire.data() + off,
                               wire.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return;
        }
        off += static_cast<std::size_t>(n);
    }
}

// ---------------------------------------------------------------------
// One protocol session
// ---------------------------------------------------------------------

int
serveSession(LineIO &io, const WorkerOptions &opts,
             const SpecResolver &resolver)
{
    io.writeLine(kWorkerBannerV2);
    io.flush();

    SweepRunner pool(opts.jobs);
    SnapshotCacheStats last = snapshotCacheStatsNow();
    ScenarioFn fn; // bound by the "spec" line
    int rangesSeen = 0;
    std::string line;
    while (io.readLine(line)) {
        if (line.compare(0, 4, "quit") == 0)
            return 0;
        if (line.compare(0, 4, "spec") == 0) {
            const std::string spec =
                line.size() > 5 ? line.substr(5) : std::string();
            std::string err;
            fn = resolver ? resolver(spec, &err) : ScenarioFn();
            if (!fn) {
                io.writeLine("spec-err " +
                             (err.empty() ? "unresolvable spec" : err));
                io.flush();
                return 2;
            }
            io.writeLine("spec-ok");
            io.flush();
            continue;
        }
        int begin = 0;
        int end = 0;
        {
            const char *p = line.c_str();
            if (line.compare(0, 6, "range ") != 0 ||
                (p += 6, !stats::parseInt(p, begin)) ||
                !stats::parseInt(p, end) || begin < 0 || end < begin) {
                std::fprintf(stderr, "sweep-serve: bad command: %s\n",
                             line.c_str());
                return 2;
            }
        }
        ++rangesSeen;
        if (opts.exitAfterRanges >= 0 &&
            rangesSeen >= opts.exitAfterRanges)
            std::exit(7); // crash injection: drop the chunk on the floor
        if (!fn) {
            std::fprintf(stderr,
                         "sweep-serve: range before corpus was bound "
                         "(spec required)\n");
            return 2;
        }
        // Liveness: acknowledge the range before running it, so the
        // coordinator's deadline distinguishes "working" from "hung".
        io.writeLine("hb");
        io.flush();

        // Stream results in sub-slices (flushed each time): byte-wise
        // identical to emitting the whole chunk at once, but a slow
        // chunk shows continuous progress to the deadline monitor.
        const int slice = std::max(1, opts.jobs);
        for (int b = begin; b < end; b += slice) {
            const int e = std::min(end, b + slice);
            const auto n = static_cast<std::size_t>(e - b);
            const std::vector<ScenarioOutcome> results =
                pool.map<ScenarioOutcome>(n, [&](std::size_t i) {
                    return fn(b + static_cast<int>(i));
                });
            std::string out;
            for (std::size_t i = 0; i < n; ++i) {
                out = "r ";
                out += std::to_string(b + static_cast<int>(i));
                out += ' ';
                stats::appendG17(out, results[i].e2eMeanMs);
                out += ' ';
                out += std::to_string(results[i].events);
                io.writeLine(out);
            }
            io.flush();
        }

        const SnapshotCacheStats now = snapshotCacheStatsNow();
        std::string done = "done ";
        done += std::to_string(begin);
        done += ' ';
        done += std::to_string(end);
        done += ' ';
        done += std::to_string(now.hits - last.hits);
        done += ' ';
        done += std::to_string(now.misses - last.misses);
        done += ' ';
        done += std::to_string(now.stores - last.stores);
        done += ' ';
        done += std::to_string(now.raceDiscards - last.raceDiscards);
        io.writeLine(done);
        io.flush();
        last = now;
    }
    return 0;
}

int
runWorker(const WorkerOptions &opts, const ScenarioFn & /*unused*/,
          const SpecResolver &resolver)
{
    StdioLineIO io;
    return serveSession(io, opts, resolver);
}

// ---------------------------------------------------------------------
// The daemon's socket listener
// ---------------------------------------------------------------------

namespace {

/** Bind+listen on @p addr:@p port; returns fd or -1 (errno holds why).
 *  @p boundPort receives the actual port (ephemeral when port == 0). */
int
listenOn(const std::string &addr, int port, int *boundPort)
{
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa = {};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<std::uint16_t>(port));
    if (inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) {
        close(fd);
        errno = EINVAL;
        return -1;
    }
    if (bind(fd, reinterpret_cast<sockaddr *>(&sa), sizeof(sa)) != 0 ||
        listen(fd, 16) != 0) {
        close(fd);
        return -1;
    }
    sockaddr_in bound = {};
    socklen_t len = sizeof(bound);
    if (getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) ==
        0)
        *boundPort = ntohs(bound.sin_port);
    return fd;
}

void
writePortFile(const std::string &path, int port)
{
    if (path.empty())
        return;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
        std::fprintf(f, "%d\n", port);
        std::fclose(f);
    }
}

int
acceptRobust(int listenFd)
{
    for (;;) {
        const int conn = accept(listenFd, nullptr, nullptr);
        if (conn >= 0)
            return conn;
        if (errno == EINTR)
            continue;
        return -1;
    }
}

} // namespace

int
runServeDaemon(const DaemonOptions &opts, const SpecResolver &resolver)
{
    if (!resolver) {
        std::fprintf(stderr,
                     "aitax serve: a corpus resolver is required\n");
        return 1;
    }
    int boundPort = opts.port;
    const int listenFd = listenOn(opts.bindAddr, opts.port, &boundPort);
    if (listenFd < 0) {
        std::fprintf(stderr,
                     "aitax serve: cannot listen on %s:%d: %s\n",
                     opts.bindAddr.c_str(), opts.port,
                     std::strerror(errno));
        return 1;
    }
    std::printf("aitax-serve: listening on %s:%d\n",
                opts.bindAddr.c_str(), boundPort);
    std::fflush(stdout);
    writePortFile(opts.portFile, boundPort);

    // Session children are fire-and-forget; never accumulate zombies.
    signal(SIGCHLD, SIG_IGN);

    int sessions = 0;
    while (opts.acceptLimit < 0 || sessions < opts.acceptLimit) {
        const int conn = acceptRobust(listenFd);
        if (conn < 0)
            break;
        ++sessions;
        const pid_t pid = fork();
        if (pid < 0) {
            std::fprintf(stderr, "aitax serve: fork() failed: %s\n",
                         std::strerror(errno));
            close(conn);
            continue;
        }
        if (pid == 0) {
            // One process per campaign session: snapshot-cache stats,
            // pools and resolved corpora are isolated per connection.
            close(listenFd);
            WorkerOptions session;
            session.jobs = opts.jobs;
            FrameLineIO io(conn);
            const int rc = serveSession(io, session, resolver);
            std::_Exit(rc);
        }
        close(conn);
    }
    close(listenFd);
    return 0;
}

} // namespace aitax::sweep
