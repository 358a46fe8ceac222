#include "sweep/transport.h"

#include "sweep/protocol.h"

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace aitax::sweep {

namespace {

// -----------------------------------------------------------------
// Process (pipe/fork) transport — PR 8's plumbing, relocated.
// -----------------------------------------------------------------

class PipeChannel final : public WorkerChannel
{
  public:
    PipeChannel(pid_t pid, int inFd, int outFd)
        : pid_(pid), in_(inFd), out_(outFd)
    {
    }

    ~PipeChannel() override
    {
        closeSend();
        if (out_ >= 0)
            close(out_);
        // Never leave a zombie or block on a live child: destruction
        // without finishClean() is an error path, so the worker's exit
        // status no longer matters — force it down and reap.
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            waitpidRobust(nullptr);
        }
    }

    int pollFd() const override { return out_; }

    void sendLine(std::string_view line) override
    {
        if (in_ < 0)
            return;
        std::string cmd(line);
        cmd += '\n';
        // EPIPE here means the worker already died; the read side
        // reports EOF and reclaims the chunk, so failures are ignored.
        std::size_t off = 0;
        while (off < cmd.size()) {
            const ssize_t n =
                write(in_, cmd.data() + off, cmd.size() - off);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                break;
            }
            off += static_cast<std::size_t>(n);
        }
    }

    void closeSend() override
    {
        if (in_ >= 0) {
            close(in_);
            in_ = -1;
        }
    }

    int readLines(std::string &out) override
    {
        char buf[4096];
        const ssize_t n = read(out_, buf, sizeof(buf));
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
            return static_cast<int>(n);
        }
        if (n < 0 && errno == EINTR)
            return -1;
        return 0; // EOF, or a hard read error == worker loss
    }

    void kill() override
    {
        if (pid_ > 0)
            ::kill(pid_, SIGKILL);
    }

    bool finishClean() override
    {
        closeSend();
        if (out_ >= 0) {
            close(out_);
            out_ = -1;
        }
        if (pid_ <= 0)
            return false;
        int status = 0;
        if (!waitpidRobust(&status))
            return false;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    /**
     * waitpid with EINTR retry. ECHILD or any other error leaves the
     * exit status unknowable, so the caller must treat the worker as
     * unclean (re-dispatching its chunk) rather than counting an
     * unverified death as a clean quit.
     */
    bool waitpidRobust(int *status)
    {
        int local = 0;
        for (;;) {
            const pid_t r = waitpid(pid_, &local, 0);
            if (r == pid_) {
                pid_ = -1;
                if (status != nullptr)
                    *status = local;
                return true;
            }
            if (r < 0 && errno == EINTR)
                continue;
            pid_ = -1;
            return false;
        }
    }

    pid_t pid_;
    int in_;
    int out_;
};

class ProcessTransport final : public Transport
{
  public:
    explicit ProcessTransport(std::vector<std::string> cmd)
        : cmd_(std::move(cmd))
    {
    }

    const char *name() const override { return "pipe"; }

    std::unique_ptr<WorkerChannel>
    openWorker(const std::vector<std::string> &extraArgs,
               std::string *error) override
    {
        int toChild[2];
        int fromChild[2];
        if (pipe(toChild) != 0) {
            *error = "pipe() failed";
            return nullptr;
        }
        if (pipe(fromChild) != 0) {
            close(toChild[0]);
            close(toChild[1]);
            *error = "pipe() failed";
            return nullptr;
        }
        const pid_t pid = fork();
        if (pid < 0) {
            close(toChild[0]);
            close(toChild[1]);
            close(fromChild[0]);
            close(fromChild[1]);
            *error = "fork() failed";
            return nullptr;
        }
        if (pid == 0) {
            dup2(toChild[0], STDIN_FILENO);
            dup2(fromChild[1], STDOUT_FILENO);
            close(toChild[0]);
            close(toChild[1]);
            close(fromChild[0]);
            close(fromChild[1]);
            std::vector<std::string> argvS = cmd_;
            argvS.insert(argvS.end(), extraArgs.begin(), extraArgs.end());
            std::vector<char *> argv;
            argv.reserve(argvS.size() + 1);
            for (std::string &a : argvS)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            execv(argv[0], argv.data());
            std::fprintf(stderr,
                         "campaign worker: execv(%s) failed: %s\n",
                         argv[0], std::strerror(errno));
            _exit(127);
        }
        close(toChild[0]);
        close(fromChild[1]);
        return std::make_unique<PipeChannel>(pid, toChild[1],
                                             fromChild[0]);
    }

  private:
    std::vector<std::string> cmd_;
};

// -----------------------------------------------------------------
// TCP transport — length-delimited frames over a connected socket.
// -----------------------------------------------------------------

class TcpChannel final : public WorkerChannel
{
  public:
    explicit TcpChannel(int fd) : fd_(fd) {}

    ~TcpChannel() override
    {
        if (fd_ >= 0)
            close(fd_);
    }

    int pollFd() const override { return fd_; }

    void sendLine(std::string_view line) override
    {
        if (fd_ < 0)
            return;
        std::string wire;
        appendFrame(wire, line);
        // MSG_NOSIGNAL: a dead peer must surface as EPIPE (ignored;
        // the read side reports the loss), never as a fatal SIGPIPE.
        std::size_t off = 0;
        while (off < wire.size()) {
            const ssize_t n = send(fd_, wire.data() + off,
                                   wire.size() - off, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                break;
            }
            off += static_cast<std::size_t>(n);
        }
    }

    void closeSend() override
    {
        if (fd_ >= 0)
            shutdown(fd_, SHUT_WR);
    }

    int readLines(std::string &out) override
    {
        char buf[4096];
        const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
        if (n < 0)
            return errno == EINTR ? -1 : 0;
        if (n == 0)
            return 0;
        raw_.append(buf, static_cast<std::size_t>(n));
        // Decode every complete frame into a newline-terminated line
        // so the coordinator's parser sees pipe-identical bytes.
        int produced = 0;
        std::string line;
        for (;;) {
            const FrameStatus status = takeFrame(raw_, line);
            if (status == FrameStatus::Corrupt)
                return 0; // corrupt peer: treat as lost
            if (status == FrameStatus::Incomplete)
                break;
            out += line;
            out += '\n';
            produced += static_cast<int>(line.size()) + 1;
        }
        return produced > 0 ? produced : -1;
    }

    void kill() override
    {
        // No process to signal; dropping the connection makes the
        // remote session die with its forked server process.
        if (fd_ >= 0) {
            close(fd_);
            fd_ = -1;
        }
    }

    bool finishClean() override
    {
        // Socket teardown carries no exit status; cleanliness is
        // judged by the coordinator's own protocol state (quit sent,
        // no chunk in flight).
        if (fd_ >= 0) {
            close(fd_);
            fd_ = -1;
        }
        return true;
    }

  private:
    int fd_;
    std::string raw_; ///< undecoded frame bytes
};

/** Connect to "host:port"; -1 on failure. */
int
connectTo(const std::string &endpoint)
{
    const std::size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= endpoint.size())
        return -1;
    const std::string host = endpoint.substr(0, colon);
    const std::string port = endpoint.substr(colon + 1);

    addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    if (getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0)
        return -1;
    int fd = -1;
    for (addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        close(fd);
        fd = -1;
    }
    freeaddrinfo(res);
    return fd;
}

class TcpTransport final : public Transport
{
  public:
    explicit TcpTransport(std::vector<std::string> endpoints)
        : endpoints_(std::move(endpoints))
    {
    }

    const char *name() const override { return "tcp"; }

    std::unique_ptr<WorkerChannel>
    openWorker(const std::vector<std::string> &extraArgs,
               std::string *error) override
    {
        if (!extraArgs.empty()) {
            // Crash injection flags are argv-based and local-only.
            *error = "tcp transport cannot pass worker argv flags";
            return nullptr;
        }
        if (endpoints_.empty()) {
            *error = "no worker endpoints";
            return nullptr;
        }
        // Round-robin with a few short retries per endpoint, so a
        // worker that is still binding its listen socket is tolerated.
        constexpr int kAttemptsPerEndpoint = 20;
        const timespec backoff = {0, 50 * 1000 * 1000}; // 50 ms
        for (int attempt = 0;
             attempt < kAttemptsPerEndpoint *
                           static_cast<int>(endpoints_.size());
             ++attempt) {
            const std::string &ep = endpoints_[next_];
            next_ = (next_ + 1) % endpoints_.size();
            const int fd = connectTo(ep);
            if (fd >= 0)
                return std::make_unique<TcpChannel>(fd);
            nanosleep(&backoff, nullptr);
        }
        *error = "cannot connect to any worker endpoint (" +
                 endpoints_[0] +
                 (endpoints_.size() > 1 ? ", ..." : "") + ")";
        return nullptr;
    }

  private:
    std::vector<std::string> endpoints_;
    std::size_t next_ = 0;
};

} // namespace

std::unique_ptr<Transport>
makeProcessTransport(const std::vector<std::string> &workerCmd)
{
    return std::make_unique<ProcessTransport>(workerCmd);
}

std::unique_ptr<Transport>
makeTcpTransport(const std::vector<std::string> &endpoints)
{
    return std::make_unique<TcpTransport>(endpoints);
}

} // namespace aitax::sweep
