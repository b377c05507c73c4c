#include "fabric/spawn.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <sys/wait.h>
#include <unistd.h>

#include "fabric/fleet.h"
#include "service/stream.h"

namespace p10ee::fabric {

using common::Error;
using common::Expected;
using Result = service::LineReader::Result;

Expected<SpawnedWorker>
spawnWorker(const std::string& p10dBinary,
            const std::vector<std::string>& extraArgs,
            int announceTimeoutMs)
{
    if (::access(p10dBinary.c_str(), X_OK) != 0)
        return Error::notFound("p10d binary not executable: " +
                               p10dBinary);

    int pipefd[2];
    if (::pipe(pipefd) != 0)
        return Error::transient(std::string("pipe(): ") +
                                std::strerror(errno));

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(pipefd[0]);
        ::close(pipefd[1]);
        return Error::transient(std::string("fork(): ") +
                                std::strerror(errno));
    }
    if (pid == 0) {
        // Child: stdout -> pipe, stderr inherited, exec the daemon.
        ::close(pipefd[0]);
        ::dup2(pipefd[1], STDOUT_FILENO);
        ::close(pipefd[1]);
        std::vector<std::string> args = {p10dBinary, "--port", "0"};
        args.insert(args.end(), extraArgs.begin(), extraArgs.end());
        std::vector<char*> argv;
        argv.reserve(args.size() + 1);
        for (std::string& a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(p10dBinary.c_str(), argv.data());
        // exec failed: exit hard without running parent atexit state.
        std::_Exit(127);
    }

    ::close(pipefd[1]);
    SpawnedWorker worker;
    worker.pid = pid;
    worker.stdoutFd = pipefd[0];

    // The announcement is the daemon's first stdout line, read with the
    // same bounded reader as every NDJSON stream.
    service::LineReader reader(worker.stdoutFd);
    std::string line;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(announceTimeoutMs);
    for (;;) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (left <= 0) {
            reapWorker(worker, /*kill=*/true);
            return Error::timeout(
                "worker did not announce a listening port within " +
                std::to_string(announceTimeoutMs) + "ms");
        }
        const auto rc = reader.next(&line, static_cast<int>(left));
        if (rc == Result::Timeout)
            continue;
        const std::string marker = "p10d: listening on ";
        if (rc == Result::Line && line.compare(0, marker.size(), marker) == 0) {
            auto addrs = parseWorkerList(line.substr(marker.size()));
            if (addrs && addrs.value().size() == 1 &&
                addrs.value()[0].host == "127.0.0.1") {
                worker.port = addrs.value()[0].port;
                return worker;
            }
        }
        if (rc == Result::Line || rc == Result::Oversize) {
            reapWorker(worker, /*kill=*/true);
            return Error::invalidArgument(
                "worker stdout is not a p10d announcement");
        }
        // Child died (or exec failed) before announcing.
        const int status = reapWorker(worker);
        return Error::transient(
            "worker exited before announcing (wait status " +
            std::to_string(status) + ")");
    }
}

void
signalWorker(const SpawnedWorker& worker, int sig)
{
    if (worker.pid > 0)
        ::kill(worker.pid, sig);
}

int
reapWorker(SpawnedWorker& worker, bool kill)
{
    if (worker.pid <= 0)
        return -1;
    if (kill)
        ::kill(worker.pid, SIGKILL);
    // A SIGSTOPped child never exits; make reaping unconditional so a
    // chaos run that suspended a worker still cleans up.
    ::kill(worker.pid, SIGCONT);
    int status = -1;
    for (;;) {
        pid_t r = ::waitpid(worker.pid, &status, 0);
        if (r < 0 && errno == EINTR)
            continue;
        break;
    }
    worker.pid = -1;
    if (worker.stdoutFd >= 0) {
        ::close(worker.stdoutFd);
        worker.stdoutFd = -1;
    }
    return status;
}

} // namespace p10ee::fabric
