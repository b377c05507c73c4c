#include "service/daemon.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "service/stream.h"

namespace p10ee::service {

using common::Error;
using common::Expected;
using common::Status;

namespace {

/** How long a worker waits for the coordinator's cache_result before
    treating the probe as a miss. Generous next to a heartbeat interval
    (the pump keeps running through the wait) yet bounded — a mute
    coordinator costs one extra simulation, never a wedged executor. */
constexpr int kRemoteCacheWaitMs = 2000;

/** Daemon instrumentation, interned once per process. */
struct DaemonMetrics
{
    obs::MetricId connections =
        obs::metrics().counter("service.connections");
    obs::MetricId cancels = obs::metrics().counter("service.cancels");
};

DaemonMetrics&
daemonMetrics()
{
    static DaemonMetrics m;
    return m;
}

} // namespace

Daemon::Connection::~Connection()
{
    if (fd >= 0)
        ::close(fd);
}

void
Daemon::Connection::sendLine(const std::string& line)
{
    std::lock_guard<std::mutex> lock(writeMu);
    sendLocked(line);
}

void
Daemon::Connection::sendLocked(const std::string& line)
{
    if (alive.load(std::memory_order_relaxed) &&
        !service::sendLine(fd, line))
        alive.store(false, std::memory_order_relaxed);
}

Daemon::Daemon(DaemonOptions opts)
    : opts_(opts),
      service_(api::Service::Options{opts.cacheDir}),
      queue_(opts.queueCapacity),
      startTime_(std::chrono::steady_clock::now())
{
    if (opts_.executors < 1)
        opts_.executors = 1;
    if (opts_.jobsPerRequest < 1)
        opts_.jobsPerRequest = 1;
}

Daemon::~Daemon()
{
    if (!stopped_ && listenFd_ >= 0)
        waitUntilStopped();
    // Closed only here: requestDrain() may still be called from any
    // thread after waitUntilStopped() returned.
    for (int fd : wakeFds_)
        if (fd >= 0)
            ::close(fd);
}

Status
Daemon::start()
{
    // Set-up failures are recoverable Errors (port in use, ...).
    auto fail = [this](const std::string& call) -> Status {
        Error e = Error::transient(call + ": " + std::strerror(errno));
        if (listenFd_ >= 0)
            ::close(listenFd_);
        listenFd_ = -1;
        return e;
    };
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        return fail("socket()");
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // localhost only
    addr.sin_port = htons(opts_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0)
        return fail("bind(127.0.0.1:" + std::to_string(opts_.port) + ")");
    if (::listen(listenFd_, 16) != 0)
        return fail("listen()");
    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0)
        return fail("getsockname()");
    port_ = ntohs(addr.sin_port);
    // The drain wake-up: requestDrain() writes a byte here, so the
    // accept thread sleeps in poll() with no timeout.
    if (::pipe2(wakeFds_, O_CLOEXEC | O_NONBLOCK) != 0)
        return fail("pipe2()");

    acceptThread_ = std::thread([this] { acceptLoop(); });
    executors_.reserve(static_cast<size_t>(opts_.executors));
    for (int i = 0; i < opts_.executors; ++i)
        executors_.emplace_back([this] { executorLoop(); });
    return common::okStatus();
}

void
Daemon::requestDrain()
{
    draining_.store(true);
    queue_.drain();
    if (wakeFds_[1] >= 0) {
        const char byte = 0;
        // A full pipe already holds a wake-up; nothing else can fail.
        (void)!::write(wakeFds_[1], &byte, 1);
    }
}

void
Daemon::waitUntilStopped()
{
    requestDrain();
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Executors exit once the queue is drained; joining them first
    // guarantees every in-flight response was written before any
    // socket is torn down — the "graceful" in graceful drain.
    for (std::thread& t : executors_)
        if (t.joinable())
            t.join();
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        for (const auto& conn : conns_)
            ::shutdown(conn->fd, SHUT_RDWR); // wake blocked readers
    }
    std::vector<std::thread> readers;
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        readers.swap(readers_);
    }
    for (std::thread& t : readers)
        if (t.joinable())
            t.join();
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        conns_.clear();
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    stopped_ = true;
}

void
Daemon::acceptLoop()
{
    while (!draining_.load()) {
        pollfd pfds[2] = {{listenFd_, POLLIN, 0},
                          {wakeFds_[0], POLLIN, 0}};
        int rc = ::poll(pfds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (pfds[1].revents != 0)
            break; // requestDrain() woke us
        if ((pfds[0].revents & POLLIN) == 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        configureStream(fd);
        connections_.fetch_add(1);
        obs::metrics().add(daemonMetrics().connections);
        auto conn = std::make_shared<Connection>(fd);
        std::lock_guard<std::mutex> lock(connsMu_);
        conns_.push_back(conn);
        readers_.emplace_back(
            [this, conn] { readerLoop(std::move(conn)); });
    }
}

void
Daemon::readerLoop(std::shared_ptr<Connection> conn)
{
    LineReader reader(conn->fd);
    std::string line;
    LineReader::Result rc;
    while ((rc = reader.next(&line)) == LineReader::Result::Line)
        if (!line.empty())
            handleLine(conn, line);
    // Framing violations are connection-fatal: one structured error,
    // then hang up so a peer still reading sees EOF instead of a socket
    // that never speaks again. An oversize line was bounded before it
    // reached the parser. A fragment cut by EOF counts as a rejected
    // request and is never dispatched: it can be a complete, valid
    // JSON request whose trailing newline died with the client, and
    // executing it would tie an executor to a connection nobody is
    // reading. sendLine absorbs the (likely dead) peer.
    if (rc == LineReader::Result::Eof)
        return;
    if (rc == LineReader::Result::Truncated)
        rejected_.fetch_add(1);
    conn->sendLine(errorLine(
        "", Error::invalidArgument(
                rc == LineReader::Result::Oversize
                    ? "request line exceeds " +
                          std::to_string(kMaxRequestBytes) + " bytes"
                    : "connection closed mid-request (" +
                          std::to_string(reader.buffered()) +
                          " bytes without newline); request "
                          "discarded")));
    ::shutdown(conn->fd, SHUT_RDWR);
}

void
Daemon::handleLine(const std::shared_ptr<Connection>& conn,
                   std::string_view line)
{
    Expected<Request> reqOr = Request::parse(line);
    if (!reqOr) {
        rejected_.fetch_add(1);
        conn->sendLine(errorLine("", reqOr.error()));
        return;
    }
    Request& req = reqOr.value();

    switch (req.type) {
      case RequestType::Stats:
        conn->sendLine(statsLine(req.id));
        return;
      case RequestType::Metrics:
        // The registry dump is deterministic (sorted keys) and built
        // inline like stats: introspection must work even when every
        // executor is busy.
        conn->sendLine(metricsLine(req.id, obs::metrics().toJson()));
        return;
      case RequestType::Shutdown:
        conn->sendLine(acceptedLine(req.id, queue_.depth()));
        requestDrain();
        return;
      case RequestType::Cancel: {
        std::shared_ptr<std::atomic<bool>> flag;
        {
            std::lock_guard<std::mutex> lock(activeMu_);
            auto it = active_.find(req.target);
            if (it != active_.end())
                flag = it->second;
        }
        if (!flag) {
            conn->sendLine(errorLine(
                req.id, Error::notFound("no queued or running request '" +
                                        req.target + "'")));
            return;
        }
        flag->store(true);
        // If it is still queued, retire it now so it never runs; the
        // submitting client hears a `cancelled` error on its own
        // connection, the canceller an acknowledgement on this one.
        if (std::optional<Job> job = queue_.remove(req.target)) {
            job->send(errorLine(req.target,
                                Error::cancelled(
                                    "request cancelled while queued")));
            finishJob(req.target);
            cancelled_.fetch_add(1);
        }
        obs::metrics().add(daemonMetrics().cancels);
        conn->sendLine(acceptedLine(req.id, queue_.depth()));
        return;
      }
      case RequestType::CacheResult:
        // The answer to one of our own cache_get probes, not a job:
        // route it to the waiting executor, or drop it silently when
        // the probe already timed out (a probe is best-effort).
        routeCacheResult(req);
        return;
      case RequestType::Run:
      case RequestType::Sweep:
      case RequestType::Shard:
        break;
    }

    if (draining_.load()) {
        rejected_.fetch_add(1);
        conn->sendLine(errorLine(
            req.id, Error::overloaded(
                        "p10d is draining; request rejected — this "
                        "instance will not accept work again")));
        return;
    }

    Job job;
    job.cancel = std::make_shared<std::atomic<bool>>(false);
    job.send = [conn](const std::string& l) { conn->sendLine(l); };
    bool duplicate = false;
    {
        std::lock_guard<std::mutex> lock(activeMu_);
        duplicate = !active_.emplace(req.id, job.cancel).second;
    }
    if (duplicate) {
        conn->sendLine(errorLine(
            req.id, Error::invalidArgument("request id '" + req.id +
                                           "' is already active")));
        return;
    }
    job.req = std::move(req);
    const std::string id = job.req.id;
    // The push happens under the connection's write lock and the reply
    // goes out before the lock is released: an executor that pops the
    // job at once blocks in its first send until `accepted` is on the
    // wire, so no line for this request can precede it. An overloaded
    // push answers with the `error` line alone.
    Status pushed = common::okStatus();
    {
        std::lock_guard<std::mutex> lock(conn->writeMu);
        pushed = queue_.push(std::move(job));
        conn->sendLocked(pushed ? acceptedLine(id, queue_.depth())
                                : errorLine(id, pushed.error()));
    }
    if (!pushed) {
        finishJob(id);
        rejected_.fetch_add(1);
    }
}

void
Daemon::executorLoop()
{
    Job job;
    while (queue_.pop(&job)) {
        execute(job);
        finishJob(job.req.id);
        job = Job{};
    }
}

void
Daemon::execute(Job& job)
{
    const std::string& id = job.req.id;
    if (job.cancel->load()) {
        // Cancelled between queue removal racing and pop: honour it.
        cancelled_.fetch_add(1);
        job.send(errorLine(
            id, Error::cancelled("request cancelled before execution")));
        return;
    }

    if (job.req.type == RequestType::Shard) {
        executeShard(job);
        return;
    }

    if (job.req.type == RequestType::Run) {
        api::RunRequest run = job.req.run;
        if (job.req.timeoutCycles != 0 &&
            (run.maxCycles == 0 ||
             job.req.timeoutCycles < run.maxCycles))
            run.maxCycles = job.req.timeoutCycles;
        Expected<api::RunOutcome> outcome = service_.runOne(run);
        if (!outcome) {
            failed_.fetch_add(1);
            job.send(errorLine(id, outcome.error()));
            return;
        }
        simulatedShards_.fetch_add(1);
        completed_.fetch_add(1);
        obs::JsonReport report =
            api::Service::runReport(run, outcome.value());
        job.send(doneLine(id, 0, 1, report.toJson()));
        return;
    }

    api::SweepOptions sweepOpts;
    sweepOpts.jobs = opts_.jobsPerRequest;
    sweepOpts.cancel = job.cancel.get();
    sweepOpts.maxCyclesOverride = job.req.timeoutCycles;
    // A write per cache-hit line costs the client a wake-up each: hit
    // lines wait for the next simulated shard's line or the sweep's end.
    std::string held;
    sweepOpts.onProgress = [&](const api::ProgressEvent& ev) {
        held += (held.empty() ? "" : "\n") + progressLine(id, ev);
        if (!ev.fromCache)
            job.send(std::exchange(held, {}));
    };
    Expected<sweep::SweepResult> resultOr =
        service_.runSweep(job.req.spec, sweepOpts);
    if (!held.empty())
        job.send(held);
    if (!resultOr) {
        failed_.fetch_add(1);
        job.send(errorLine(id, resultOr.error()));
        return;
    }
    const sweep::SweepResult& result = resultOr.value();
    cachedShards_.fetch_add(result.cachedShards);
    simulatedShards_.fetch_add(result.simulatedShards -
                               result.cancelledShards);
    if (result.cancelledShards > 0) {
        // A partially-cancelled sweep's report is not the spec's
        // canonical artifact; report the cancellation instead.
        cancelled_.fetch_add(1);
        job.send(errorLine(
            id, Error::cancelled(
                    "request cancelled after " +
                    std::to_string(result.shards.size() -
                                   result.cancelledShards) +
                    " of " + std::to_string(result.shards.size()) +
                    " shards")));
        return;
    }
    completed_.fetch_add(1);
    obs::JsonReport report =
        api::Service::mergedReport(job.req.spec, result);
    job.send(doneLine(id, result.cachedShards, result.simulatedShards,
                      report.toJson()));
}

void
Daemon::executeShard(Job& job)
{
    const std::string id = job.req.id;

    // Tracing: the queue wait ended the moment the executor picked the
    // job up; the coordinator gets both phases as durations on
    // shard_done and anchors them at arrival, so no clock crosses the
    // process boundary.
    const std::string trace = job.req.trace;
    const auto execStart = std::chrono::steady_clock::now();
    const uint64_t queueUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            execStart - job.enqueued)
            .count());

    // Heartbeats bracket the WHOLE execution — remote cache waits
    // included — so the coordinator's liveness window never depends on
    // which phase the shard is in. The pump is joined before the
    // terminal line goes out: a coordinator never sees a heartbeat
    // after shard_done.
    std::atomic<bool> done{false};
    std::thread heartbeat;
    if (job.req.heartbeatMs > 0) {
        auto send = job.send;
        const uint64_t intervalMs = job.req.heartbeatMs;
        heartbeat = std::thread([send, id, trace, intervalMs, &done] {
            auto last = std::chrono::steady_clock::now();
            while (!done.load()) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                auto now = std::chrono::steady_clock::now();
                if (now - last >=
                    std::chrono::milliseconds(intervalMs)) {
                    send(heartbeatLine(id, trace));
                    last = now;
                }
            }
        });
    }

    api::ShardOptions shardOpts;
    shardOpts.maxCyclesOverride = job.req.timeoutCycles;
    if (job.req.remoteCache) {
        auto send = job.send;
        shardOpts.remoteLookup = [this, send, id](uint64_t key) {
            return remoteCacheLookup(send, id, key);
        };
        shardOpts.remoteStore =
            [send, id](uint64_t key,
                       const std::vector<uint8_t>& entry) {
                send(cachePutLine(id, key, entry));
            };
    }
    Expected<api::ShardOutcome> outcomeOr =
        service_.runShard(job.req.spec, job.req.shardIndex, shardOpts);

    done.store(true);
    if (heartbeat.joinable())
        heartbeat.join();

    if (!outcomeOr) {
        failed_.fetch_add(1);
        job.send(errorLine(id, outcomeOr.error()));
        return;
    }
    const api::ShardOutcome& outcome = outcomeOr.value();
    if (outcome.result.fromCache)
        cachedShards_.fetch_add(1);
    else
        simulatedShards_.fetch_add(1);
    completed_.fetch_add(1);
    const uint64_t execUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - execStart)
            .count());
    job.send(shardDoneLine(id, job.req.shardIndex,
                           outcome.result.fromCache, outcome.entry,
                           trace, queueUs, execUs));
}

std::optional<std::vector<uint8_t>>
Daemon::remoteCacheLookup(
    const std::function<void(const std::string&)>& send,
    const std::string& id, uint64_t key)
{
    auto wait = std::make_shared<CacheWait>();
    {
        std::lock_guard<std::mutex> lock(cacheWaitsMu_);
        cacheWaits_[id] = wait;
    }
    send(cacheGetLine(id, key));
    std::optional<std::vector<uint8_t>> out;
    {
        std::unique_lock<std::mutex> lock(wait->mu);
        wait->cv.wait_for(
            lock, std::chrono::milliseconds(kRemoteCacheWaitMs),
            [&wait] { return wait->delivered; });
        if (wait->delivered && wait->hit)
            out = std::move(wait->data);
    }
    {
        std::lock_guard<std::mutex> lock(cacheWaitsMu_);
        cacheWaits_.erase(id);
    }
    return out;
}

void
Daemon::routeCacheResult(const Request& req)
{
    std::shared_ptr<CacheWait> wait;
    {
        std::lock_guard<std::mutex> lock(cacheWaitsMu_);
        auto it = cacheWaits_.find(req.id);
        if (it != cacheWaits_.end())
            wait = it->second;
    }
    if (!wait)
        return; // probe already timed out (or unsolicited): drop
    std::lock_guard<std::mutex> lock(wait->mu);
    if (wait->delivered)
        return; // duplicate answer: first one wins
    wait->delivered = true;
    wait->hit = req.cacheHit;
    wait->data = req.cacheData;
    wait->cv.notify_all();
}

void
Daemon::finishJob(const std::string& id)
{
    std::lock_guard<std::mutex> lock(activeMu_);
    active_.erase(id);
}

std::string
Daemon::statsLine(const std::string& id) const
{
    const uint64_t cached = cachedShards_.load();
    const uint64_t simulated = simulatedShards_.load();
    const uint64_t shards = cached + simulated;
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      startTime_)
            .count();
    size_t active = 0;
    {
        std::lock_guard<std::mutex> lock(activeMu_);
        active = active_.size();
    }

    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("event").value("stats");
    w.key("queue_depth").value(static_cast<uint64_t>(queue_.depth()));
    w.key("active_requests").value(static_cast<uint64_t>(active));
    w.key("completed").value(completed_.load());
    w.key("failed").value(failed_.load());
    w.key("cancelled").value(cancelled_.load());
    w.key("rejected").value(rejected_.load());
    w.key("connections").value(connections_.load());
    w.key("cached_shards").value(cached);
    w.key("simulated_shards").value(simulated);
    w.key("cache_hit_rate")
        .value(shards > 0 ? static_cast<double>(cached) /
                                static_cast<double>(shards)
                          : 0.0);
    w.key("shards_per_sec")
        .value(uptime > 0.0 ? static_cast<double>(shards) / uptime
                            : 0.0);
    w.key("uptime_s").value(uptime);
    w.key("draining").value(draining_.load());
    w.endObject();
    return w.str();
}

} // namespace p10ee::service
