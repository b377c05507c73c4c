/**
 * @file
 * Tests of the p10d service layer: wire-protocol parsing (hostile
 * input included), the bounded priority JobQueue, the NDJSON stream
 * transport (TCP_NODELAY, framed writes, the bounded line reader), the
 * live daemon over real loopback sockets, and the three-way equivalence
 * contract — the same sweep spec produces byte-identical merged reports
 * via a library call, the offline `p10sweep_cli` binary, and a live
 * `p10d` socket round-trip, cold or warm cache, at any jobs count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/service.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "service/queue.h"
#include "service/stream.h"
#include "sweep/spec.h"

using namespace p10ee;

namespace {

const char* kSpecJson =
    "{\"configs\":[\"power10\"],\"workloads\":[\"perlbench\",\"xz\"],"
    "\"smt\":[1,2],\"seeds\":1,\"instrs\":2000,\"warmup\":500}";

sweep::SweepSpec
testSpec()
{
    auto specOr = sweep::SweepSpec::fromJson(kSpecJson);
    EXPECT_TRUE(specOr.ok());
    return specOr.value();
}

/** The canonical bytes the daemon must reproduce for kSpecJson. */
std::string
libraryReportBytes(const std::string& cacheDir = "")
{
    api::Service service(api::Service::Options{cacheDir});
    api::SweepOptions opts;
    opts.jobs = 2;
    auto result = service.runSweep(testSpec(), opts);
    EXPECT_TRUE(result.ok());
    return api::Service::mergedReport(testSpec(), result.value())
        .toJson();
}

std::string
freshDir(const std::string& stem)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / stem).string();
    std::filesystem::remove_all(dir);
    return dir;
}

/** Minimal NDJSON client over a blocking loopback socket. */
class Client
{
  public:
    explicit Client(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        // A bound read timeout turns a hung daemon into a test
        // failure instead of a CI timeout (generous for sanitizers).
        timeval tv{120, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
    }
    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    sendLine(const std::string& line)
    {
        std::string framed = line;
        framed += '\n';
        size_t off = 0;
        while (off < framed.size()) {
            ssize_t n = ::send(fd_, framed.data() + off,
                               framed.size() - off, MSG_NOSIGNAL);
            ASSERT_GT(n, 0);
            off += static_cast<size_t>(n);
        }
    }

    /** Write @p raw without the NDJSON terminator (half-request). */
    void
    sendRaw(const std::string& raw)
    {
        size_t off = 0;
        while (off < raw.size()) {
            ssize_t n = ::send(fd_, raw.data() + off, raw.size() - off,
                               MSG_NOSIGNAL);
            ASSERT_GT(n, 0);
            off += static_cast<size_t>(n);
        }
    }

    /** Half-close: signal EOF to the daemon, keep reading replies. */
    void shutdownWrite() { ::shutdown(fd_, SHUT_WR); }

    /** Next response line ("" on EOF/timeout). */
    std::string
    readLine()
    {
        for (;;) {
            size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            // With SO_RCVTIMEO set, a stop/continue of this process
            // fails recv with EINTR instead of restarting it.
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return "";
            buf_.append(chunk, static_cast<size_t>(n));
        }
    }

    /** Skip progress lines until the final event for @p id. */
    std::string
    readFinal(const std::string& id)
    {
        for (;;) {
            std::string line = readLine();
            if (line.empty())
                return "";
            auto doc = obs::parseJson(line);
            if (!doc.ok() || !doc.value().isObject())
                return line;
            const obs::JsonValue* ev = doc.value().find("event");
            const obs::JsonValue* rid = doc.value().find("id");
            if (ev == nullptr || rid == nullptr ||
                rid->string != id)
                continue;
            if (ev->string == "done" || ev->string == "error")
                return line;
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

std::string
field(const std::string& line, const std::string& key)
{
    auto doc = obs::parseJson(line);
    EXPECT_TRUE(doc.ok()) << line;
    const obs::JsonValue* v = doc.value().find(key);
    if (v == nullptr)
        return "";
    if (v->isString())
        return v->string;
    if (v->isNumber())
        return obs::JsonWriter::number(v->number);
    return "";
}

service::Request
mustParse(const std::string& line)
{
    auto reqOr = service::Request::parse(line);
    EXPECT_TRUE(reqOr.ok()) << (reqOr.ok() ? "" : reqOr.error().str());
    return reqOr.ok() ? reqOr.value() : service::Request{};
}

// --- Protocol ---

TEST(Protocol, ParsesEveryRequestType)
{
    auto sweepReq = mustParse(
        std::string("{\"type\":\"sweep\",\"id\":\"s1\",\"priority\":5,"
                    "\"timeout_cycles\":100,\"spec\":") +
        kSpecJson + "}");
    EXPECT_EQ(sweepReq.type, service::RequestType::Sweep);
    EXPECT_EQ(sweepReq.id, "s1");
    EXPECT_EQ(sweepReq.priority, 5);
    EXPECT_EQ(sweepReq.timeoutCycles, 100u);
    EXPECT_EQ(sweepReq.spec.shardCount(), 4u);

    auto runReq = mustParse(
        "{\"type\":\"run\",\"id\":\"r1\",\"config\":\"power9\","
        "\"workload\":\"xz\",\"smt\":2,\"instrs\":1000,\"warmup\":100,"
        "\"seed\":3}");
    EXPECT_EQ(runReq.type, service::RequestType::Run);
    EXPECT_EQ(runReq.run.config, "power9");
    EXPECT_EQ(runReq.run.smt, 2);
    EXPECT_EQ(runReq.run.seed, 3u);

    EXPECT_EQ(mustParse("{\"type\":\"stats\"}").type,
              service::RequestType::Stats);
    EXPECT_EQ(mustParse("{\"type\":\"cancel\",\"id\":\"c\","
                        "\"target\":\"s1\"}")
                  .target,
              "s1");
    EXPECT_EQ(mustParse("{\"type\":\"shutdown\"}").type,
              service::RequestType::Shutdown);
}

TEST(Protocol, RejectsHostileInput)
{
    // Spec-body problems surface as InvalidConfig (SweepSpec's own
    // validation); everything else is InvalidArgument. Both map to a
    // client-fault error event, never a crash.
    auto reject = [](const std::string& line) {
        auto r = service::Request::parse(line);
        ASSERT_FALSE(r.ok()) << line;
        EXPECT_TRUE(r.error().code == common::ErrorCode::InvalidArgument ||
                    r.error().code == common::ErrorCode::InvalidConfig)
            << line << " -> " << r.error().str();
    };
    reject("{nope");                       // malformed
    reject("[1,2,3]");                     // not an object
    reject("{\"type\":\"frobnicate\"}");   // unknown type
    reject("{\"type\":\"sweep\"}");        // missing id
    reject("{\"type\":\"sweep\",\"id\":\"\",\"spec\":{}}"); // empty id
    reject("{\"type\":\"sweep\",\"id\":\"x\"}");    // missing spec
    reject("{\"type\":\"sweep\",\"id\":\"x\",\"spec\":"
           "{\"configz\":[\"power10\"]}}"); // typo'd spec key
    reject(std::string("{\"type\":\"sweep\",\"id\":\"x\",\"spec\":") +
           kSpecJson + ",\"bogus\":1}"); // unknown envelope key
    reject("{\"type\":\"run\",\"id\":\"x\",\"smt\":\"four\"}");
    reject("{\"type\":\"run\",\"id\":\"x\",\"frequency\":9}");
    reject("{\"type\":\"run\",\"id\":\"x\",\"smt\":3}"); // validate()
    reject("{\"type\":\"cancel\",\"id\":\"x\"}");        // no target
    reject("{\"type\":\"sweep\",\"id\":\"x\",\"priority\":101,"
           "\"spec\":{}}");
    reject("{\"type\":\"sweep\",\"id\":\"x\",\"priority\":1.5,"
           "\"spec\":{}}");
    reject("{\"type\":\"run\",\"id\":\"t\""); // truncated
    // Oversized before any parsing work.
    std::string huge = "{\"type\":\"stats\",\"id\":\"";
    huge += std::string(service::kMaxRequestBytes, 'a');
    huge += "\"}";
    reject(huge);
}

TEST(Protocol, ModeCrossesTheWireStrictly)
{
    // The mode key is optional (absent = full, the historical wire
    // shape) and strictly validated: only the canonical names pass.
    auto fast = mustParse(
        "{\"type\":\"run\",\"id\":\"r1\",\"config\":\"power10\","
        "\"workload\":\"xz\",\"instrs\":1000,\"warmup\":100,"
        "\"mode\":\"fast_m1\"}");
    EXPECT_EQ(fast.run.mode, api::SimMode::FastM1);

    auto full = mustParse(
        "{\"type\":\"run\",\"id\":\"r2\",\"config\":\"power10\","
        "\"workload\":\"xz\",\"instrs\":1000,\"mode\":\"full\"}");
    EXPECT_EQ(full.run.mode, api::SimMode::Full);

    auto absent = mustParse(
        "{\"type\":\"run\",\"id\":\"r3\",\"config\":\"power10\","
        "\"workload\":\"xz\",\"instrs\":1000}");
    EXPECT_EQ(absent.run.mode, api::SimMode::Full);

    // Hostile values are rejected with the offending field named, at
    // the wire layer — never silently defaulted.
    for (const char* bad :
         {"\"turbo\"", "\"FULL\"", "\"fast-m1\"", "5", "null"}) {
        auto r = service::Request::parse(
            std::string("{\"type\":\"run\",\"id\":\"x\","
                        "\"config\":\"power10\",\"workload\":\"xz\","
                        "\"instrs\":1000,\"mode\":") +
            bad + "}");
        ASSERT_FALSE(r.ok()) << bad;
        EXPECT_EQ(r.error().field, "mode") << bad;
    }

    // A sweep spec with a hostile mode axis dies the same way.
    auto sweepBad = service::Request::parse(
        "{\"type\":\"sweep\",\"id\":\"s\",\"spec\":{"
        "\"configs\":[\"power10\"],\"workloads\":[\"xz\"],"
        "\"mode\":[\"warp9\"]}}");
    ASSERT_FALSE(sweepBad.ok());
    EXPECT_EQ(sweepBad.error().field, "mode");
}

TEST(Protocol, ErrorLineCarriesTheFieldKey)
{
    // Structured validation errors surface their field name verbatim
    // on the NDJSON error line, so a client can point at the exact
    // offending request key.
    common::Error withField{common::ErrorCode::InvalidArgument,
                            "run request: smt must be 1, 2, 4 or 8",
                            "smt"};
    const std::string line = service::errorLine("r1", withField);
    EXPECT_NE(line.find("\"field\":\"smt\""), std::string::npos)
        << line;

    // Errors not tied to one field keep the historical line shape: no
    // field key at all rather than an empty one.
    common::Error without = common::Error::timeout("too slow");
    const std::string bare = service::errorLine("r2", without);
    EXPECT_EQ(bare.find("\"field\""), std::string::npos) << bare;
}

TEST(Protocol, DoneLineEmbedsReportVerbatim)
{
    const std::string report =
        "{\"schema\":\"p10ee-report/1\",\"nested\":{\"x\":[1,2]}}";
    const std::string line = service::doneLine("req-1", 3, 5, report);
    EXPECT_EQ(line.find("\"report\":") + 9 + report.size() + 1,
              line.size());
    auto extracted = service::extractReport(line);
    ASSERT_TRUE(extracted.ok());
    EXPECT_EQ(extracted.value(), report);

    EXPECT_FALSE(
        service::extractReport(service::acceptedLine("x", 0)).ok());
}

// --- JobQueue ---

service::Job
makeJob(const std::string& id, int priority)
{
    service::Job job;
    job.req.type = service::RequestType::Sweep;
    job.req.id = id;
    job.req.priority = priority;
    job.cancel = std::make_shared<std::atomic<bool>>(false);
    job.send = [](const std::string&) {};
    return job;
}

TEST(JobQueue, PriorityDescendingFifoWithin)
{
    service::JobQueue q(8);
    ASSERT_TRUE(q.push(makeJob("low", -1)).ok());
    ASSERT_TRUE(q.push(makeJob("hi-a", 10)).ok());
    ASSERT_TRUE(q.push(makeJob("mid", 0)).ok());
    ASSERT_TRUE(q.push(makeJob("hi-b", 10)).ok());

    service::Job job;
    std::vector<std::string> order;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.pop(&job));
        order.push_back(job.req.id);
    }
    EXPECT_EQ(order,
              (std::vector<std::string>{"hi-a", "hi-b", "mid", "low"}));
}

TEST(JobQueue, OverloadIsStructuredBackpressure)
{
    service::JobQueue q(2);
    ASSERT_TRUE(q.push(makeJob("a", 0)).ok());
    ASSERT_TRUE(q.push(makeJob("b", 0)).ok());
    auto st = q.push(makeJob("c", 0));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, common::ErrorCode::Overloaded);
    EXPECT_EQ(q.depth(), 2u);
}

TEST(JobQueue, OverloadMessageCarriesDepthAndRetryHint)
{
    // The overload error is a client-facing retry contract: it must
    // name the queue pressure (depth of capacity) and carry a
    // retry-after hint clients like p10_client.py key their backoff
    // off, for the full and the draining flavours alike.
    service::JobQueue full(2);
    ASSERT_TRUE(full.push(makeJob("a", 0)).ok());
    ASSERT_TRUE(full.push(makeJob("b", 0)).ok());
    auto fullSt = full.push(makeJob("c", 0));
    ASSERT_FALSE(fullSt.ok());
    EXPECT_NE(fullSt.error().message.find("2 of 2"),
              std::string::npos)
        << fullSt.error().message;
    EXPECT_NE(fullSt.error().message.find("retry after"),
              std::string::npos)
        << fullSt.error().message;

    service::JobQueue draining(4);
    ASSERT_TRUE(draining.push(makeJob("a", 0)).ok());
    draining.drain();
    auto drainSt = draining.push(makeJob("b", 0));
    ASSERT_FALSE(drainSt.ok());
    EXPECT_NE(drainSt.error().message.find("1 of 4"),
              std::string::npos)
        << drainSt.error().message;
    EXPECT_NE(drainSt.error().message.find("submit elsewhere"),
              std::string::npos)
        << drainSt.error().message;
}

TEST(JobQueue, RemoveWithdrawsQueuedJob)
{
    service::JobQueue q(4);
    ASSERT_TRUE(q.push(makeJob("a", 0)).ok());
    ASSERT_TRUE(q.push(makeJob("b", 0)).ok());
    auto removed = q.remove("a");
    ASSERT_TRUE(removed.has_value());
    EXPECT_EQ(removed->req.id, "a");
    EXPECT_FALSE(q.remove("nope").has_value());
    EXPECT_EQ(q.depth(), 1u);
}

TEST(JobQueue, DrainServesBacklogThenStops)
{
    service::JobQueue q(4);
    ASSERT_TRUE(q.push(makeJob("a", 0)).ok());
    ASSERT_TRUE(q.push(makeJob("b", 0)).ok());
    q.drain();
    auto st = q.push(makeJob("c", 0));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, common::ErrorCode::Overloaded);

    service::Job job;
    EXPECT_TRUE(q.pop(&job));
    EXPECT_TRUE(q.pop(&job));
    EXPECT_FALSE(q.pop(&job)); // drained and empty: executors exit
}

// --- Stream transport ---

using service::LineReader;

/** Both ends of one TCP loopback connection, the client end dialled
    through the transport. */
struct LoopbackPair
{
    int client = -1;
    int server = -1;

    LoopbackPair()
    {
        const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof(addr);
        EXPECT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listener, 1), 0);
        EXPECT_EQ(::getsockname(listener,
                                reinterpret_cast<sockaddr*>(&addr), &len),
                  0);
        client = service::dialStream("127.0.0.1", ntohs(addr.sin_port),
                                     2000);
        server = ::accept(listener, nullptr, nullptr);
        ::close(listener);
        EXPECT_GE(client, 0);
        EXPECT_GE(server, 0);
    }
    ~LoopbackPair()
    {
        ::close(client);
        ::close(server);
    }

    /** Write @p raw from the client end in one send, then half-close
        when @p eof. */
    void
    push(const std::string& raw, bool eof)
    {
        EXPECT_EQ(::send(client, raw.data(), raw.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(raw.size()));
        if (eof)
            ::shutdown(client, SHUT_WR);
    }
};

bool
noDelay(int fd)
{
    int on = 0;
    socklen_t len = sizeof(on);
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len), 0);
    return on != 0;
}

/** This process's descriptor for the far end of @p fd's connection
    (the daemon runs in-process), found by its address pair; -1 when
    there is none. */
int
acceptedEnd(int fd)
{
    sockaddr_in self{}, peer{};
    socklen_t len = sizeof(self);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&self), &len);
    len = sizeof(peer);
    ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len);
    for (int cand = 0; cand < 1024; ++cand) {
        sockaddr_in a{}, b{};
        socklen_t la = sizeof(a), lb = sizeof(b);
        if (cand == fd ||
            ::getsockname(cand, reinterpret_cast<sockaddr*>(&a), &la) ||
            ::getpeername(cand, reinterpret_cast<sockaddr*>(&b), &lb))
            continue;
        if (a.sin_family == AF_INET && a.sin_port == peer.sin_port &&
            b.sin_port == self.sin_port)
            return cand;
    }
    return -1;
}

TEST(Stream, DaemonAndFleetSocketsSetNoDelay)
{
    // Many small NDJSON lines per request: with Nagle on, the last one
    // waits for the peer's delayed ACK. The fleet dials through
    // dialStream; the daemon configures every accepted socket.
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());
    const int fd = service::dialStream("127.0.0.1", daemon.port(), 2000);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(noDelay(fd));

    // One answered request proves the daemon accepted the connection.
    ASSERT_TRUE(service::sendLine(fd, "{\"type\":\"stats\"}"));
    LineReader reader(fd);
    std::string line;
    ASSERT_EQ(reader.next(&line, 60000), LineReader::Result::Line);
    EXPECT_EQ(field(line, "event"), "stats");
    const int accepted = acceptedEnd(fd);
    ASSERT_GE(accepted, 0);
    EXPECT_TRUE(noDelay(accepted));

    ::close(fd);
    daemon.waitUntilStopped();
}

TEST(Stream, MebibyteLineArrivesIntactThroughSmallSendBuffer)
{
    LoopbackPair pair;
    const int small = 4096;
    ::setsockopt(pair.client, SOL_SOCKET, SO_SNDBUF, &small,
                 sizeof(small));
    std::string big(1u << 20, '\0');
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>('a' + i % 26);

    bool sent = false;
    std::thread writer([&] {
        sent = service::sendLine(pair.client, big);
        ::shutdown(pair.client, SHUT_WR);
    });
    std::string got;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(pair.server, chunk, sizeof(chunk), 0)) > 0)
        got.append(chunk, static_cast<size_t>(n));
    writer.join();

    EXPECT_TRUE(sent);
    ASSERT_EQ(got.size(), big.size() + 1);
    EXPECT_EQ(got.back(), '\n');
    EXPECT_EQ(got.find('\n'), big.size()); // exactly one terminator
    EXPECT_EQ(got.compare(0, big.size(), big), 0);
}

TEST(Stream, ReaderSplitsLinesArrivingInOneChunk)
{
    LoopbackPair pair;
    LineReader reader(pair.server);
    std::string line;
    EXPECT_EQ(reader.next(&line, 0), LineReader::Result::Timeout);
    // A timed read waits once: bytes without a terminator are a
    // timeout, so a trickling peer cannot hold the caller.
    pair.push("a", false);
    EXPECT_EQ(reader.next(&line, 60000), LineReader::Result::Timeout);

    pair.push("\n{\"x\":1}\n\nlast\n", true);
    const std::vector<std::string> want = {"a", "{\"x\":1}", "", "last"};
    for (const std::string& w : want) {
        ASSERT_EQ(reader.next(&line), LineReader::Result::Line);
        EXPECT_EQ(line, w);
    }
    EXPECT_EQ(reader.next(&line), LineReader::Result::Eof);
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Stream, ReaderRejectsOversizePrefixBeforeScanning)
{
    // Unterminated: the bound must fire without waiting for a newline
    // (the writer never sends one and never closes).
    {
        LoopbackPair pair;
        std::thread writer([&] {
            pair.push(std::string(service::kMaxRequestBytes + 1, 'x'),
                      false);
        });
        LineReader reader(pair.server);
        std::string line = "untouched";
        EXPECT_EQ(reader.next(&line), LineReader::Result::Oversize);
        EXPECT_EQ(line, "untouched");
        writer.join();
    }
    // Terminated in the same stream, a valid line behind it: the
    // oversize line is still never handed out.
    {
        LoopbackPair pair;
        std::thread writer([&] {
            pair.push(std::string(service::kMaxRequestBytes + 1, 'x') +
                          "\n{\"type\":\"stats\"}\n",
                      true);
        });
        LineReader reader(pair.server);
        std::string line = "untouched";
        EXPECT_EQ(reader.next(&line), LineReader::Result::Oversize);
        EXPECT_EQ(line, "untouched");
        writer.join();
    }
}

TEST(Stream, ReaderReportsEofFragmentWithoutDispatchingIt)
{
    LoopbackPair pair;
    const std::string fragment = "{\"type\":\"stats\"}";
    pair.push("ok\n" + fragment, true);
    LineReader reader(pair.server);
    std::string line;
    ASSERT_EQ(reader.next(&line), LineReader::Result::Line);
    EXPECT_EQ(line, "ok");
    line = "untouched";
    EXPECT_EQ(reader.next(&line), LineReader::Result::Truncated);
    EXPECT_EQ(line, "untouched");
    EXPECT_EQ(reader.buffered(), fragment.size());
}

// --- Daemon over live sockets ---

std::string
sweepRequest(const std::string& id)
{
    return std::string("{\"type\":\"sweep\",\"id\":\"") + id +
           "\",\"spec\":" + kSpecJson + "}";
}

TEST(Daemon, SweepOverSocketMatchesLibraryBytes)
{
    service::DaemonOptions opts;
    opts.jobsPerRequest = 2;
    service::Daemon daemon(opts);
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(sweepRequest("s1"));
    std::string line = client.readLine();
    EXPECT_EQ(field(line, "event"), "accepted");

    uint64_t progress = 0;
    std::string done;
    for (;;) {
        line = client.readLine();
        ASSERT_FALSE(line.empty());
        const std::string ev = field(line, "event");
        if (ev == "progress") {
            ++progress;
            continue;
        }
        ASSERT_EQ(ev, "done") << line;
        done = line;
        break;
    }
    EXPECT_EQ(progress, 4u);
    auto report = service::extractReport(done);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value(), libraryReportBytes());

    daemon.waitUntilStopped();
}

TEST(Daemon, ServesEightConcurrentRequests)
{
    service::DaemonOptions opts;
    opts.executors = 8;
    opts.queueCapacity = 16;
    service::Daemon daemon(opts);
    ASSERT_TRUE(daemon.start().ok());

    const std::string expected = libraryReportBytes();
    std::vector<std::string> reports(8);
    std::vector<std::thread> clients;
    for (int i = 0; i < 8; ++i) {
        clients.emplace_back([&, i] {
            Client client(daemon.port());
            const std::string id = "c" + std::to_string(i);
            client.sendLine(sweepRequest(id));
            const std::string done = client.readFinal(id);
            auto report = service::extractReport(done);
            if (report.ok())
                reports[static_cast<size_t>(i)] = report.value();
        });
    }
    for (auto& t : clients)
        t.join();
    for (const std::string& r : reports)
        EXPECT_EQ(r, expected);

    daemon.waitUntilStopped();
}

TEST(Daemon, WarmCacheRepeatSimulatesZeroShards)
{
    const std::string dir = freshDir("p10ee_daemon_cache_test");
    service::DaemonOptions opts;
    opts.cacheDir = dir;
    opts.jobsPerRequest = 2;
    service::Daemon daemon(opts);
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(sweepRequest("cold"));
    std::string cold = client.readFinal("cold");
    EXPECT_EQ(field(cold, "event"), "done");
    EXPECT_EQ(field(cold, "cached_shards"), "0");
    EXPECT_EQ(field(cold, "simulated_shards"), "4");

    client.sendLine(sweepRequest("warm"));
    std::string warm = client.readFinal("warm");
    EXPECT_EQ(field(warm, "event"), "done");
    EXPECT_EQ(field(warm, "cached_shards"), "4");
    EXPECT_EQ(field(warm, "simulated_shards"), "0");

    auto coldReport = service::extractReport(cold);
    auto warmReport = service::extractReport(warm);
    ASSERT_TRUE(coldReport.ok());
    ASSERT_TRUE(warmReport.ok());
    EXPECT_EQ(coldReport.value(), warmReport.value());

    daemon.waitUntilStopped();
    std::filesystem::remove_all(dir);
}

TEST(Daemon, HeldCacheHitProgressKeepsBytesAndOrder)
{
    // Cache-hit progress lines are held and leave with the next
    // simulated shard's line or ahead of the final line; the client
    // still sees every line, byte for byte, in shard order.
    const std::string dir = freshDir("p10ee_daemon_held_progress_test");
    service::DaemonOptions opts;
    opts.cacheDir = dir;
    service::Daemon daemon(opts);
    ASSERT_TRUE(daemon.start().ok());
    Client client(daemon.port());

    // The replies to one sweep request after `accepted`: its progress
    // lines, then its final line.
    auto sweep = [&client](const std::string& id, const std::string& spec) {
        client.sendLine("{\"type\":\"sweep\",\"id\":\"" + id +
                        "\",\"spec\":" + spec + "}");
        EXPECT_EQ(field(client.readLine(), "event"), "accepted");
        std::vector<std::string> lines;
        for (std::string l = client.readLine(); !l.empty();
             l = client.readLine()) {
            lines.push_back(l);
            if (field(l, "event") != "progress")
                break;
        }
        return lines;
    };
    // Warm only the perlbench shards, so the full sweep mixes held hits
    // with simulated shards.
    std::string half = kSpecJson;
    const std::string both = "\"perlbench\",\"xz\"";
    half.replace(half.find(both), both.size(), "\"perlbench\"");
    ASSERT_EQ(sweep("half", half).size(), 3u);
    const std::vector<std::string> mixed = sweep("m", kSpecJson);
    const std::vector<std::string> warm = sweep("w", kSpecJson);
    ASSERT_EQ(mixed.size(), 5u);
    ASSERT_EQ(warm.size(), 5u);
    size_t hits = 0;
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(field(mixed[i], "index"), std::to_string(i));
        std::string expected = warm[i];
        expected.replace(0, 9, "{\"id\":\"m\""); // was {"id":"w"
        if (field(warm[i], "key").find("perlbench") == std::string::npos) {
            const std::string hit = "\"cached\":true";
            expected.replace(expected.find(hit), hit.size(),
                             "\"cached\":false");
        } else {
            ++hits;
        }
        EXPECT_EQ(mixed[i], expected);
    }
    EXPECT_EQ(hits, 2u);
    EXPECT_EQ(field(mixed[4], "cached_shards"), "2");
    auto mixedReport = service::extractReport(mixed[4]);
    auto warmReport = service::extractReport(warm[4]);
    ASSERT_TRUE(mixedReport.ok());
    ASSERT_TRUE(warmReport.ok());
    EXPECT_EQ(mixedReport.value(), libraryReportBytes());
    EXPECT_EQ(warmReport.value(), libraryReportBytes());

    daemon.waitUntilStopped();
    std::filesystem::remove_all(dir);
}

TEST(Daemon, RunRequestMatchesLibraryRunReport)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(
        "{\"type\":\"run\",\"id\":\"r1\",\"config\":\"power10\","
        "\"workload\":\"xz\",\"smt\":2,\"instrs\":2000,"
        "\"warmup\":500}");
    const std::string done = client.readFinal("r1");
    ASSERT_EQ(field(done, "event"), "done") << done;
    auto report = service::extractReport(done);
    ASSERT_TRUE(report.ok());

    api::RunRequest req;
    req.config = "power10";
    req.workload = "xz";
    req.smt = 2;
    req.instrs = 2000;
    req.warmup = 500;
    api::Service service;
    auto outcome = service.runOne(req);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(report.value(),
              api::Service::runReport(req, outcome.value()).toJson());

    daemon.waitUntilStopped();
}

TEST(Daemon, HostileInputGetsErrorEventsNotACrash)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine("this is not json");
    std::string line = client.readLine();
    EXPECT_EQ(field(line, "event"), "error");
    EXPECT_EQ(field(line, "code"), "invalid_argument");

    client.sendLine("{\"type\":\"sweep\",\"id\":\"bad\",\"spec\":"
                    "{\"configs\":[\"warp-core\"]}}");
    line = client.readLine();
    EXPECT_EQ(field(line, "event"), "error");

    // Unknown cancel target: structured not_found.
    client.sendLine(
        "{\"type\":\"cancel\",\"id\":\"c\",\"target\":\"ghost\"}");
    line = client.readLine();
    EXPECT_EQ(field(line, "event"), "error");
    EXPECT_EQ(field(line, "code"), "not_found");

    // The daemon is still fully alive afterwards.
    client.sendLine("{\"type\":\"stats\"}");
    line = client.readLine();
    EXPECT_EQ(field(line, "event"), "stats");

    daemon.waitUntilStopped();
}

TEST(Daemon, OversizedLineIsRejectedAndConnectionDropped)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    {
        Client client(daemon.port());
        std::string huge(service::kMaxRequestBytes + 512, 'x');
        client.sendLine(huge);
        std::string line = client.readLine();
        EXPECT_EQ(field(line, "event"), "error");
        EXPECT_EQ(client.readLine(), ""); // daemon hung up
    }
    // A fresh connection still works.
    Client again(daemon.port());
    again.sendLine("{\"type\":\"stats\"}");
    EXPECT_EQ(field(again.readLine(), "event"), "stats");

    daemon.waitUntilStopped();
}

TEST(Daemon, HalfClosedRequestIsRejectedNotExecuted)
{
    // A peer that dies (or gives up) mid-line leaves a syntactically
    // complete JSON object in the buffer with no NDJSON terminator.
    // That fragment is a malformed request by definition — executing
    // it would run work the client never finished submitting.
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    {
        Client client(daemon.port());
        client.sendRaw(sweepRequest("half"));
        client.shutdownWrite();
        std::string line = client.readLine();
        EXPECT_EQ(field(line, "event"), "error");
        EXPECT_EQ(field(line, "code"), "invalid_argument");
        EXPECT_NE(field(line, "message").find("mid-request"),
                  std::string::npos)
            << line;
        EXPECT_EQ(client.readLine(), ""); // no accepted/done follows
    }

    // Pin the "not executed" half: the fragment was counted rejected,
    // and nothing ran or is queued behind our back.
    Client probe(daemon.port());
    probe.sendLine("{\"type\":\"stats\"}");
    const std::string stats = probe.readLine();
    EXPECT_EQ(field(stats, "event"), "stats");
    EXPECT_EQ(field(stats, "rejected"), "1");
    EXPECT_EQ(field(stats, "completed"), "0");
    EXPECT_EQ(field(stats, "active_requests"), "0");
    EXPECT_EQ(field(stats, "queue_depth"), "0");

    daemon.waitUntilStopped();
}

TEST(Daemon, CancelQueuedRequestNeverRuns)
{
    service::DaemonOptions opts;
    opts.executors = 1; // "big" occupies the only executor
    service::Daemon daemon(opts);
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(
        std::string("{\"type\":\"sweep\",\"id\":\"big\",\"spec\":"
                    "{\"configs\":[\"power10\"],\"workloads\":"
                    "[\"perlbench\"],\"smt\":[1],\"seeds\":4,"
                    "\"instrs\":30000,\"warmup\":2000}}"));
    EXPECT_EQ(field(client.readLine(), "event"), "accepted");
    client.sendLine(sweepRequest("victim"));
    EXPECT_EQ(field(client.readLine(), "event"), "accepted");
    client.sendLine(
        "{\"type\":\"cancel\",\"id\":\"c\",\"target\":\"victim\"}");

    // The victim must terminate with a cancelled error (either
    // withdrawn from the queue or cooperatively stopped mid-run if
    // scheduling raced), and the big request must still finish.
    const std::string victimEnd = client.readFinal("victim");
    EXPECT_EQ(field(victimEnd, "event"), "error");
    EXPECT_EQ(field(victimEnd, "code"), "cancelled");
    const std::string bigEnd = client.readFinal("big");
    EXPECT_EQ(field(bigEnd, "event"), "done");

    daemon.waitUntilStopped();
}

TEST(Daemon, ShutdownRequestDrainsInFlightWork)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(sweepRequest("inflight"));
    EXPECT_EQ(field(client.readLine(), "event"), "accepted");
    client.sendLine("{\"type\":\"shutdown\"}");

    // Graceful drain: the accepted request still completes fully.
    const std::string done = client.readFinal("inflight");
    EXPECT_EQ(field(done, "event"), "done");
    auto report = service::extractReport(done);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value(), libraryReportBytes());

    EXPECT_TRUE(daemon.draining());
    daemon.waitUntilStopped(); // must terminate, not hang
}

TEST(Daemon, IdleDrainDoesNotWaitForAPollTick)
{
    // The accept thread sleeps in poll() with no timeout and drain
    // wakes it, so stopping an idle daemon costs thread joins, not the
    // 100 ms poll tick the loop once needed to notice a drain.
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());
    {
        // A round trip proves the accept loop is already parked in
        // poll() when the drain begins.
        Client client(daemon.port());
        client.sendLine("{\"type\":\"stats\",\"id\":\"st\"}");
        EXPECT_EQ(field(client.readLine(), "event"), "stats");
    }
    const auto t0 = std::chrono::steady_clock::now();
    daemon.waitUntilStopped();
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_LT(ms, 50);
}

TEST(Daemon, AcceptedPrecedesEveryLineOfItsRequest)
{
    // Many pipelined requests on one connection, each fast to execute:
    // warm sweeps (every shard a cache hit) interleaved with sweeps
    // that fail at expansion. Every `accepted` must arrive in
    // submission order with its own id, before any other line for that
    // request. Before the push moved under the connection's write lock
    // an executor could answer first; that race is rare, so this test
    // cannot catch its return deterministically — it runs under TSan
    // in CI as a stress check.
    const std::string dir = freshDir("p10ee_daemon_order_test");
    service::DaemonOptions opts;
    opts.cacheDir = dir;
    opts.executors = 4;
    opts.queueCapacity = 512;
    service::Daemon daemon(opts);
    ASSERT_TRUE(daemon.start().ok());
    Client client(daemon.port());
    client.sendLine(sweepRequest("warmup"));
    ASSERT_EQ(field(client.readFinal("warmup"), "event"), "done");

    constexpr int kRequests = 300;
    auto idOf = [](int i) { return "r" + std::to_string(i); };
    std::thread sender([&] {
        for (int i = 0; i < kRequests; ++i)
            client.sendLine(
                i % 2 == 0
                    ? sweepRequest(idOf(i))
                    : "{\"type\":\"sweep\",\"id\":\"" + idOf(i) +
                          "\",\"spec\":{\"configs\":[\"power10\"],"
                          "\"workloads\":[\"no_such_profile\"],"
                          "\"smt\":[1]}}");
    });
    // The first violation ends the read loop; the sender is joined
    // before anything is asserted.
    std::set<std::string> accepted;
    int nextAccepted = 0;
    int finished = 0;
    std::string violation;
    while (finished < kRequests && violation.empty()) {
        const std::string line = client.readLine();
        if (line.empty()) {
            violation = "daemon went silent";
            break;
        }
        const std::string id = field(line, "id");
        const std::string ev = field(line, "event");
        if (ev == "accepted") {
            if (id != idOf(nextAccepted))
                violation = "accepted out of order: " + line;
            ++nextAccepted;
            accepted.insert(id);
        } else if (accepted.count(id) == 0) {
            violation = ev + " for " + id + " arrived before its accepted";
        } else if (ev == "done" || ev == "error") {
            ++finished;
        } else if (ev != "progress") {
            violation = "unexpected line: " + line;
        }
    }
    sender.join();
    EXPECT_EQ(violation, "");
    EXPECT_EQ(nextAccepted, kRequests);
    daemon.waitUntilStopped();
    std::filesystem::remove_all(dir);
}

TEST(Daemon, StatsReportLiveMetrics)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(sweepRequest("s1"));
    EXPECT_EQ(field(client.readFinal("s1"), "event"), "done");

    client.sendLine("{\"type\":\"stats\",\"id\":\"st\"}");
    const std::string stats = client.readLine();
    EXPECT_EQ(field(stats, "event"), "stats");
    EXPECT_EQ(field(stats, "id"), "st");
    EXPECT_EQ(field(stats, "completed"), "1");
    EXPECT_EQ(field(stats, "simulated_shards"), "4");
    EXPECT_EQ(field(stats, "cached_shards"), "0");
    EXPECT_EQ(field(stats, "queue_depth"), "0");
    // Extended stats stay backward compatible: new keys only.
    EXPECT_EQ(field(stats, "connections"), "1");

    daemon.waitUntilStopped();
}

// --- The metrics introspection surface ---

TEST(Protocol, MetricsRequestAndTraceKey)
{
    EXPECT_EQ(mustParse("{\"type\":\"metrics\",\"id\":\"m\"}").type,
              service::RequestType::Metrics);

    // A validated trace context rides run/sweep/shard requests.
    const std::string trace = obs::TraceContext::derive(11).str();
    auto sweepReq = mustParse(
        std::string("{\"type\":\"sweep\",\"id\":\"s\",\"trace\":\"") +
        trace + "\",\"spec\":" + kSpecJson + "}");
    EXPECT_EQ(sweepReq.trace, trace);
    auto runReq = mustParse(
        "{\"type\":\"run\",\"id\":\"r\",\"workload\":\"xz\","
        "\"instrs\":1000,\"trace\":\"" + trace + "\"}");
    EXPECT_EQ(runReq.trace, trace);
    // Absent trace = tracing off, not an error.
    EXPECT_TRUE(mustParse("{\"type\":\"stats\"}").trace.empty());

    auto reject = [](const std::string& line) {
        auto r = service::Request::parse(line);
        ASSERT_FALSE(r.ok()) << line;
        EXPECT_EQ(r.error().code, common::ErrorCode::InvalidArgument)
            << line;
    };
    // Only traceable types accept the key.
    reject("{\"type\":\"stats\",\"id\":\"x\",\"trace\":\"" + trace +
           "\"}");
    reject("{\"type\":\"metrics\",\"id\":\"x\",\"trace\":\"" + trace +
           "\"}");
    reject("{\"type\":\"cancel\",\"id\":\"x\",\"target\":\"y\","
           "\"trace\":\"" + trace + "\"}");
    // Malformed ids are protocol violations, not silent no-trace.
    reject("{\"type\":\"run\",\"id\":\"x\",\"workload\":\"xz\","
           "\"instrs\":1000,\"trace\":\"nope\"}");
    reject("{\"type\":\"run\",\"id\":\"x\",\"workload\":\"xz\","
           "\"instrs\":1000,\"trace\":7}");
}

TEST(Daemon, MetricsRequestAnswersInline)
{
    service::Daemon daemon(service::DaemonOptions{});
    ASSERT_TRUE(daemon.start().ok());

    Client client(daemon.port());
    client.sendLine(sweepRequest("m1"));
    EXPECT_EQ(field(client.readFinal("m1"), "event"), "done");

    client.sendLine("{\"type\":\"metrics\",\"id\":\"mx\"}");
    const std::string reply = client.readLine();
    EXPECT_EQ(field(reply, "event"), "metrics");
    EXPECT_EQ(field(reply, "id"), "mx");
    auto doc = obs::parseJson(reply);
    ASSERT_TRUE(doc.ok()) << reply;
    const obs::JsonValue* metrics = doc.value().find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->isObject());
    // The queue instrumentation observed the sweep passing through.
    const obs::JsonValue* waits =
        metrics->find("service.queue.wait_us.count");
    ASSERT_NE(waits, nullptr);
    EXPECT_GE(waits->number, 1.0);
    const obs::JsonValue* conns = metrics->find("service.connections");
    ASSERT_NE(conns, nullptr);
    EXPECT_GE(conns->number, 1.0);
    // Deterministic dump ordering: asking twice yields sorted keys
    // both times and a second reply parses identically in shape.
    client.sendLine("{\"type\":\"metrics\",\"id\":\"my\"}");
    EXPECT_EQ(field(client.readLine(), "event"), "metrics");

    daemon.waitUntilStopped();
}

// --- Three-way equivalence: library vs CLI binary vs daemon ---

#ifdef P10EE_SWEEP_CLI_BIN
TEST(Equivalence, LibraryCliAndDaemonProduceIdenticalBytes)
{
    const std::string dir = freshDir("p10ee_equiv_test");
    std::filesystem::create_directories(dir);
    const std::string specPath = dir + "/spec.json";
    const std::string outPath = dir + "/cli_report.json";
    const std::string cachePath = dir + "/cache";
    {
        std::ofstream spec(specPath);
        spec << kSpecJson;
    }

    // 1. Offline CLI, jobs 1, cold cache.
    const std::string cmd = std::string(P10EE_SWEEP_CLI_BIN) +
                            " --spec " + specPath + " --out " +
                            outPath + " --jobs 1 --cache-dir " +
                            cachePath + " >/dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::ifstream in(outPath, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream cliBytes;
    cliBytes << in.rdbuf();

    // 2. Library call, jobs 2, warm cache (CLI populated it): the
    //    cross-process cache must replay without changing the bytes.
    api::Service service(api::Service::Options{cachePath});
    api::SweepOptions opts;
    opts.jobs = 2;
    auto warm = service.runSweep(testSpec(), opts);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.value().simulatedShards, 0u)
        << "CLI-written cache entries must replay in-process";
    const std::string libBytes =
        api::Service::mergedReport(testSpec(), warm.value()).toJson();

    // 3. Live daemon, jobs 4, same shared cache.
    service::DaemonOptions dopts;
    dopts.cacheDir = cachePath;
    dopts.jobsPerRequest = 4;
    service::Daemon daemon(dopts);
    ASSERT_TRUE(daemon.start().ok());
    Client client(daemon.port());
    client.sendLine(sweepRequest("eq"));
    const std::string done = client.readFinal("eq");
    ASSERT_EQ(field(done, "event"), "done") << done;
    EXPECT_EQ(field(done, "simulated_shards"), "0");
    auto daemonBytes = service::extractReport(done);
    ASSERT_TRUE(daemonBytes.ok());
    daemon.waitUntilStopped();

    EXPECT_EQ(cliBytes.str(), libBytes);
    EXPECT_EQ(daemonBytes.value(), libBytes);

    std::filesystem::remove_all(dir);
}
#endif

} // namespace
