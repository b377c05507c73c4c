/**
 * @file
 * Tests of the distributed sweep fabric: wire-format round-trips and
 * hostile-input fuzzing for the worker events, the shard-cache byte
 * container as the transfer format, fleet address parsing, and the
 * FleetRunner's robustness ladder — graceful degradation with zero or
 * unreachable workers, garbage-spewing workers, chaos kills and
 * suspensions against real spawned `p10d` children — with the merged
 * report byte-identical to the single-process run throughout.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/service.h"
#include "common/hex.h"
#include "fabric/fleet.h"
#include "fabric/spawn.h"
#include "fabric/wire.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/protocol.h"
#include "sweep/cache.h"
#include "sweep/spec.h"

using namespace p10ee;

namespace {

const char* kSpecJson =
    "{\"configs\":[\"power10\"],\"workloads\":[\"perlbench\",\"xz\"],"
    "\"smt\":[1,2],\"seeds\":2,\"instrs\":2000,\"warmup\":500}";

sweep::SweepSpec
testSpec()
{
    auto specOr = sweep::SweepSpec::fromJson(kSpecJson);
    EXPECT_TRUE(specOr.ok());
    return specOr.value();
}

/** The canonical bytes every fleet topology must reproduce. */
std::string
libraryReportBytes()
{
    api::Service service;
    api::SweepOptions opts;
    opts.jobs = 2;
    auto result = service.runSweep(testSpec(), opts);
    EXPECT_TRUE(result.ok());
    return api::Service::mergedReport(testSpec(), result.value())
        .toJson();
}

std::string
fleetReportBytes(const common::Expected<sweep::SweepResult>& resultOr)
{
    EXPECT_TRUE(resultOr.ok())
        << (resultOr.ok() ? "" : resultOr.error().str());
    return api::Service::mergedReport(testSpec(), resultOr.value())
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

/** A real shard entry (the wire transfer format) for fuzzing. */
std::vector<uint8_t>
realEntry(const sweep::SweepSpec& spec, const sweep::ShardSpec& shard)
{
    api::ShardResult res;
    res.index = shard.index;
    res.key = shard.key();
    res.ok = true;
    res.instrs = 1234;
    res.cycles = 2000;
    return sweep::ShardCache::encodeEntry(spec, shard, res);
}

/**
 * A deliberately misbehaving "worker": accepts connections and answers
 * every request line according to its mode. Runs until stop().
 */
class FakeWorker
{
  public:
    enum class Mode
    {
        Garbage,   ///< non-JSON noise for every request
        SoftError, ///< well-formed error event for every request
        Truncate   ///< half an accepted event, then hang up
    };

    explicit FakeWorker(Mode mode) : mode_(mode)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        int one = 1;
        ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(fd_, 16), 0);
        socklen_t len = sizeof(addr);
        EXPECT_EQ(::getsockname(
                      fd_, reinterpret_cast<sockaddr*>(&addr), &len),
                  0);
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this] { acceptLoop(); });
    }

    ~FakeWorker()
    {
        stop_.store(true);
        ::shutdown(fd_, SHUT_RDWR);
        ::close(fd_);
        thread_.join();
    }

    uint16_t port() const { return port_; }

  private:
    void
    acceptLoop()
    {
        while (!stop_.load()) {
            const int conn = ::accept(fd_, nullptr, nullptr);
            if (conn < 0)
                break;
            serve(conn);
            ::close(conn);
        }
    }

    void
    serve(int conn)
    {
        std::string buf;
        char chunk[4096];
        while (!stop_.load()) {
            const ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return;
            buf.append(chunk, static_cast<size_t>(n));
            size_t nl;
            while ((nl = buf.find('\n')) != std::string::npos) {
                const std::string line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                std::string id = "?";
                if (auto reqOr = service::Request::parse(line);
                    reqOr.ok())
                    id = reqOr.value().id;
                std::string reply;
                switch (mode_) {
                  case Mode::Garbage:
                    reply = "*** not json at all ***\n";
                    break;
                  case Mode::SoftError:
                    reply = "{\"id\":\"" + id +
                            "\",\"event\":\"error\",\"code\":"
                            "\"internal\",\"message\":\"synthetic "
                            "worker failure\"}\n";
                    break;
                  case Mode::Truncate:
                    reply = "{\"id\":\"" + id +
                            "\",\"event\":\"acc"; // mid-token cut
                    break;
                }
                (void)::send(conn, reply.data(), reply.size(),
                             MSG_NOSIGNAL);
                if (mode_ == Mode::Truncate)
                    return; // hang up mid-stream
            }
        }
    }

    Mode mode_;
    int fd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace

// --- Wire format ---

TEST(Wire, ShardRequestRoundTripsThroughProtocolParse)
{
    const sweep::SweepSpec spec = testSpec();
    const std::string line =
        fabric::shardRequestLine("s3a0", spec, 3, 150, true);
    auto reqOr = service::Request::parse(line);
    ASSERT_TRUE(reqOr.ok()) << reqOr.error().str();
    const service::Request& req = reqOr.value();
    EXPECT_EQ(req.type, service::RequestType::Shard);
    EXPECT_EQ(req.id, "s3a0");
    EXPECT_EQ(req.shardIndex, 3u);
    EXPECT_EQ(req.heartbeatMs, 150u);
    EXPECT_TRUE(req.remoteCache);
    // The embedded spec is the canonical rendering: it expands to the
    // same shards as the original.
    EXPECT_EQ(req.spec.toJson(), spec.toJson());
}

TEST(Wire, SweepSpecJsonRoundTripIsExact)
{
    const sweep::SweepSpec spec = testSpec();
    auto again = sweep::SweepSpec::fromJson(spec.toJson());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().toJson(), spec.toJson());
}

TEST(Wire, CacheResultRoundTripsThroughProtocolParse)
{
    const std::vector<uint8_t> entry = {0xde, 0xad, 0xbe, 0xef};
    auto hitOr = service::Request::parse(
        fabric::cacheResultLine("c1", true, entry));
    ASSERT_TRUE(hitOr.ok()) << hitOr.error().str();
    EXPECT_EQ(hitOr.value().type, service::RequestType::CacheResult);
    EXPECT_TRUE(hitOr.value().cacheHit);
    EXPECT_EQ(hitOr.value().cacheData, entry);

    auto missOr = service::Request::parse(
        fabric::cacheResultLine("c1", false, {}));
    ASSERT_TRUE(missOr.ok());
    EXPECT_FALSE(missOr.value().cacheHit);
    EXPECT_TRUE(missOr.value().cacheData.empty());
}

TEST(Wire, WorkerEventsRoundTripThroughBuilders)
{
    auto hb = fabric::WorkerEvent::parse(service::heartbeatLine("h1"));
    ASSERT_TRUE(hb.ok());
    EXPECT_EQ(hb.value().kind, fabric::WorkerEvent::Kind::Heartbeat);
    EXPECT_EQ(hb.value().id, "h1");

    const uint64_t key = 0xfedcba9876543210ULL;
    auto get =
        fabric::WorkerEvent::parse(service::cacheGetLine("g1", key));
    ASSERT_TRUE(get.ok());
    EXPECT_EQ(get.value().kind, fabric::WorkerEvent::Kind::CacheGet);
    EXPECT_EQ(get.value().key, key);

    const std::vector<uint8_t> entry = {1, 2, 3, 0xff};
    auto put = fabric::WorkerEvent::parse(
        service::cachePutLine("p1", key, entry));
    ASSERT_TRUE(put.ok());
    EXPECT_EQ(put.value().kind, fabric::WorkerEvent::Kind::CachePut);
    EXPECT_EQ(put.value().key, key);
    EXPECT_EQ(put.value().data, entry);

    auto done = fabric::WorkerEvent::parse(
        service::shardDoneLine("d1", 7, true, entry));
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done.value().kind, fabric::WorkerEvent::Kind::ShardDone);
    EXPECT_EQ(done.value().index, 7u);
    EXPECT_TRUE(done.value().cached);
    EXPECT_EQ(done.value().data, entry);
}

TEST(Wire, CacheKeyHexIsStrict)
{
    EXPECT_EQ(service::cacheKeyHex(0xfedcba9876543210ULL),
              "fedcba9876543210");
    auto ok = service::parseCacheKeyHex("fedcba9876543210");
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 0xfedcba9876543210ULL);
    // Keys > 2^53 cannot survive a JSON number round-trip, which is
    // why they travel as strings — and only exactly-16-lowercase-hex.
    EXPECT_FALSE(service::parseCacheKeyHex("FEDCBA9876543210").ok());
    EXPECT_FALSE(service::parseCacheKeyHex("fedcba987654321").ok());
    EXPECT_FALSE(service::parseCacheKeyHex("fedcba98765432100").ok());
    EXPECT_FALSE(service::parseCacheKeyHex("0xdcba9876543210").ok());
    EXPECT_FALSE(service::parseCacheKeyHex("").ok());
}

TEST(Wire, HostileEventsAreStructuredErrors)
{
    // The same discipline as the request parser's hostile-input suite:
    // garbage in, structured Error out, never a crash or a throw.
    const char* hostile[] = {
        "",
        "not json",
        "[]",
        "42",
        "{\"event\":\"heartbeat\"}",                      // no id
        "{\"id\":\"x\"}",                                 // no event
        "{\"id\":\"x\",\"event\":\"warp\"}",              // unknown
        "{\"id\":\"x\",\"event\":\"heartbeat\",\"z\":1}", // extra key
        "{\"id\":\"x\",\"event\":\"cache_get\"}",         // no key
        "{\"id\":\"x\",\"event\":\"cache_get\",\"key\":12}",
        "{\"id\":\"x\",\"event\":\"cache_get\",\"key\":\"zz\"}",
        "{\"id\":\"x\",\"event\":\"cache_put\",\"key\":"
        "\"fedcba9876543210\",\"data\":\"abc\"}", // odd-length hex
        "{\"id\":\"x\",\"event\":\"cache_put\",\"key\":"
        "\"fedcba9876543210\",\"data\":\"xy\"}", // non-hex
        "{\"id\":\"x\",\"event\":\"shard_done\",\"cached\":true,"
        "\"data\":\"00\"}", // no index
        "{\"id\":\"x\",\"event\":\"shard_done\",\"index\":1,"
        "\"cached\":1,\"data\":\"00\"}", // cached not bool
        "{\"id\":\"x\",\"event\":\"error\",\"code\":\"internal\"}",
    };
    for (const char* line : hostile) {
        auto ev = fabric::WorkerEvent::parse(line);
        EXPECT_FALSE(ev.ok()) << line;
    }
    // Oversized line: rejected before JSON parsing.
    std::string huge = "{\"id\":\"x\",\"event\":\"heartbeat\",";
    huge.append(service::kMaxRequestBytes + 64, ' ');
    EXPECT_FALSE(fabric::WorkerEvent::parse(huge).ok());
}

TEST(Wire, TruncatedShardDoneNeverParsesAtAnyPrefix)
{
    auto shardsOr = testSpec().expand();
    ASSERT_TRUE(shardsOr.ok());
    const std::string line = service::shardDoneLine(
        "t1", 0, false, realEntry(testSpec(), shardsOr.value()[0]));
    // A truncated NDJSON line must fail to parse at every cut point —
    // the coordinator treats any prefix as a protocol violation.
    for (size_t cut = 0; cut < line.size(); ++cut) {
        auto ev = fabric::WorkerEvent::parse(line.substr(0, cut));
        EXPECT_FALSE(ev.ok()) << "prefix length " << cut;
    }
    EXPECT_TRUE(fabric::WorkerEvent::parse(line).ok());
}

TEST(Wire, TraceKeyRoundTripsWhenPresentAndDefaultsOff)
{
    const sweep::SweepSpec spec = testSpec();
    const std::string good = obs::TraceContext::derive(7).str();

    // Coordinator -> worker: the shard request carries the wire string
    // verbatim; absent means tracing is off for this shard.
    auto traced = service::Request::parse(
        fabric::shardRequestLine("s1a0", spec, 1, 50, true, good));
    ASSERT_TRUE(traced.ok()) << traced.error().str();
    EXPECT_EQ(traced.value().trace, good);
    auto untraced = service::Request::parse(
        fabric::shardRequestLine("s1a0", spec, 1, 50, true));
    ASSERT_TRUE(untraced.ok());
    EXPECT_TRUE(untraced.value().trace.empty());

    // Worker -> coordinator: heartbeat echoes the trace; shard_done
    // echoes it together with the worker-side durations.
    auto hb = fabric::WorkerEvent::parse(
        service::heartbeatLine("s1a0", good));
    ASSERT_TRUE(hb.ok());
    EXPECT_EQ(hb.value().trace, good);
    EXPECT_TRUE(fabric::WorkerEvent::parse(service::heartbeatLine("h1"))
                    .value()
                    .trace.empty());

    auto done = fabric::WorkerEvent::parse(
        service::shardDoneLine("s1a0", 3, false, {0xab}, good, 10, 20));
    ASSERT_TRUE(done.ok()) << done.error().str();
    EXPECT_EQ(done.value().trace, good);
    EXPECT_EQ(done.value().queueUs, 10u);
    EXPECT_EQ(done.value().execUs, 20u);
}

TEST(Wire, TraceKeyFuzzRejectsEveryMalformedShape)
{
    const sweep::SweepSpec spec = testSpec();
    const std::string good = obs::TraceContext::derive(7).str();
    ASSERT_EQ(good.size(), 49u);

    std::vector<std::string> bad;
    bad.push_back(good.substr(0, 48)); // truncated
    bad.push_back(good + "0");         // overlong
    bad.push_back("");                 // present but empty
    {
        std::string s = good; // separator overwritten
        s[32] = '0';
        bad.push_back(s);
    }
    {
        std::string s = good; // separator in the wrong column
        std::swap(s[31], s[32]);
        bad.push_back(s);
    }
    {
        std::string s = good; // non-hex digit
        s[0] = 'g';
        bad.push_back(s);
    }
    {
        std::string s = good; // uppercase hex is not canonical
        for (char& c : s)
            c = static_cast<char>(std::toupper(c));
        bad.push_back(s);
    }
    // The all-zero context is the "tracing off" sentinel — it must
    // never be accepted off the wire as a real trace.
    bad.push_back(std::string(32, '0') + "-" + std::string(16, '0'));

    const std::string requestLine =
        fabric::shardRequestLine("s1a0", spec, 1, 50, true, good);
    for (const std::string& b : bad) {
        // Request side (coordinator -> worker).
        std::string req = requestLine;
        req.replace(req.find(good), good.size(), b);
        EXPECT_FALSE(service::Request::parse(req).ok()) << b;
        // Event side (worker -> coordinator), heartbeat and shard_done.
        EXPECT_FALSE(fabric::WorkerEvent::parse(
                         "{\"id\":\"x\",\"event\":\"heartbeat\","
                         "\"trace\":\"" +
                         b + "\"}")
                         .ok())
            << b;
        std::string doneLn = service::shardDoneLine("s1a0", 3, false,
                                                    {0xab}, good, 1, 2);
        doneLn.replace(doneLn.find(good), good.size(), b);
        EXPECT_FALSE(fabric::WorkerEvent::parse(doneLn).ok()) << b;
    }

    // Wrong JSON type: a numeric trace is a protocol violation too.
    EXPECT_FALSE(fabric::WorkerEvent::parse(
                     "{\"id\":\"x\",\"event\":\"heartbeat\","
                     "\"trace\":7}")
                     .ok());
}

TEST(Wire, ShardDoneTraceAndTimingsAreAllOrNothing)
{
    const std::string good = obs::TraceContext::derive(7).str();
    const std::string traced =
        service::shardDoneLine("d1", 3, false, {0xab}, good, 10, 20);
    ASSERT_TRUE(fabric::WorkerEvent::parse(traced).ok());

    // A traced shard_done missing either duration is rejected.
    auto without = [&](const std::string& key) {
        std::string line = traced;
        const size_t at = line.find(",\"" + key + "\"");
        EXPECT_NE(at, std::string::npos);
        const size_t end = line.find_first_of(",}", at + 1 + key.size() + 3);
        line.erase(at, end - at);
        return line;
    };
    auto noQueue = fabric::WorkerEvent::parse(without("queue_us"));
    ASSERT_FALSE(noQueue.ok());
    EXPECT_NE(noQueue.error().message.find(
                  "must carry queue_us and exec_us"),
              std::string::npos);
    EXPECT_FALSE(fabric::WorkerEvent::parse(without("exec_us")).ok());

    // And an untraced shard_done must not smuggle durations in.
    std::string untraced =
        service::shardDoneLine("d1", 3, false, {0xab});
    untraced.insert(untraced.size() - 1, ",\"queue_us\":10");
    auto smuggled = fabric::WorkerEvent::parse(untraced);
    ASSERT_FALSE(smuggled.ok());
    EXPECT_NE(smuggled.error().message.find("require 'trace'"),
              std::string::npos);
}

// --- Entry container as transfer format ---

TEST(EntryContainer, DecodeValidatesIdentityAndIntegrity)
{
    const sweep::SweepSpec spec = testSpec();
    auto shardsOr = spec.expand();
    ASSERT_TRUE(shardsOr.ok());
    const auto& shards = shardsOr.value();
    const std::vector<uint8_t> entry = realEntry(spec, shards[0]);

    auto decoded = sweep::ShardCache::decodeEntry(entry, spec, shards[0]);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->index, shards[0].index);
    EXPECT_EQ(decoded->key, shards[0].key());
    EXPECT_EQ(decoded->instrs, 1234u);

    // Wrong shard: the payload is internally valid but names another
    // shard — identity check refuses it.
    EXPECT_FALSE(
        sweep::ShardCache::decodeEntry(entry, spec, shards[1])
            .has_value());

    // Every single-byte corruption is caught (checksum, magic,
    // version, or body deserialization).
    for (size_t i = 0; i < entry.size(); ++i) {
        std::vector<uint8_t> bad = entry;
        bad[i] ^= 0x01;
        EXPECT_FALSE(
            sweep::ShardCache::decodeEntry(bad, spec, shards[0])
                .has_value())
            << "byte " << i;
    }

    // Truncations are rejected too.
    for (size_t len = 0; len < entry.size(); ++len) {
        std::vector<uint8_t> cut(entry.begin(),
                                 entry.begin() +
                                     static_cast<std::ptrdiff_t>(len));
        EXPECT_FALSE(
            sweep::ShardCache::decodeEntry(cut, spec, shards[0])
                .has_value())
            << "length " << len;
    }
}

TEST(EntryContainer, StaleVersionIsRejectedEvenWithFixedChecksum)
{
    // A structurally perfect entry from a hypothetical older format
    // version (checksum recomputed, so only the version differs) must
    // still be refused — stale cache data never crosses the fabric.
    const sweep::SweepSpec spec = testSpec();
    auto shardsOr = spec.expand();
    ASSERT_TRUE(shardsOr.ok());
    const auto& shard = shardsOr.value()[0];
    std::vector<uint8_t> entry = realEntry(spec, shard);
    entry[8] ^= 0xff; // format-version word, after "P10SHRD\0"
    // Recompute the trailing whole-file FNV-1a checksum.
    uint64_t h = 1469598103934665603ULL;
    for (size_t i = 0; i + 8 < entry.size(); ++i) {
        h ^= entry[i];
        h *= 1099511628211ULL;
    }
    for (int i = 0; i < 8; ++i)
        entry[entry.size() - 8 + static_cast<size_t>(i)] =
            static_cast<uint8_t>(h >> (8 * i));
    EXPECT_FALSE(sweep::ShardCache::decodeEntry(entry, spec, shard)
                     .has_value());
}

TEST(EntryContainer, ReadWriteBytesValidateTheContainer)
{
    const std::string dir = freshDir("p10ee_fabric_cache_bytes");
    sweep::ShardCache cache(dir);
    ASSERT_TRUE(cache.prepare().ok());

    const sweep::SweepSpec spec = testSpec();
    auto shardsOr = spec.expand();
    ASSERT_TRUE(shardsOr.ok());
    const auto& shard = shardsOr.value()[0];
    const uint64_t key = sweep::ShardCache::shardKey(spec, shard);
    const std::vector<uint8_t> entry = realEntry(spec, shard);

    EXPECT_TRUE(cache.writeBytes(key, entry).ok());
    auto back = cache.readBytes(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, entry);

    // The persisted entry round-trips through the normal lookup path.
    auto hit = cache.lookup(spec, shard);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->instrs, 1234u);

    // A corrupt blob is refused at write time — the remote tier never
    // installs garbage a worker published.
    std::vector<uint8_t> bad = entry;
    bad[4] ^= 0x40;
    EXPECT_FALSE(cache.writeBytes(key, bad).ok());
    // Bytes keyed under a different slot than they claim: refused.
    EXPECT_FALSE(cache.writeBytes(key ^ 1, entry).ok());
    // Oversized garbage: refused, not written.
    EXPECT_FALSE(cache.writeBytes(key, std::vector<uint8_t>(64, 7))
                     .ok());

    std::filesystem::remove_all(dir);
}

// --- Fleet address parsing ---

TEST(FleetConfig, ParsesWorkerListsStrictly)
{
    auto ok = fabric::parseWorkerList(
        "127.0.0.1:7410,localhost:7411,10.0.0.2:65535");
    ASSERT_TRUE(ok.ok());
    ASSERT_EQ(ok.value().size(), 3u);
    EXPECT_EQ(ok.value()[0].host, "127.0.0.1");
    EXPECT_EQ(ok.value()[0].port, 7410);
    EXPECT_EQ(ok.value()[1].host, "localhost");
    EXPECT_EQ(ok.value()[2].port, 65535);

    EXPECT_TRUE(fabric::parseWorkerList("").ok());
    EXPECT_TRUE(fabric::parseWorkerList("").value().empty());
    EXPECT_FALSE(fabric::parseWorkerList("noport").ok());
    EXPECT_FALSE(fabric::parseWorkerList("host:").ok());
    EXPECT_FALSE(fabric::parseWorkerList(":123").ok());
    EXPECT_FALSE(fabric::parseWorkerList("host:0").ok());
    EXPECT_FALSE(fabric::parseWorkerList("host:65536").ok());
    EXPECT_FALSE(fabric::parseWorkerList("host:12x4").ok());
}

TEST(FleetConfig, FleetFileIsStrictJson)
{
    const std::string dir = freshDir("p10ee_fleet_file_test");
    std::filesystem::create_directories(dir);
    auto write = [&](const std::string& name,
                     const std::string& body) {
        std::ofstream out(dir + "/" + name);
        out << body;
        return dir + "/" + name;
    };

    auto ok = fabric::parseFleetFile(write(
        "good.json",
        "{\"workers\":[\"127.0.0.1:7410\",\"127.0.0.1:7411\"]}"));
    ASSERT_TRUE(ok.ok()) << ok.error().str();
    ASSERT_EQ(ok.value().size(), 2u);
    EXPECT_EQ(ok.value()[1].port, 7411);

    EXPECT_FALSE(fabric::parseFleetFile(dir + "/absent.json").ok());
    EXPECT_FALSE(
        fabric::parseFleetFile(write("notobj.json", "[1,2]")).ok());
    EXPECT_FALSE(fabric::parseFleetFile(
                     write("badkey.json",
                           "{\"workers\":[],\"extra\":true}"))
                     .ok());
    EXPECT_FALSE(fabric::parseFleetFile(
                     write("badentry.json", "{\"workers\":[42]}"))
                     .ok());
    EXPECT_FALSE(fabric::parseFleetFile(
                     write("badaddr.json",
                           "{\"workers\":[\"nocolon\"]}"))
                     .ok());

    std::filesystem::remove_all(dir);
}

// --- FleetRunner robustness ladder ---

TEST(Fleet, ZeroWorkersDegradesToLocalByteIdenticalRun)
{
    fabric::FleetOptions opts;
    opts.localJobs = 2;
    std::vector<std::string> warnings;
    opts.onWarning = [&warnings](const std::string& w) {
        warnings.push_back(w);
    };
    fabric::FleetRunner runner(testSpec(), std::move(opts));
    auto resultOr = runner.run();
    EXPECT_EQ(fleetReportBytes(resultOr), libraryReportBytes());
    EXPECT_EQ(runner.stats().localShards, 8u);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("no workers configured"),
              std::string::npos);
}

TEST(Fleet, UnreachableWorkersDegradeToLocalByteIdenticalRun)
{
    // Nothing listens on these ports (bind-then-close guarantees the
    // OS considers them closed right now).
    fabric::FleetOptions opts;
    int probe = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    const uint16_t deadPort = ntohs(addr.sin_port);
    ::close(probe);

    opts.workers = {{"127.0.0.1", deadPort}};
    opts.localJobs = 2;
    opts.backoffBaseMs = 1; // keep the retry ladder fast in tests
    bool degraded = false;
    opts.onWarning = [&degraded](const std::string& w) {
        if (w.find("unfinished") != std::string::npos)
            degraded = true;
    };
    fabric::FleetRunner runner(testSpec(), std::move(opts));
    auto resultOr = runner.run();
    EXPECT_EQ(fleetReportBytes(resultOr), libraryReportBytes());
    EXPECT_TRUE(degraded);
    EXPECT_EQ(runner.stats().workersDead, 1u);
    EXPECT_EQ(runner.stats().localShards, 8u);
    EXPECT_GT(runner.stats().connectFailures, 0u);
}

TEST(Fleet, GarbageWorkerAloneStillCompletesByteIdentical)
{
    // A worker that answers every request with non-JSON noise: every
    // attempt is a protocol violation, the worker is retired, and the
    // degraded local path finishes the sweep — same bytes, exit OK.
    FakeWorker garbage(FakeWorker::Mode::Garbage);
    fabric::FleetOptions opts;
    opts.workers = {{"127.0.0.1", garbage.port()}};
    opts.localJobs = 2;
    fabric::FleetRunner runner(testSpec(), std::move(opts));
    auto resultOr = runner.run();
    EXPECT_EQ(fleetReportBytes(resultOr), libraryReportBytes());
    EXPECT_EQ(runner.stats().workersDead, 1u);
    EXPECT_GT(runner.stats().protocolErrors, 0u);
    EXPECT_GT(runner.stats().localShards, 0u);
}

TEST(Fleet, TruncatingWorkerIsRetiredWithoutHanging)
{
    FakeWorker cutter(FakeWorker::Mode::Truncate);
    fabric::FleetOptions opts;
    opts.workers = {{"127.0.0.1", cutter.port()}};
    opts.localJobs = 2;
    fabric::FleetRunner runner(testSpec(), std::move(opts));
    auto resultOr = runner.run();
    EXPECT_EQ(fleetReportBytes(resultOr), libraryReportBytes());
    EXPECT_EQ(runner.stats().workersDead, 1u);
}

TEST(Fleet, RepeatedSoftFailuresSkipDeterministically)
{
    // A healthy-but-useless worker (structured error for every shard)
    // must not hang the sweep and must not retire either — the shard
    // burns its distinct-worker budget and is recorded as skipped with
    // a result that is a function of shard identity only.
    FakeWorker lemon(FakeWorker::Mode::SoftError);
    fabric::FleetOptions opts;
    opts.workers = {{"127.0.0.1", lemon.port()}};
    opts.maxShardWorkers = 1; // one strike and the shard is out
    fabric::FleetRunner runner(testSpec(), std::move(opts));
    auto resultOr = runner.run();
    ASSERT_TRUE(resultOr.ok());
    const sweep::SweepResult& result = resultOr.value();
    EXPECT_EQ(runner.stats().skipped, result.shards.size());
    EXPECT_EQ(result.failed, result.shards.size());
    auto shardsOr = testSpec().expand();
    ASSERT_TRUE(shardsOr.ok());
    for (size_t i = 0; i < result.shards.size(); ++i) {
        const api::ShardResult& s = result.shards[i];
        EXPECT_FALSE(s.ok);
        EXPECT_EQ(s.index, i);
        EXPECT_EQ(s.key, shardsOr.value()[i].key());
        EXPECT_EQ(s.error.code, common::ErrorCode::Transient);
        // Scheduling-independent message: shard identity only.
        EXPECT_EQ(s.error.message,
                  "shard " + s.key +
                      ": abandoned by the fleet after repeated "
                      "worker failures");
    }
}

TEST(Fleet, TracedZeroWorkerRunIsByteIdenticalWithMergedTrace)
{
    // Tracing must be a pure observer: the degraded local path with
    // the flight recorder on produces the same merged bytes as the
    // library, and still yields one coherent Perfetto timeline.
    fabric::FleetOptions opts;
    opts.localJobs = 2;
    opts.trace = true;
    opts.onWarning = [](const std::string&) {};
    fabric::FleetRunner runner(testSpec(), std::move(opts));
    auto resultOr = runner.run();
    EXPECT_EQ(fleetReportBytes(resultOr), libraryReportBytes());

    const std::string& trace = runner.traceJson();
    ASSERT_FALSE(trace.empty());
    // The synthetic root lane names the trace id, the coordinator lane
    // carries the expand/local/merge phases, and the inflight counter
    // track is always present.
    EXPECT_NE(trace.find("trace:" + runner.traceRoot().str()),
              std::string::npos);
    EXPECT_NE(trace.find("\"coordinator\""), std::string::npos);
    EXPECT_NE(trace.find("expand 8 shards"), std::string::npos);
    EXPECT_NE(trace.find("local 8 shards"), std::string::npos);
    EXPECT_NE(trace.find("merge 8 shards"), std::string::npos);
    EXPECT_NE(trace.find("fleet.inflight"), std::string::npos);
}

TEST(Fleet, ShardReportsDirIsRejectedUpFront)
{
    sweep::SweepSpec spec = testSpec();
    spec.shardReportsDir = "/tmp/somewhere";
    fabric::FleetRunner runner(spec, fabric::FleetOptions{});
    auto resultOr = runner.run();
    ASSERT_FALSE(resultOr.ok());
    EXPECT_EQ(resultOr.error().code,
              common::ErrorCode::InvalidArgument);
}

// --- Spawned p10d fleets (the real thing) ---

#ifdef P10EE_P10D_BIN
namespace {

std::vector<fabric::SpawnedWorker>
spawnFleet(size_t n)
{
    std::vector<fabric::SpawnedWorker> fleet;
    for (size_t i = 0; i < n; ++i) {
        auto workerOr = fabric::spawnWorker(P10EE_P10D_BIN);
        EXPECT_TRUE(workerOr.ok())
            << (workerOr.ok() ? "" : workerOr.error().str());
        if (workerOr.ok())
            fleet.push_back(workerOr.value());
    }
    return fleet;
}

fabric::FleetOptions
fleetOptions(const std::vector<fabric::SpawnedWorker>& fleet)
{
    fabric::FleetOptions opts;
    for (const fabric::SpawnedWorker& w : fleet)
        opts.workers.push_back({"127.0.0.1", w.port});
    opts.localJobs = 2;
    return opts;
}

void
reapFleet(std::vector<fabric::SpawnedWorker>& fleet)
{
    for (fabric::SpawnedWorker& w : fleet) {
        fabric::signalWorker(w, SIGTERM);
        fabric::reapWorker(w);
    }
}

/** Current value of one name in the process-global metrics registry
    (0 when the name has never been registered). */
double
metricValue(const std::string& name)
{
    for (const auto& [key, value] : obs::metrics().snapshot())
        if (key == name)
            return value;
    return 0.0;
}

} // namespace

TEST(FleetLive, TwoWorkersColdAndWarmAreByteIdentical)
{
    const std::string dir = freshDir("p10ee_fleet_live_cache");
    auto fleet = spawnFleet(2);
    ASSERT_EQ(fleet.size(), 2u);
    const std::string expected = libraryReportBytes();

    {
        fabric::FleetOptions opts = fleetOptions(fleet);
        opts.cacheDir = dir;
        fabric::FleetRunner cold(testSpec(), std::move(opts));
        auto coldOr = cold.run();
        EXPECT_EQ(fleetReportBytes(coldOr), expected);
        EXPECT_EQ(coldOr.value().simulatedShards, 8u);
        EXPECT_GT(cold.stats().remoteCachePuts, 0u);
        // A healthy run still reports the fault counters, as zeros, so
        // a --metrics-out sidecar is never empty.
        bool registered = false;
        for (const auto& [key, value] : obs::metrics().snapshot())
            registered = registered || key == "fleet.requeues";
        EXPECT_TRUE(registered);
    }
    {
        fabric::FleetOptions opts = fleetOptions(fleet);
        opts.cacheDir = dir;
        fabric::FleetRunner warm(testSpec(), std::move(opts));
        auto warmOr = warm.run();
        EXPECT_EQ(fleetReportBytes(warmOr), expected);
        // Every shard came from the coordinator's cache over the wire.
        EXPECT_EQ(warmOr.value().cachedShards, 8u);
        EXPECT_EQ(warm.stats().remoteCacheHits, 8u);
    }

    reapFleet(fleet);
    std::filesystem::remove_all(dir);
}

TEST(FleetLive, ChaosKillsAndDelaysStayByteIdentical)
{
    // Four workers; the first finished shard triggers a SIGKILL on
    // worker 0 and a 1.5s SIGSTOP on worker 1 — in-flight shards must
    // redistribute and the merge must not move by a byte.
    auto fleet = spawnFleet(4);
    ASSERT_EQ(fleet.size(), 4u);
    fabric::FleetOptions opts = fleetOptions(fleet);
    opts.heartbeatMs = 50;
    opts.heartbeatMisses = 2; // 1s silence window (floored)
    std::atomic<bool> fired{false};
    std::thread resumer;
    opts.onProgress = [&](const api::ProgressEvent&) {
        if (fired.exchange(true))
            return;
        fabric::signalWorker(fleet[0], SIGKILL);
        fabric::signalWorker(fleet[1], SIGSTOP);
        resumer = std::thread([&fleet] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1500));
            fabric::signalWorker(fleet[1], SIGCONT);
        });
    };
    fabric::FleetRunner runner(testSpec(), std::move(opts));
    auto resultOr = runner.run();
    if (resumer.joinable())
        resumer.join();
    EXPECT_EQ(fleetReportBytes(resultOr), libraryReportBytes());
    EXPECT_EQ(runner.stats().skipped, 0u);
    reapFleet(fleet);
}

TEST(FleetLive, TracedChaosFleetKeepsBytesAndTelemetryConsistent)
{
    // The acceptance scenario: a 4-worker fleet under chaos (SIGKILL
    // one worker, SIGSTOP another) with the flight recorder on. The
    // merged report must still be byte-identical to the untraced
    // single-process run, the merged timeline must show the retried
    // shard's lifecycle, and the fleet.* counters must agree exactly
    // with the runner's own stats for the same run.
    auto fleet = spawnFleet(4);
    ASSERT_EQ(fleet.size(), 4u);
    fabric::FleetOptions opts = fleetOptions(fleet);
    opts.heartbeatMs = 50;
    opts.heartbeatMisses = 2;
    opts.trace = true;
    std::atomic<bool> fired{false};
    std::thread resumer;
    opts.onProgress = [&](const api::ProgressEvent&) {
        if (fired.exchange(true))
            return;
        fabric::signalWorker(fleet[0], SIGKILL);
        fabric::signalWorker(fleet[1], SIGSTOP);
        resumer = std::thread([&fleet] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1500));
            fabric::signalWorker(fleet[1], SIGCONT);
        });
    };

    // The registry is process-global, so earlier tests may have moved
    // the fleet counters already — assert on this run's deltas.
    const double requeues0 = metricValue("fleet.requeues");
    const double retirements0 = metricValue("fleet.retirements");
    const double skips0 = metricValue("fleet.skips");
    const double faults0 = metricValue("fleet.lease_expiries") +
                           metricValue("fleet.heartbeat_silences");

    fabric::FleetRunner runner(testSpec(), std::move(opts));
    auto resultOr = runner.run();
    if (resumer.joinable())
        resumer.join();
    EXPECT_EQ(fleetReportBytes(resultOr), libraryReportBytes());
    EXPECT_EQ(runner.stats().skipped, 0u);

    const double requeues = metricValue("fleet.requeues") - requeues0;
    const double faults = metricValue("fleet.lease_expiries") +
                          metricValue("fleet.heartbeat_silences") -
                          faults0;
    EXPECT_EQ(requeues, static_cast<double>(runner.stats().reassigned));
    EXPECT_EQ(metricValue("fleet.retirements") - retirements0,
              static_cast<double>(runner.stats().workersDead));
    EXPECT_EQ(metricValue("fleet.skips") - skips0, 0.0);
    // With nothing skipped, every lease fault ended in a requeue (hard
    // failures requeue too, so requeues can exceed the fault count).
    EXPECT_GE(requeues, faults);

    const std::string& trace = runner.traceJson();
    ASSERT_FALSE(trace.empty());
    EXPECT_NE(trace.find("trace:" + runner.traceRoot().str()),
              std::string::npos);
    EXPECT_NE(trace.find("\"coordinator\""), std::string::npos);
    EXPECT_NE(trace.find("fleet.inflight"), std::string::npos);
    // Four workers dialed: each contributes its own named lanes.
    for (const char* lane : {"w0 ", "w1 ", "w2 ", "w3 "})
        EXPECT_NE(trace.find(lane), std::string::npos) << lane;
    if (runner.stats().reassigned > 0) {
        // A requeued shard ran a second attempt ("s<idx>a1 ...") on a
        // different worker's lease lane — the cross-worker lifecycle
        // the flight recorder exists to show.
        EXPECT_NE(trace.find("a1 "), std::string::npos);
    }
    reapFleet(fleet);
}

TEST(FleetLive, GarbageWorkerBesideRealWorkerIsRouted)
{
    // One real worker, one garbage-spewer: everything lands on the
    // real worker (or the local tail) and the bytes still match.
    FakeWorker garbage(FakeWorker::Mode::Garbage);
    auto fleet = spawnFleet(1);
    ASSERT_EQ(fleet.size(), 1u);
    fabric::FleetOptions opts = fleetOptions(fleet);
    opts.workers.push_back({"127.0.0.1", garbage.port()});
    fabric::FleetRunner runner(testSpec(), std::move(opts));
    auto resultOr = runner.run();
    EXPECT_EQ(fleetReportBytes(resultOr), libraryReportBytes());
    EXPECT_EQ(runner.stats().skipped, 0u);
    EXPECT_EQ(runner.stats().workersDead, 1u);
    reapFleet(fleet);
}
#endif // P10EE_P10D_BIN
