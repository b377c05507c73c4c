/**
 * @file
 * The repository benchmark program (see README.md beside this file for
 * the workloads, the metrics and which layer each metric watches).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --workdir <dir> [--spans-out <file>] [--source-hash <hex>]
 *             [--setup-only] [--setup-samples <s,...>]
 *             [--setup-mips <m,...>]
 *
 * Untraced (--trace 0) it sets the workload up, runs timed passes (or
 * serves timed requests) for --seconds and prints the end-to-end
 * metrics. Traced (--trace 1) it spends half the window on untraced
 * passes and half on passes that it drives through the layer calls
 * itself, recording a span around each call, and prints the per-layer
 * metrics. Either way it checks every output and prints, as its last
 * line, one JSON object {correct, attempted, failed, metrics}; a
 * failed check makes the exit status 1.
 *
 * --setup-only sets the workload up once, prints {"setup_s", ...} and
 * exits: run.py starts a few of these fresh processes so that set-up
 * time, including per-process lazy work, is a median of several
 * samples, which it hands to the measuring process.
 */

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "chip/chip.h"
#include "obs/report.h"
#include "power/energy.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "sweep/cache.h"
#include "sweep/spec.h"
#include "trace/replay.h"
#include "workloads/registry.h"

#include "spans.h"

namespace {

using namespace p10ee;
using perfbench::Clock;
using perfbench::SpanLog;

/** Table I: POWER10 over POWER9 core performance per watt. */
constexpr double kPaperPerfPerW = 2.6;

/** Fewest timed passes in a window, however long a pass takes. */
constexpr int kMinPasses = 3;

/** Instructions recorded into core_chip's trace. */
constexpr uint64_t kTraceInstrs = 1000000;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * double(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(const std::vector<double>& v)
{
    return percentile(v, 50.0);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
residentMb()
{
    std::ifstream f("/proc/self/statm");
    uint64_t size = 0, resident = 0;
    f >> size >> resident;
    return double(resident) * double(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

std::vector<double>
parseList(const std::string& csv)
{
    std::vector<double> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(std::stod(item));
    return out;
}

/** Work attempted and output checks failed (the result line's
    `attempted` and `failed`). */
struct Checks
{
    std::mutex mu;
    uint64_t mismatches = 0;
    uint64_t attempted = 0; ///< shards and requests; main thread only

    void
    fail(const std::string& what)
    {
        std::lock_guard<std::mutex> lk(mu);
        if (++mismatches <= 20)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
    }
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string workdir;
    std::string spansOut;
    std::string sourceHash = "unknown";
    std::vector<double> setupSamples;
    std::vector<double> setupMips;
};

/** What one workload runs; see README.md for why each was chosen. */
struct Workload
{
    sweep::SweepSpec spec;
    int jobs = 1;
    bool freshCachePerPass = false; ///< sweep_short: take the write path
    bool warmupPass = false;        ///< one untimed pass in set-up
    bool recordTrace = false;       ///< core_chip: trace shards
    bool serve = false;             ///< serve_warm: daemon + clients
};

bool
makeWorkload(const std::string& name, uint64_t seed, Workload& w)
{
    w.spec.seed = seed;
    if (name == "sweep_short" || name == "serve_warm") {
        w.spec.configs = {"power9", "power10"};
        w.spec.workloads = {"perlbench", "gcc", "x264",
                            "deepsjeng", "xz", "leela"};
        w.spec.smt = {1, 8};
        w.spec.seeds = 2;
        w.spec.instrs = 20000; // the SweepSpec defaults
        w.spec.warmup = 5000;
        w.jobs = 2;
        w.freshCachePerPass = name == "sweep_short";
        w.warmupPass = true;
        w.serve = name == "serve_warm";
        return true;
    }
    if (name == "core_chip") {
        w.spec.configs = {"power10"};
        // The trace workload is appended once it is recorded.
        w.spec.workloads = {"ml_analytics", "perlbench", "mcf"};
        w.spec.smt = {2};
        w.spec.cores = {1, 4};
        w.spec.instrs = 200000; // per core
        w.spec.warmup = 20000;
        w.recordTrace = true;
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// Sweep passes through api::Service
// ---------------------------------------------------------------------

struct Pass
{
    double wallS = 0.0;
    uint64_t simInstrs = 0; ///< measured instrs of simulated shards
    uint64_t shards = 0;
    double busyFrac = 0.0;  ///< sum of shard wall / (jobs x pass wall)
};

/** Count not-ok shards as failures; fold pass figures. */
Pass
foldPass(const sweep::SweepResult& r, double wallS, int jobs,
         Checks& checks)
{
    Pass p;
    p.wallS = wallS;
    p.shards = r.shards.size();
    double busy = 0.0;
    for (const sweep::ShardResult& s : r.shards) {
        if (!s.ok)
            checks.fail("shard " + s.key + " not ok: " + s.error.message);
        if (s.ok && !s.fromCache)
            p.simInstrs += s.instrs;
        busy += s.wallSeconds;
    }
    p.busyFrac = busy / (double(jobs) * wallS);
    return p;
}

/** One pass; a fresh cache directory when @p cacheDir is non-empty. */
sweep::SweepResult
runPass(const Workload& w, const std::string& cacheDir, Pass& pass,
        Checks& checks)
{
    api::Service svc(api::Service::Options{cacheDir});
    api::SweepOptions opts;
    opts.jobs = w.jobs;
    checks.attempted += w.spec.shardCount();
    const auto t0 = Clock::now();
    common::Expected<sweep::SweepResult> r = svc.runSweep(w.spec, opts);
    const double wall = secondsSince(t0);
    if (!r) {
        checks.fail("runSweep: " + r.error().message);
        return {};
    }
    pass = foldPass(r.value(), wall, w.jobs, checks);
    return std::move(r.value());
}

std::string
reportJson(const sweep::SweepSpec& spec, const sweep::SweepResult& r)
{
    return api::Service::mergedReport(spec, r).toJson();
}

// ---------------------------------------------------------------------
// The traced shard path: the benchmark makes each layer call itself
// ---------------------------------------------------------------------

/** Simulated statistics per profile (they repeat exactly). */
struct ProfileStats
{
    uint64_t instrs = 0, l1d = 0, l2 = 0, l3 = 0, branch = 0, flush = 0;

    void
    add(const core::RunResult& r)
    {
        auto get = [&](const char* k) {
            auto it = r.stats.find(k);
            return it == r.stats.end() ? uint64_t(0) : it->second;
        };
        instrs += r.instrs;
        l1d += get("l1d.miss");
        l2 += get("l2.miss");
        l3 += get("l3.miss");
        branch += get("bp.mispredict");
        flush += get("flush.wasted");
    }

    void
    add(const ProfileStats& o)
    {
        instrs += o.instrs;
        l1d += o.l1d;
        l2 += o.l2;
        l3 += o.l3;
        branch += o.branch;
        flush += o.flush;
    }

    double
    perKilo(uint64_t n) const
    {
        return instrs ? 1000.0 * double(n) / double(instrs) : 0.0;
    }
};

/** Simulated statistics of one traced pass. */
struct SimAgg
{
    std::mutex mu;
    std::map<std::string, ProfileStats> profiles;
    uint64_t stallCycles = 0, effCycles = 0; ///< shards of >= 2 cores
    uint64_t throttledEpochs = 0, droopTrips = 0;
};

struct CacheCounts
{
    std::atomic<uint64_t> lookups{0}, hits{0};
};

/**
 * Drive one shard through makeSource -> ChipModel -> beginRun ->
 * advance -> measure -> evalCounters -> cache insert/lookup -> destroy,
 * and check it against @p ref, the Service result at the same index.
 */
void
traceShard(const sweep::SweepSpec& spec, const sweep::ShardSpec& shard,
           const sweep::ShardResult& ref, const sweep::ShardCache& cache,
           SpanLog& log, SimAgg* agg, CacheCounts& counts, Checks& checks)
{
    const uint64_t id = shard.index;
    const int cores = std::max(shard.cores, 1);
    const int64_t root = log.begin("bench.shard", id);

    int64_t sp = log.begin("workloads.build", id, root);
    std::vector<std::unique_ptr<workloads::CheckpointableSource>> sources;
    std::vector<std::vector<workloads::InstrSource*>> perCore(
        static_cast<size_t>(cores));
    for (int c = 0; c < cores; ++c)
        for (int t = 0; t < shard.smt; ++t) {
            auto src = workloads::makeSource(shard.profile, c * shard.smt + t);
            if (!src) {
                checks.fail(ref.key + ": makeSource: " + src.error().message);
                log.end(sp);
                log.end(root);
                return;
            }
            sources.push_back(std::move(src.value()));
            perCore[static_cast<size_t>(c)].push_back(sources.back().get());
        }
    log.end(sp, sources.size());

    chip::ChipConfig cfg;
    cfg.cores.assign(static_cast<size_t>(cores), shard.config);
    cfg.seed = spec.seed;
    std::vector<power::EnergyModel> energy;
    for (int c = 0; c < cores; ++c)
        energy.emplace_back(shard.config, /*includeChip=*/true);

    sp = log.begin("chip.construct", id, root);
    auto model = std::make_unique<chip::ChipModel>(cfg);
    log.end(sp);

    sp = log.begin("core.begin_run", id, root);
    model->beginRun(perCore);
    log.end(sp);

    const uint64_t warm = spec.warmup * static_cast<uint64_t>(shard.smt);
    sp = log.begin("core.warmup", id, root);
    model->advance(warm);
    log.end(sp, warm * static_cast<uint64_t>(cores));

    chip::ChipRunOptions opts;
    opts.measureInstrs = spec.instrs;
    opts.maxCycles = spec.maxCycles;
    const char* measureName = !shard.profile.frontend.empty() ? "trace.measure"
                              : cores >= 2                      ? "chip.measure"
                                                                : "core.measure";
    sp = log.begin(measureName, id, root);
    const chip::ChipResult run = model->measure(opts);
    log.end(sp, run.instrs);

    sp = log.begin("power.eval", id, root);
    double watts = 0.0;
    for (int c = 0; c < cores; ++c)
        watts += energy[static_cast<size_t>(c)]
                     .evalCounters(run.cores[static_cast<size_t>(c)].run)
                     .watts();
    log.end(sp, static_cast<uint64_t>(cores));

    if (!ref.ok || run.chipCycles != ref.cycles || run.instrs != ref.instrs ||
        run.ipc != ref.ipc || watts != ref.powerW)
        checks.fail(ref.key + ": traced shard differs from the Service "
                              "result (cycles/instrs/ipc/power)");

    sp = log.begin("sweep.cache_insert", id, root);
    const common::Status ins = cache.insert(spec, shard, ref);
    log.end(sp);
    if (!ins)
        checks.fail(ref.key + ": cache insert: " + ins.error().message);

    sp = log.begin("sweep.cache_lookup", id, root);
    const std::optional<sweep::ShardResult> hit = cache.lookup(spec, shard);
    log.end(sp);
    if (hit && (hit->cycles != ref.cycles || hit->powerW != ref.powerW))
        checks.fail(ref.key + ": cache lookup returned another result");

    sp = log.begin("chip.destroy", id, root);
    model.reset();
    log.end(sp);
    sources.clear();
    log.end(root);

    ++counts.lookups;
    counts.hits += hit ? 1 : 0;
    if (agg == nullptr)
        return;
    std::lock_guard<std::mutex> lk(agg->mu);
    ProfileStats& ps = agg->profiles[shard.profile.name];
    for (const chip::ChipCoreOutcome& co : run.cores) {
        ps.add(co.run);
        if (cores >= 2) {
            agg->stallCycles += co.stallCycles;
            agg->effCycles += co.effCycles;
        }
    }
    agg->throttledEpochs += run.throttledEpochs;
    agg->droopTrips += run.droopTrips;
}

/** One traced pass at the workload's jobs; returns its wall seconds. */
double
tracedPass(const Workload& w, const sweep::SweepResult& ref,
           const std::string& cacheDir, Clock::time_point epoch,
           int threadBase, std::vector<perfbench::Span>& spans,
           SimAgg* agg, CacheCounts& counts, Checks& checks)
{
    SpanLog log(epoch, threadBase);
    checks.attempted += ref.shards.size();
    const auto t0 = Clock::now();
    int64_t sp = log.begin("sweep.expand", 0);
    common::Expected<std::vector<sweep::ShardSpec>> shards =
        w.spec.expand();
    log.end(sp, shards ? shards.value().size() : 0);
    if (!shards || shards.value().size() != ref.shards.size()) {
        checks.fail("traced pass: expansion differs from the Service's");
        return secondsSince(t0);
    }
    sweep::ShardCache cache(cacheDir);
    if (!cache.prepare())
        checks.fail("traced pass: cannot prepare " + cacheDir);

    std::atomic<size_t> next{0};
    std::vector<SpanLog> logs;
    for (int j = 0; j < w.jobs; ++j)
        logs.emplace_back(epoch, threadBase + 1 + j);
    std::vector<std::thread> pool;
    for (int j = 0; j < w.jobs; ++j)
        pool.emplace_back([&, j] {
            for (size_t i = next++; i < ref.shards.size(); i = next++)
                traceShard(w.spec, shards.value()[i], ref.shards[i], cache,
                           logs[static_cast<size_t>(j)], agg, counts,
                           checks);
        });
    for (std::thread& t : pool)
        t.join();

    sp = log.begin("sweep.merge", 0);
    const obs::JsonReport report = api::Service::mergedReport(w.spec, ref);
    log.end(sp, ref.shards.size());
    sp = log.begin("obs.report_json", 0);
    const std::string json = report.toJson();
    log.end(sp, json.size());
    const double wall = secondsSince(t0);

    perfbench::appendLog(spans, log);
    for (const SpanLog& l : logs)
        perfbench::appendLog(spans, l);
    return wall;
}

// ---------------------------------------------------------------------
// serve_warm: loopback clients of an in-process service::Daemon
// ---------------------------------------------------------------------

class Client
{
  public:
    explicit Client(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
                0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    bool ok() const { return fd_ >= 0; }

    bool
    send(const std::string& line)
    {
        size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + off,
                                     line.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** Next response line without its '\n'; false on EOF or error. */
    bool
    readLine(std::string& out)
    {
        for (;;) {
            const size_t nl = buf_.find('\n', pos_);
            if (nl != std::string::npos) {
                out.assign(buf_, pos_, nl - pos_);
                pos_ = nl + 1;
                bytes_ += out.size() + 1;
                return true;
            }
            buf_.erase(0, pos_);
            pos_ = 0;
            char tmp[65536];
            const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
            if (n <= 0)
                return false;
            buf_.append(tmp, static_cast<size_t>(n));
        }
    }

    uint64_t bytesRead() const { return bytes_; }

  private:
    int fd_ = -1;
    std::string buf_;
    size_t pos_ = 0;
    uint64_t bytes_ = 0;
};

std::string
eventOf(const std::string& line)
{
    static const std::string tag = "\"event\":\"";
    const size_t at = line.find(tag);
    if (at == std::string::npos)
        return "";
    const size_t start = at + tag.size();
    return line.substr(start, line.find('"', start) - start);
}

uint64_t
fieldU64(const std::string& line, const std::string& key)
{
    const size_t at = line.find("\"" + key + "\":");
    return at == std::string::npos
               ? ~uint64_t(0)
               : std::strtoull(line.c_str() + at + key.size() + 3, nullptr,
                               10);
}

struct ServeStats
{
    std::mutex mu;
    std::vector<double> latencyMs;
    uint64_t requests = 0, shards = 0, respBytes = 0;
};

/**
 * Closed loop: each of @p clients connections sends the spec, waits for
 * `done`, and sends the next, until @p seconds have passed. Every done
 * report must equal @p expected byte for byte, with every shard cached.
 */
double
serveLoop(uint16_t port, const sweep::SweepSpec& spec,
          const std::string& expected, int clients, double seconds,
          SpanLog* logs, ServeStats& st, Checks& checks)
{
    const std::string specJson = spec.toJson();
    const uint64_t nShards = spec.shardCount();
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            Client cl(port);
            if (!cl.ok()) {
                checks.fail("client cannot connect to the daemon");
                return;
            }
            SpanLog* log = logs ? &logs[c] : nullptr;
            for (uint64_t seq = 0; secondsSince(t0) < seconds; ++seq) {
                const std::string id =
                    "c" + std::to_string(c) + "-" + std::to_string(seq);
                const std::string line = "{\"type\":\"sweep\",\"id\":\"" + id +
                                         "\",\"spec\":" + specJson + "}";
                const uint64_t reqId = seq * 16 + uint64_t(c);
                if (log) {
                    const int64_t p = log->begin("service.parse", reqId);
                    const bool parsed = service::Request::parse(line).ok();
                    log->end(p);
                    if (!parsed)
                        checks.fail("request line does not parse");
                }
                const uint64_t bytes0 = cl.bytesRead();
                const auto r0 = Clock::now();
                int64_t root = log ? log->begin("service.request", reqId) : 0;
                int64_t phase =
                    log ? log->begin("service.accept", reqId, root) : 0;
                bool ok = cl.send(line + "\n");
                std::string resp, ev;
                while (ok && (ok = cl.readLine(resp))) {
                    ev = eventOf(resp);
                    if (ev == "accepted" && log) {
                        log->end(phase);
                        phase = log->begin("service.exec", reqId, root);
                    }
                    if (ev == "done" || ev == "error")
                        break;
                }
                if (log) {
                    log->end(phase);
                    log->end(root, nShards);
                }
                const double ms =
                    std::chrono::duration<double, std::milli>(Clock::now() - r0)
                        .count();
                bool good = ok && ev == "done";
                if (good) {
                    auto rep = service::extractReport(resp);
                    if (!rep || rep.value() != expected) {
                        checks.fail(id + ": done report differs from the "
                                         "in-process merged report");
                        good = false;
                    } else if (fieldU64(resp, "cached_shards") != nShards ||
                               fieldU64(resp, "simulated_shards") != 0) {
                        checks.fail(id + ": not every shard was a cache hit");
                        good = false;
                    }
                } else {
                    checks.fail(id + ": no done line (" + ev + ")");
                }
                std::lock_guard<std::mutex> lk(st.mu);
                ++st.requests;
                st.respBytes += cl.bytesRead() - bytes0;
                if (!good) {
                    if (!ok)
                        return; // the connection is gone
                    continue;
                }
                st.latencyMs.push_back(ms);
                st.shards += nShards;
            }
        });
    for (std::thread& t : threads)
        t.join();
    return secondsSince(t0);
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/** P10/P9 ipc-per-watt geomean over matched (workload, smt, seed). */
struct PaperRatio
{
    double st = 0.0, smt8 = 0.0, all = 0.0;
    uint64_t pairs = 0;
};

PaperRatio
paperRatio(const sweep::SweepResult& r)
{
    std::map<std::string, double> p9, p10;
    for (const sweep::ShardResult& s : r.shards) {
        const size_t slash = s.key.find('/');
        if (!s.ok || s.ipcPerW <= 0.0 || slash == std::string::npos)
            continue;
        const std::string cfg = s.key.substr(0, slash);
        const std::string rest = s.key.substr(slash + 1);
        if (cfg == "power9")
            p9[rest] = s.ipcPerW;
        else if (cfg == "power10")
            p10[rest] = s.ipcPerW;
    }
    double logAll = 0, logSt = 0, log8 = 0;
    uint64_t nSt = 0, n8 = 0;
    PaperRatio out;
    for (const auto& [rest, v10] : p10) {
        auto it = p9.find(rest);
        if (it == p9.end())
            continue;
        const double l = std::log(v10 / it->second);
        logAll += l;
        ++out.pairs;
        if (rest.find("/smt1/") != std::string::npos) {
            logSt += l;
            ++nSt;
        } else if (rest.find("/smt8/") != std::string::npos) {
            log8 += l;
            ++n8;
        }
    }
    auto gm = [](double s, uint64_t n) {
        return n ? std::exp(s / double(n)) : 0.0;
    };
    out.all = gm(logAll, out.pairs);
    out.st = gm(logSt, nSt);
    out.smt8 = gm(log8, n8);
    return out;
}

double
ipcPerWGeomean(const sweep::SweepResult& r)
{
    double s = 0.0;
    uint64_t n = 0;
    for (const sweep::ShardResult& x : r.shards)
        if (x.ok && x.ipcPerW > 0.0) {
            s += std::log(x.ipcPerW);
            ++n;
        }
    return n ? std::exp(s / double(n)) : 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printResult(const std::vector<Metric>& metrics, uint64_t attempted,
            uint64_t failed)
{
    for (const Metric& m : metrics)
        std::printf("metric %-32s %20.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("failed_frac %.6f (%llu of %llu)\n",
                attempted ? double(failed) / double(attempted) : 0.0,
                (unsigned long long)failed, (unsigned long long)attempted);
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " +
               num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
               "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

bool
parseArgs(int argc, char** argv, Args& a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--workdir")
            a.workdir = v;
        else if (k == "--spans-out")
            a.spansOut = v;
        else if (k == "--source-hash")
            a.sourceHash = v;
        else if (k == "--setup-samples")
            a.setupSamples = parseList(v);
        else if (k == "--setup-mips")
            a.setupMips = parseList(v);
        else
            return false;
    }
    return !a.workload.empty() && !a.workdir.empty() && a.seconds > 0.0;
}

/** What set-up leaves for the timed phase. */
struct SetUp
{
    std::string git;
    double seconds = 0.0;
    // serve_warm: the cold pass that fills the daemon's cache.
    sweep::SweepResult coldResult;
    std::string coldReport;
    double coldMips = 0.0, coldBusy = 0.0;
    std::string serveCache;
    std::unique_ptr<service::Daemon> daemon;
};

/**
 * Record perlbench's default stream into a trace container and resolve
 * it, so the trace shard simulates the same instructions under every
 * benchmark seed. Returns the workload name, or "" on failure.
 */
std::string
recordPerlbenchTrace(const std::string& dir)
{
    const std::string path = dir + "/perlbench.p10trace";
    auto prof = workloads::resolveWorkload("perlbench");
    if (!prof)
        return "";
    auto src = workloads::makeSource(prof.value(), 0);
    if (!src)
        return "";
    trace::TraceMeta meta;
    meta.name = "perlbench";
    meta.source =
        "synthetic:perlbench seed " + std::to_string(prof.value().seed);
    const trace::TraceData data =
        trace::recordTrace(*src.value(), kTraceInstrs, std::move(meta));
    if (!data.save(path).ok())
        return "";
    trace::registerTraceFrontend();
    return workloads::resolveWorkload("trace:" + path) ? "trace:" + path : "";
}

/** Everything before the first timed pass; false when it cannot run. */
bool
setUp(const Args& args, Workload& w, Clock::time_point start,
      SpanLog& log, Checks& checks, SetUp& out)
{
    int64_t sp = log.begin("obs.git_describe", 0);
    out.git = obs::gitDescribe();
    log.end(sp);

    if (w.recordTrace) {
        sp = log.begin("trace.record", 0);
        const std::string name = recordPerlbenchTrace(args.workdir);
        log.end(sp, kTraceInstrs);
        if (name.empty()) {
            std::fprintf(stderr, "perfbench: cannot record the trace\n");
            return false;
        }
        w.spec.workloads.push_back(name);
    }

    if (w.warmupPass) {
        Pass ignored;
        runPass(w, "", ignored, checks);
    }

    if (w.serve) {
        out.serveCache = args.workdir + "/serve-cache";
        std::filesystem::remove_all(out.serveCache);
        Pass cold;
        out.coldResult = runPass(w, out.serveCache, cold, checks);
        out.coldReport = reportJson(w.spec, out.coldResult);
        out.coldMips = double(cold.simInstrs) / cold.wallS / 1e6;
        out.coldBusy = cold.busyFrac;

        sp = log.begin("service.daemon_start", 0);
        service::DaemonOptions opts;
        opts.cacheDir = out.serveCache;
        opts.executors = 2;
        opts.jobsPerRequest = 1;
        out.daemon = std::make_unique<service::Daemon>(opts);
        const common::Status st = out.daemon->start();
        log.end(sp);
        if (!st) {
            std::fprintf(stderr, "perfbench: daemon: %s\n",
                         st.error().message.c_str());
            return false;
        }
    }
    out.seconds = secondsSince(start);
    return true;
}

/** The untraced timed window and the reference result it produced. */
struct Timed
{
    std::vector<double> latencyMs; ///< per pass, or per request
    std::vector<double> mips, shardsPerS, busy; ///< per pass
    double serveShardsPerS = 0.0;
    sweep::SweepResult ref;
    std::string refReport;
};

void
runTimed(const Args& args, const Workload& w, const SetUp& su,
         double seconds, Checks& checks, Timed& out)
{
    if (w.serve) {
        // The warm in-process reference the daemon must reproduce.
        api::Service svc(api::Service::Options{su.serveCache});
        api::SweepOptions o;
        o.jobs = 1;
        auto warm = svc.runSweep(w.spec, o);
        checks.attempted += w.spec.shardCount();
        if (!warm || warm.value().cachedShards != w.spec.shardCount()) {
            checks.fail("warm in-process pass is not all cache hits");
            out.ref = su.coldResult;
        } else {
            out.ref = std::move(warm.value());
        }
        out.refReport = reportJson(w.spec, out.ref);
        if (out.refReport != su.coldReport)
            checks.fail("warm merged report differs from the cold report");

        ServeStats st;
        const double elapsed = serveLoop(su.daemon->port(), w.spec,
                                         out.refReport, 2, seconds, nullptr,
                                         st, checks);
        checks.attempted += st.requests;
        out.latencyMs = st.latencyMs;
        out.serveShardsPerS = double(st.shards) / elapsed;
        return;
    }

    const auto t0 = Clock::now();
    for (int n = 0; n < kMinPasses || secondsSince(t0) < seconds; ++n) {
        const std::string dir =
            w.freshCachePerPass
                ? args.workdir + "/cache-pass" + std::to_string(n)
                : "";
        Pass p;
        sweep::SweepResult r = runPass(w, dir, p, checks);
        if (!dir.empty())
            std::filesystem::remove_all(dir);
        if (r.shards.size() != w.spec.shardCount())
            continue; // runPass counted the failure
        const std::string rep = reportJson(w.spec, r);
        if (out.refReport.empty()) {
            out.refReport = rep;
            out.ref = std::move(r);
        } else if (rep != out.refReport) {
            checks.fail("merged report differs between passes");
        }
        out.latencyMs.push_back(p.wallS * 1e3);
        out.mips.push_back(double(p.simInstrs) / p.wallS / 1e6);
        out.shardsPerS.push_back(double(p.shards) / p.wallS);
        out.busy.push_back(p.busyFrac);
    }
}

std::vector<Metric>
endToEndMetrics(const Args& args, const Workload& w, const SetUp& su,
                const Timed& t)
{
    std::vector<double> setup = args.setupSamples;
    setup.push_back(su.seconds);
    std::vector<double> setupMips = args.setupMips;
    setupMips.push_back(su.coldMips);
    std::printf("samples setup_s");
    for (double v : setup)
        std::printf(" %.4f", v);
    std::printf("\nsamples req_ms");
    for (double v : t.latencyMs)
        std::printf(" %.2f", v);
    std::printf("\n");
    return {
        {"setup_s", median(setup), "s"},
        {"sweep_mips", w.serve ? median(setupMips) : median(t.mips), "MIPS"},
        {"shards_per_s", w.serve ? t.serveShardsPerS : median(t.shardsPerS),
         "1/s"},
        {"req_ms_p50", median(t.latencyMs), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_ipc_geomean", t.ref.geoMeanIpc(), "ipc"},
        {"sim_ipc_per_w_geomean", ipcPerWGeomean(t.ref), "ipc/W"},
    };
}

/**
 * Resident growth of constructing one ChipModel, probed alone for each
 * distinct chip shape and weighted by the shards that use it.
 */
double
constructRssMb(const sweep::SweepSpec& spec)
{
    auto shards = spec.expand();
    if (!shards)
        return 0.0;
    std::map<std::pair<std::string, int>, uint64_t> uses;
    std::map<std::pair<std::string, int>, core::CoreConfig> configs;
    for (const sweep::ShardSpec& s : shards.value()) {
        ++uses[{s.configName, s.cores}];
        configs[{s.configName, s.cores}] = s.config;
    }
    double sum = 0.0;
    for (const auto& [shape, n] : uses) {
        chip::ChipConfig cfg;
        cfg.cores.assign(static_cast<size_t>(shape.second), configs[shape]);
        malloc_trim(0);
        const double before = residentMb();
        const chip::ChipModel model(cfg);
        sum += double(n) * (residentMb() - before);
    }
    return sum / double(shards.value().size());
}

/**
 * The traced half of a --trace 1 run: traced passes (for serve_warm,
 * one traced drive of its shards, traced requests and in-process warm
 * runSweep calls), reduced to the per-layer metrics.
 */
std::vector<Metric>
perLayerMetrics(const Args& args, const Workload& w, const SetUp& su,
                const Timed& t, double seconds, SpanLog& setupLog,
                Clock::time_point epoch, Checks& checks)
{
    std::vector<perfbench::Span> spans;
    SimAgg agg;
    CacheCounts cache;
    std::vector<double> tracedPassMs;
    const sweep::SweepResult& ref = w.serve ? su.coldResult : t.ref;
    const auto t0 = Clock::now();
    for (int n = 0; n < kMinPasses || secondsSince(t0) < seconds; ++n) {
        const std::string dir =
            args.workdir + "/trace-cache" + std::to_string(n);
        tracedPassMs.push_back(1e3 * tracedPass(w, ref, dir, epoch,
                                                1000 * (n + 1), spans,
                                                n == 0 ? &agg : nullptr,
                                                cache, checks));
        std::filesystem::remove_all(dir);
        if (w.serve)
            break; // serve_warm's window is its requests
    }
    const double untracedMs = median(t.latencyMs);
    double overheadPct = (median(tracedPassMs) / untracedMs - 1.0) * 100.0;

    std::vector<double> runSweepMs = t.latencyMs;
    ServeStats served;
    if (w.serve) {
        std::vector<SpanLog> logs;
        for (int c = 0; c < 2; ++c)
            logs.emplace_back(epoch, 100 + c);
        serveLoop(su.daemon->port(), w.spec, t.refReport, 2,
                  std::max(seconds - secondsSince(t0), 1.0), logs.data(),
                  served, checks);
        checks.attempted += served.requests;
        for (const SpanLog& l : logs)
            perfbench::appendLog(spans, l);
        overheadPct = (median(served.latencyMs) / untracedMs - 1.0) * 100.0;

        // In-process Service::runSweep on the warm spec, with the
        // daemon idle.
        SpanLog log(epoch, 200);
        api::Service svc(api::Service::Options{su.serveCache});
        api::SweepOptions o;
        o.jobs = 1;
        runSweepMs.clear();
        for (uint64_t i = 0; i < 30; ++i) {
            const auto a0 = Clock::now();
            const int64_t sp = log.begin("api.run_sweep", i);
            auto r = svc.runSweep(w.spec, o);
            log.end(sp, w.spec.shardCount());
            runSweepMs.push_back(1e3 * secondsSince(a0));
            checks.attempted += w.spec.shardCount();
            if (!r || reportJson(w.spec, r.value()) != t.refReport)
                checks.fail("in-process warm runSweep differs");
        }
        perfbench::appendLog(spans, log);
    }

    perfbench::appendLog(spans, setupLog);
    if (!args.spansOut.empty() && !perfbench::writeSpans(args.spansOut, spans))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.spansOut.c_str());
    const auto totals = perfbench::reduceSpans(spans);
    auto get = [&](const char* name) -> const perfbench::SpanTotals& {
        static const perfbench::SpanTotals none;
        auto it = totals.find(name);
        return it == totals.end() ? none : it->second;
    };
    auto meanMs = [&](const char* name) { return get(name).meanNs() / 1e6; };
    auto meanUs = [&](const char* name) { return get(name).meanNs() / 1e3; };
    auto medianMs = [&](const char* name) {
        return median(get(name).durNs) / 1e6;
    };

    ProfileStats all;
    for (const auto& [name, ps] : agg.profiles) {
        all.add(ps);
        std::printf("profile %-28s l1d_mpki %.4f l2_mpki %.4f l3_mpki %.4f "
                    "branch_mpki %.4f flush_pki %.4f\n",
                    name.c_str(), ps.perKilo(ps.l1d), ps.perKilo(ps.l2),
                    ps.perKilo(ps.l3), ps.perKilo(ps.branch),
                    ps.perKilo(ps.flush));
    }
    const double c1 = get("core.measure").selfNsPerCount();
    const double c4 = get("chip.measure").selfNsPerCount();
    const double apiMs = median(runSweepMs);
    const uint64_t lookups = cache.lookups.load();
    return {
        {"workloads.build_ms", meanMs("workloads.build"), "ms"},
        {"trace.record_s", get("trace.record").totalNs / 1e9, "s"},
        {"trace.measure_ns_per_instr", get("trace.measure").selfNsPerCount(),
         "ns"},
        {"chip.construct_ms", meanMs("chip.construct"), "ms"},
        {"chip.destroy_ms", meanMs("chip.destroy"), "ms"},
        {"chip.construct_rss_mb", constructRssMb(w.spec), "MB"},
        {"chip.c4_ns_per_core_instr", c4, "ns"},
        {"chip.c4_over_c1", c1 > 0.0 && c4 > 0.0 ? c4 / c1 : 0.0, "ratio"},
        {"chip.stall_frac",
         agg.effCycles ? double(agg.stallCycles) / double(agg.effCycles) : 0.0,
         "frac"},
        {"chip.throttled_epochs", double(agg.throttledEpochs), "count"},
        {"chip.droop_trips", double(agg.droopTrips), "count"},
        {"core.warmup_ns_per_instr", get("core.warmup").selfNsPerCount(),
         "ns"},
        {"core.measure_ns_per_instr", c1, "ns"},
        {"core.l1d_mpki", all.perKilo(all.l1d), "1/kinstr"},
        {"core.l2_mpki", all.perKilo(all.l2), "1/kinstr"},
        {"core.l3_mpki", all.perKilo(all.l3), "1/kinstr"},
        {"core.branch_mpki", all.perKilo(all.branch), "1/kinstr"},
        {"core.flush_pki", all.perKilo(all.flush), "1/kinstr"},
        {"power.eval_us", meanUs("power.eval"), "us"},
        {"sweep.expand_ms", medianMs("sweep.expand"), "ms"},
        {"sweep.cache_lookup_us", meanUs("sweep.cache_lookup"), "us"},
        {"sweep.cache_insert_us", meanUs("sweep.cache_insert"), "us"},
        {"sweep.cache_hit_ratio",
         lookups ? double(cache.hits.load()) / double(lookups) : 0.0, "ratio"},
        {"sweep.merge_ms", medianMs("sweep.merge"), "ms"},
        {"sweep.pool_busy_frac", w.serve ? su.coldBusy : median(t.busy),
         "frac"},
        {"obs.report_json_ms", medianMs("obs.report_json"), "ms"},
        {"obs.git_describe_ms", get("obs.git_describe").totalNs / 1e6, "ms"},
        {"api.run_sweep_ms", apiMs, "ms"},
        {"service.req_ms_p99", w.serve ? percentile(t.latencyMs, 99.0) : 0.0,
         "ms"},
        {"service.parse_us", meanUs("service.parse"), "us"},
        {"service.accept_ms", medianMs("service.accept"), "ms"},
        {"service.exec_ms", medianMs("service.exec"), "ms"},
        {"service.wire_ms", w.serve ? medianMs("service.request") - apiMs : 0.0,
         "ms"},
        {"service.resp_kb_per_req",
         served.requests
             ? double(served.respBytes) / 1024.0 / double(served.requests)
             : 0.0,
         "KiB"},
        {"service.daemon_start_ms", get("service.daemon_start").totalNs / 1e6,
         "ms"},
        {"bench.trace_overhead_pct", overheadPct, "%"},
    };
}

} // namespace

int
main(int argc, char** argv)
{
    const auto start = Clock::now();
    Args args;
    Workload w;
    if (!parseArgs(argc, argv, args) ||
        !makeWorkload(args.workload, args.seed, w)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload "
                     "<sweep_short|core_chip|serve_warm> --seed N "
                     "--seconds S --trace 0|1 --workdir DIR\n");
        return 2;
    }
    std::filesystem::create_directories(args.workdir);
    Checks checks;
    SpanLog setupLog(start, 0);
    SetUp su;
    if (!setUp(args, w, start, setupLog, checks, su))
        return 1;

    if (args.setupOnly) {
        if (su.daemon)
            su.daemon->waitUntilStopped();
        std::printf("{\"setup_s\": %s, \"setup_mips\": %s}\n",
                    num(su.seconds).c_str(), num(su.coldMips).c_str());
        return checks.mismatches == 0 ? 0 : 1;
    }

    std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, "
                "\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"git\": \"%s\", "
                "\"source_sha256\": \"%s\"}\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, su.git.c_str(),
                args.sourceHash.c_str());

    // A traced run spends half its window untraced, for the overhead.
    const double window = args.trace ? args.seconds / 2.0 : args.seconds;
    Timed timed;
    runTimed(args, w, su, window, checks, timed);
    const std::vector<Metric> metrics =
        args.trace ? perLayerMetrics(args, w, su, timed, window, setupLog,
                                     start, checks)
                   : endToEndMetrics(args, w, su, timed);

    if (w.spec.configs.size() == 2) {
        const PaperRatio pr = paperRatio(timed.ref);
        std::printf("paper perf_per_w P10/P9 geomean %.4f (st %.4f, smt8 "
                    "%.4f, %llu pairs) vs Table I %.1f: "
                    "paper_perf_per_w_err_pct %.4f\n",
                    pr.all, pr.st, pr.smt8, (unsigned long long)pr.pairs,
                    kPaperPerfPerW,
                    100.0 * std::fabs(pr.all / kPaperPerfPerW - 1.0));
    }

    if (su.daemon)
        su.daemon->waitUntilStopped();
    printResult(metrics, std::max<uint64_t>(checks.attempted, 1),
                checks.mismatches);
    return checks.mismatches == 0 ? 0 : 1;
}
