/**
 * @file
 * The fleet coordinator: fault-tolerant distributed sweep execution
 * over N `p10d` workers.
 *
 * A FleetRunner shards a SweepSpec exactly as SweepRunner does — the
 * same expansion order, the same splitSeed streams, the same
 * index-ordered fold — and dispatches shards to workers as *leased*
 * jobs over the NDJSON protocol. The robustness layer:
 *
 *  - every lease carries a deadline (derived from the spec's
 *    max_cycles unless overridden) and a heartbeat expectation; a
 *    missed heartbeat window, an expired lease, a broken connection or
 *    a protocol violation marks the attempt failed, closes the
 *    connection, and returns the shard to the ready queue;
 *  - reconnects use bounded exponential backoff with jitter; a worker
 *    that stays unreachable (or keeps corrupting the stream) is
 *    retired from the fleet;
 *  - a shard that fails on maxShardWorkers distinct workers — or
 *    exhausts its total attempt budget — is recorded as skipped with
 *    the fault campaign's deterministic skip-and-record discipline:
 *    the recorded result is a function of the shard identity only,
 *    never of scheduling (no addresses, no attempt counts);
 *  - the coordinator serves its ShardCache directory as a remote tier:
 *    workers probe by key (cache_get) before simulating and publish
 *    fresh entries back (cache_put), so one warm cache feeds the whole
 *    fleet; entries are persisted with the cache's own validated
 *    temp+rename path;
 *  - degradation ladder: shards a dying fleet leaves behind are run
 *    in-process through the identical SweepRunner::runShard path, and
 *    a fleet with zero (configured or reachable) workers degrades to a
 *    plain local sweep with a structured warning — never a failed
 *    sweep.
 *
 * Determinism contract unchanged from PR 3: every recorded result is a
 * pure function of (spec, shard index) no matter which worker produced
 * it or how many times it was reassigned, so the merged report is
 * byte-identical to the single-process run whenever no shard was
 * skipped. Everything scheduling-dependent lands in FleetStats and the
 * fleet sidecar report, never in the merge.
 */

#ifndef P10EE_FABRIC_FLEET_H
#define P10EE_FABRIC_FLEET_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "api/types.h"
#include "common/error.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sweep/cache.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

namespace p10ee::fabric {

/** One worker endpoint (p10d on a loopback or LAN address). */
struct WorkerAddress
{
    std::string host;
    uint16_t port = 0;
};

/** Parse "host:port,host:port,..." (the --workers flag). */
common::Expected<std::vector<WorkerAddress>> parseWorkerList(
    const std::string& csv);

/** Parse a fleet file: {"workers":["host:port",...]} — strict keys. */
common::Expected<std::vector<WorkerAddress>> parseFleetFile(
    const std::string& path);

struct FleetOptions
{
    std::vector<WorkerAddress> workers;

    /** Coordinator-side ShardCache directory, served to workers as
        the remote tier ("" = no fleet cache). */
    std::string cacheDir;

    /** Heartbeat interval asked of workers (0 disables liveness
        tracking — only the lease deadline then bounds an attempt). */
    uint64_t heartbeatMs = 200;
    /** Consecutive missed heartbeat intervals before a worker is
        suspect (the silence window, floored at 1s). */
    int heartbeatMisses = 10;

    /** Lease deadline per shard attempt in ms; 0 derives one from the
        spec's max_cycles (clamped to [5s, 120s]; unbounded specs get
        the full 120s). */
    uint64_t leaseMs = 0;

    /** Distinct workers a shard may fail on before it is skipped. */
    int maxShardWorkers = 3;
    /** Total attempt budget per shard (reassignments included). */
    int maxShardAttempts = 8;

    /** Consecutive connection failures before a worker is retired. */
    int connectAttempts = 3;
    /** Base of the reconnect backoff (doubles per failure, jittered,
        bounded at 32x). */
    uint64_t backoffBaseMs = 50;

    /** Pool threads for degraded in-process execution. */
    int localJobs = 1;

    /** Record a distributed flight trace: a TraceContext is derived
        from the spec seed, child contexts ride every shard request on
        the wire, and after run() the merged Perfetto timeline is
        available via traceJson(). Off by default — tracing must never
        change results (the determinism test pins this), only observe
        them. */
    bool trace = false;

    /** Progress stream (serialized; scheduling-dependent — see
        api::ProgressEvent). */
    api::ProgressFn onProgress;
    /** Structured warnings (degradation, worker retirement). Default
        is silent; the CLI wires stderr. */
    std::function<void(const std::string&)> onWarning;
};

/** Scheduling-dependent fleet telemetry (sidecar-only — never part of
    the merged report). */
struct FleetStats
{
    uint64_t workers = 0;         ///< configured fleet size
    uint64_t workersDead = 0;     ///< retired (unreachable/corrupt)
    uint64_t dispatched = 0;      ///< shard attempts sent to workers
    uint64_t reassigned = 0;      ///< attempts that failed and requeued
    uint64_t skipped = 0;         ///< shards recorded as skipped
    uint64_t remoteCacheHits = 0; ///< cache_get probes answered hit
    uint64_t remoteCachePuts = 0; ///< entries published by workers
    uint64_t localShards = 0;     ///< shards run in-process (degraded)
    uint64_t connectFailures = 0; ///< failed dial attempts
    uint64_t protocolErrors = 0;  ///< malformed worker lines / entries
};

class FleetRunner
{
  public:
    FleetRunner(sweep::SweepSpec spec, FleetOptions opts);
    ~FleetRunner() = default;

    FleetRunner(const FleetRunner&) = delete;
    FleetRunner& operator=(const FleetRunner&) = delete;

    /**
     * Execute the sweep across the fleet. Errors are pre-flight only
     * (invalid spec, unusable cache directory); worker loss, stragglers
     * and even a fully dead fleet degrade — the result always comes
     * back index-complete.
     */
    common::Expected<sweep::SweepResult> run();

    /** Telemetry of the last run() (valid after it returns). */
    const FleetStats& stats() const { return stats_; }

    const sweep::SweepSpec& spec() const { return spec_; }

    /**
     * Fleet provenance sidecar: the cache-stats conservation triple
     * (sweep.shards / sweep.cached / sweep.simulated) plus fleet.*
     * scalars. Separate from the merged report for the same reason
     * cacheStats() is — none of it is a function of the spec.
     */
    static obs::JsonReport fleetStatsReport(
        const sweep::SweepResult& result, const FleetStats& stats,
        const std::string& tool);

    /** Merged Perfetto trace JSON of the last run() — "" unless
        options.trace was set. One timeline reconciling every span the
        coordinator and all workers recorded for this run. */
    const std::string& traceJson() const { return traceJson_; }

    /** The root trace context of the last run() (invalid unless
        options.trace was set). */
    const obs::TraceContext& traceRoot() const { return traceRoot_; }

  private:
    void workerLoop(size_t workerIdx);
    /** Record a finished shard (success, failure or skip) exactly
        once; requeue duplicates are dropped. Under mu_. */
    void recordLocked(uint64_t idx, api::ShardResult result);
    void emitProgress(const api::ShardResult& result);
    void warn(const std::string& message);
    void runLocally(const std::vector<uint64_t>& indices);
    uint64_t leaseDeadlineMs() const;
    /** Microseconds since the run's trace epoch (0 when not tracing —
        callers only stamp spans behind opts_.trace). */
    uint64_t traceNowUs() const;

    sweep::SweepSpec spec_;
    FleetOptions opts_;
    FleetStats stats_;

    std::vector<sweep::ShardSpec> shards_;
    std::unique_ptr<sweep::ShardCache> cache_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<uint64_t> ready_;
    std::vector<bool> done_;
    std::vector<api::ShardResult> results_;
    /** Distinct worker indices each shard has failed on. */
    std::vector<std::set<size_t>> struckBy_;
    std::vector<int> attempts_;
    uint64_t completed_ = 0;
    int activeWorkers_ = 0;

    std::mutex progressMu_;

    // Flight-recorder state (all unused when opts_.trace is false).
    // spans_[0] is the coordinator's recorder; spans_[1 + w] belongs to
    // worker thread w — one SpanRecorder per thread honours the
    // single-owner contract, and the merge after join() reads them all.
    obs::TraceContext traceRoot_;
    std::chrono::steady_clock::time_point traceEpoch_;
    std::vector<obs::SpanRecorder> spans_;
    std::string traceJson_;
};

} // namespace p10ee::fabric

#endif // P10EE_FABRIC_FLEET_H
