#include "trace/replay.h"

#include <map>
#include <mutex>

#include "common/assert.h"
#include "common/file.h"
#include "isa/op.h"
#include "obs/metrics.h"

namespace p10ee::trace {

using common::Error;
using common::Expected;
using common::Status;

TraceReplaySource::TraceReplaySource(
    std::shared_ptr<const TraceData> data)
    : data_(std::move(data))
{
    P10_ASSERT(data_ != nullptr && data_->instrCount() > 0,
               "replay requires a non-empty trace");
    decodeWindow(0);
}

void
TraceReplaySource::decodeWindow(size_t chunk)
{
    const Status decoded = data_->decodeChunk(chunk, window_);
    // The shared loader content-verified the container (every chunk
    // decoded once); a failure here means the caller skipped that
    // contract, which is a programming error, not hostile input.
    P10_ASSERT(decoded.ok(),
               "replay over an unverified trace container");
    chunk_ = chunk;
    posInWindow_ = 0;
}

isa::TraceInstr
TraceReplaySource::next()
{
    if (posInWindow_ >= window_.size()) {
        const size_t nextChunk = chunk_ + 1 < data_->chunkCount()
                                     ? chunk_ + 1
                                     : 0;
        if (nextChunk == chunk_)
            posInWindow_ = 0; // single-chunk trace: no re-decode
        else
            decodeWindow(nextChunk);
    }
    const isa::TraceInstr& in = window_[posInWindow_];
    ++posInWindow_;
    ++cursor_;
    if (cursor_ >= data_->instrCount())
        cursor_ = 0;
    return in;
}

std::string
TraceReplaySource::name() const
{
    return std::string(kScheme) + ":" + data_->meta().name;
}

void
TraceReplaySource::saveState(common::BinWriter& w) const
{
    w.u64(data_->contentHash());
    w.u64(cursor_);
}

Status
TraceReplaySource::loadState(common::BinReader& r)
{
    const uint64_t hash = r.u64();
    const uint64_t cursor = r.u64();
    if (r.ok() && hash != data_->contentHash())
        return Error::invalidArgument(
            "trace replay state was saved over a different trace "
            "(content hash mismatch for '" + data_->meta().name +
            "')");
    if (r.ok() && cursor >= data_->instrCount())
        return Error::invalidArgument(
            "trace replay cursor out of range");
    if (Status st = r.status("trace replay state"); !st)
        return st;
    // Seek: find the chunk holding the cursor, decode it, position
    // within it. Chunk first-indices ascend, so a linear scan is fine
    // at chunk granularity.
    size_t chunk = data_->chunkCount() - 1;
    for (size_t i = 0; i + 1 < data_->chunkCount(); ++i)
        if (cursor < data_->chunkFirstIndex(i + 1)) {
            chunk = i;
            break;
        }
    decodeWindow(chunk);
    posInWindow_ = static_cast<size_t>(
        cursor - data_->chunkFirstIndex(chunk));
    cursor_ = cursor;
    return common::okStatus();
}

TraceData
recordTrace(workloads::InstrSource& source, uint64_t n, TraceMeta meta,
            uint8_t encoding)
{
    P10_ASSERT(n > 0, "recordTrace requires at least one instruction");
    TraceWriter writer(std::move(meta), encoding);
    bool isa31 = false;
    for (uint64_t i = 0; i < n; ++i) {
        const isa::TraceInstr in = source.next();
        isa31 = isa31 || in.prefixed || isa::isMma(in.op) ||
                in.op == isa::OpClass::Load32B ||
                in.op == isa::OpClass::Store32B;
        writer.add(in);
    }
    if (writer.meta().dialect.empty())
        writer.meta().dialect =
            isa31 ? "power-isa-3.1" : "power-isa-3.0";
    return writer.finish();
}

Expected<std::shared_ptr<const TraceData>>
loadShared(const std::string& path)
{
    // Process-wide resident container cache: a sweep replays one trace
    // across many shards x SMT threads, and every one of them shares
    // one loaded, verified container. An entry is keyed by path and
    // stamped with the identity of the file it was read from; every
    // lookup re-stats the path, so a renamed-over, rewritten or deleted
    // file is reloaded (or reported missing), never replayed stale.
    // Each path has its own lock, so concurrent first lookups load the
    // file once while other paths proceed.
    struct Entry
    {
        std::mutex mu;
        common::FileStamp stamp;
        std::shared_ptr<const TraceData> data;
    };
    static std::mutex mu;
    static std::map<std::string, std::shared_ptr<Entry>> cache;
    static const obs::MetricId loads =
        obs::metrics().counter("trace.container_loads");

    Expected<common::FileStamp> now = common::statFile(path);
    if (!now) {
        std::lock_guard<std::mutex> lk(mu);
        cache.erase(path); // a deleted trace pins no memory
        return Error::notFound("cannot open trace: " + path);
    }
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lk(mu);
        std::shared_ptr<Entry>& slot = cache[path];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
    }
    std::lock_guard<std::mutex> lk(entry->mu);
    if (entry->data && entry->stamp == now.value())
        return entry->data;

    entry->data.reset(); // a failed reload must not pin the old file
    obs::metrics().add(loads);
    common::FileStamp stamp;
    Expected<TraceData> loaded = TraceData::load(path, &stamp);
    if (!loaded)
        return loaded.error();
    // Content verification up front: replay decodes chunks on a path
    // that cannot return errors (InstrSource::next()), so every chunk
    // must be proven decodable — and match the stored content
    // identity — before any source is built over it.
    if (Status st = loaded.value().verifyContent(); !st)
        return Error(st.error().code,
                     path + ": " + st.error().message);
    entry->stamp = stamp;
    entry->data =
        std::make_shared<const TraceData>(std::move(loaded.value()));
    return entry->data;
}

Expected<workloads::WorkloadProfile>
resolveTraceWorkload(const std::string& path)
{
    Expected<std::shared_ptr<const TraceData>> data = loadShared(path);
    if (!data)
        return data.error();
    workloads::WorkloadProfile profile;
    profile.name =
        std::string(kScheme) + ":" + data.value()->meta().name;
    profile.frontend = kScheme;
    profile.sourcePath = path;
    profile.contentHash = data.value()->contentHash();
    return profile;
}

void
registerTraceFrontend()
{
    static std::once_flag once;
    std::call_once(once, [] {
        workloads::WorkloadFrontend fe;
        fe.scheme = kScheme;
        fe.resolve = [](const std::string& rest) {
            return resolveTraceWorkload(rest);
        };
        fe.makeSource =
            [](const workloads::WorkloadProfile& profile, int threadId)
            -> Expected<
                std::unique_ptr<workloads::CheckpointableSource>> {
            (void)threadId; // the recorded addresses ARE the workload
            Expected<std::shared_ptr<const TraceData>> data =
                loadShared(profile.sourcePath);
            if (!data)
                return data.error();
            if (data.value()->contentHash() != profile.contentHash)
                return Error::invalidConfig(
                    "trace '" + profile.sourcePath +
                    "' changed since the workload was resolved "
                    "(content hash mismatch); re-expand the sweep");
            return std::unique_ptr<workloads::CheckpointableSource>(
                std::make_unique<TraceReplaySource>(
                    std::move(data.value())));
        };
        workloads::registerFrontend(std::move(fe));
    });
}

} // namespace p10ee::trace
