#include "ckpt/checkpoint.h"

#include <cstdio>
#include <fstream>

#include "common/file.h"
#include "common/hash.h"
#include "common/serialize.h"

namespace p10ee::ckpt {

using common::BinReader;
using common::BinWriter;
using common::Error;
using common::Expected;
using common::Fnv1a;
using common::Status;

namespace {

constexpr char kMagic[8] = {'P', '1', '0', 'C', 'K', 'P', 'T', '\0'};

void
serializeCacheParams(BinWriter& w, const core::CacheParams& p)
{
    w.u32(p.sizeBytes);
    w.u32(p.ways);
    w.u32(p.lineSize);
    w.u32(p.latency);
    w.u32(p.occupancy);
}

void
serializeBranchParams(BinWriter& w, const core::BranchParams& p)
{
    w.u64(static_cast<uint64_t>(p.bimodalBits));
    w.u64(static_cast<uint64_t>(p.gshareBits));
    w.u64(static_cast<uint64_t>(p.gshareHist));
    w.b(p.secondGshare);
    w.u64(static_cast<uint64_t>(p.gshare2Bits));
    w.u64(static_cast<uint64_t>(p.gshare2Hist));
    w.b(p.localPattern);
    w.u64(static_cast<uint64_t>(p.localHistBits));
    w.u64(static_cast<uint64_t>(p.localBits));
    w.u64(static_cast<uint64_t>(p.choiceBits));
    w.u64(static_cast<uint64_t>(p.indirectBits));
    w.u64(static_cast<uint64_t>(p.indirectWays));
    w.b(p.indirectPathHist);
}

/**
 * Serialize every CoreConfig field, in declaration order, into the
 * deterministic wire format. Exhaustive on purpose: the config hash is
 * computed over these bytes, so a field missing here would let two
 * different machines alias one checkpoint.
 */
void
serializeConfig(BinWriter& w, const core::CoreConfig& c)
{
    w.str(c.name);

    w.u64(static_cast<uint64_t>(c.fetchWidth));
    w.u64(static_cast<uint64_t>(c.decodeWidth));
    w.u64(static_cast<uint64_t>(c.frontendStages));
    w.u64(static_cast<uint64_t>(c.ibufferEntries));
    w.u64(static_cast<uint64_t>(c.redirectPenalty));
    w.u64(static_cast<uint64_t>(c.takenBranchBubble));
    w.b(c.fusion);
    w.b(c.prefixSupport);
    w.f64(c.fusionCoverage);
    serializeBranchParams(w, c.bp);

    w.b(c.eaTaggedL1);
    serializeCacheParams(w, c.l1i);
    serializeCacheParams(w, c.l1d);
    serializeCacheParams(w, c.l2);
    serializeCacheParams(w, c.l3);
    w.u32(c.memLatency);
    w.u32(c.memOccupancy);
    w.u64(static_cast<uint64_t>(c.eratEntries));
    w.u64(static_cast<uint64_t>(c.tlbEntries));
    w.u32(c.eratMissPenalty);
    w.u32(c.tlbMissPenalty);
    w.u32(c.pageBytes);

    w.u64(static_cast<uint64_t>(c.robSize));
    w.u64(static_cast<uint64_t>(c.ldqSize));
    w.u64(static_cast<uint64_t>(c.ldqSizeSmt));
    w.u64(static_cast<uint64_t>(c.stqSize));
    w.u64(static_cast<uint64_t>(c.stqSizeSmt));
    w.u64(static_cast<uint64_t>(c.lmqSize));
    w.u64(static_cast<uint64_t>(c.dispatchWidth));
    w.u64(static_cast<uint64_t>(c.commitWidth));
    w.u64(static_cast<uint64_t>(c.issueWidth));

    w.u64(static_cast<uint64_t>(c.aluPorts));
    w.u64(static_cast<uint64_t>(c.fpPorts));
    w.u64(static_cast<uint64_t>(c.vsuIntPorts));
    w.u64(static_cast<uint64_t>(c.ldPorts));
    w.u64(static_cast<uint64_t>(c.stPorts));
    w.u64(static_cast<uint64_t>(c.lsCombined));
    w.u64(static_cast<uint64_t>(c.brPorts));
    w.u64(static_cast<uint64_t>(c.mmaUnits));

    w.u64(static_cast<uint64_t>(c.aluLat));
    w.u64(static_cast<uint64_t>(c.mulLat));
    w.u64(static_cast<uint64_t>(c.divLat));
    w.u64(static_cast<uint64_t>(c.fpLat));
    w.u64(static_cast<uint64_t>(c.vsuLat));
    w.u64(static_cast<uint64_t>(c.mmaLat));
    w.u64(static_cast<uint64_t>(c.mmaAccLat));
    w.u64(static_cast<uint64_t>(c.loadToVsuPenalty));

    w.f64(c.clockGateQuality);
    w.f64(c.dataGateQuality);
    w.b(c.unifiedRf);
    w.f64(c.switchEnergyScale);
    w.f64(c.latchClockScale);

    w.u64(static_cast<uint64_t>(c.prefetchStreams));
    w.u64(static_cast<uint64_t>(c.prefetchDepth));
    w.b(c.storeMerge);
    w.b(c.store32B);
}

uint64_t
checksumOf(const std::vector<uint8_t>& bytes, size_t n)
{
    Fnv1a h;
    h.bytes(bytes.data(), n);
    return h.digest();
}

} // namespace

uint64_t
configHash(const core::CoreConfig& cfg)
{
    BinWriter w;
    serializeConfig(w, cfg);
    Fnv1a h;
    h.bytes(w.bytes().data(), w.size());
    return h.digest();
}

Checkpoint
Checkpoint::capture(
    const core::CoreModel& model,
    const std::vector<workloads::CheckpointableSource*>& sources,
    CheckpointMeta meta)
{
    Checkpoint ck;
    ck.meta_ = std::move(meta);
    ck.meta_.numThreads = static_cast<uint32_t>(sources.size());
    ck.cfgHash_ = configHash(model.config());

    BinWriter w;
    model.saveState(w);
    w.u32(static_cast<uint32_t>(sources.size()));
    for (const auto* src : sources)
        src->saveState(w);
    ck.payload_ = w.takeBytes();
    return ck;
}

Checkpoint
Checkpoint::fromParts(CheckpointMeta meta, uint64_t stateHash,
                      std::vector<uint8_t> payload)
{
    Checkpoint ck;
    ck.meta_ = std::move(meta);
    ck.cfgHash_ = stateHash;
    ck.payload_ = std::move(payload);
    return ck;
}

Status
Checkpoint::restore(
    core::CoreModel& model,
    const std::vector<workloads::CheckpointableSource*>& sources) const
{
    if (configHash(model.config()) != cfgHash_)
        return Error::invalidConfig(
            "checkpoint was captured under a different core config "
            "(config hash mismatch; checkpoint has '" +
            meta_.configName + "')");
    if (sources.size() != meta_.numThreads)
        return Error::invalidArgument(
            "checkpoint has " + std::to_string(meta_.numThreads) +
            " thread(s) but " + std::to_string(sources.size()) +
            " source(s) were supplied");

    BinReader r(payload_);
    if (auto st = model.loadState(r); !st.ok())
        return st;
    uint32_t n = r.u32();
    if (!r.ok() || n != sources.size())
        return Error::invalidArgument(
            "checkpoint payload: workload source count mismatch");
    for (auto* src : sources)
        if (auto st = src->loadState(r); !st.ok())
            return st;
    if (r.remaining() != 0)
        return Error::invalidArgument(
            "checkpoint payload: trailing bytes after state");
    return common::okStatus();
}

std::vector<uint8_t>
Checkpoint::toBytes() const
{
    BinWriter w;
    for (char c : kMagic)
        w.u8(static_cast<uint8_t>(c));
    w.u32(kFormatVersion);
    w.u32(kStateSchemaVersion);
    w.u64(cfgHash_);
    w.str(meta_.configName);
    w.str(meta_.workload);
    w.u32(meta_.numThreads);
    w.u64(meta_.warmupInstrs);
    w.u64(meta_.seed);
    w.u64(payload_.size());
    std::vector<uint8_t> out = w.takeBytes();
    out.insert(out.end(), payload_.begin(), payload_.end());
    uint64_t sum = checksumOf(out, out.size());
    BinWriter tail;
    tail.u64(sum);
    out.insert(out.end(), tail.bytes().begin(), tail.bytes().end());
    return out;
}

Expected<Checkpoint>
Checkpoint::fromBytes(const uint8_t* data, size_t size)
{
    BinReader r(data, size);
    for (char c : kMagic)
        if (r.u8() != static_cast<uint8_t>(c) || r.failed())
            return Error::invalidArgument(
                "not a p10ee checkpoint (bad magic)");
    uint32_t fmt = r.u32();
    if (r.ok() && fmt != kFormatVersion)
        return Error::invalidArgument(
            "unsupported checkpoint format version " +
            std::to_string(fmt) + " (expected " +
            std::to_string(kFormatVersion) + ")");
    uint32_t schema = r.u32();
    if (r.ok() && schema != kStateSchemaVersion)
        return Error::invalidArgument(
            "checkpoint state-schema version " + std::to_string(schema) +
            " does not match this simulator (expected " +
            std::to_string(kStateSchemaVersion) + ")");

    // Verify the trailing checksum before trusting any length field.
    if (size < 8 || r.failed())
        return Error::invalidArgument("checkpoint truncated");
    BinReader tail(data + size - 8, 8);
    uint64_t stored = tail.u64();
    Fnv1a h;
    h.bytes(data, size - 8);
    if (h.digest() != stored)
        return Error::invalidArgument(
            "checkpoint corrupt (checksum mismatch)");

    Checkpoint ck;
    ck.cfgHash_ = r.u64();
    ck.meta_.configName = r.str();
    ck.meta_.workload = r.str();
    ck.meta_.numThreads = r.u32();
    ck.meta_.warmupInstrs = r.u64();
    ck.meta_.seed = r.u64();
    uint64_t payloadSize = r.u64();
    // The payload must account for exactly the bytes between the header
    // and the checksum.
    if (r.failed() || r.remaining() < 8 ||
        payloadSize != r.remaining() - 8) {
        return Error::invalidArgument(
            "checkpoint truncated or payload size mismatch");
    }
    ck.payload_.assign(data + r.position(),
                       data + r.position() + payloadSize);
    return ck;
}

Expected<Checkpoint>
Checkpoint::fromBytes(const std::vector<uint8_t>& bytes)
{
    return fromBytes(bytes.data(), bytes.size());
}

Status
Checkpoint::save(const std::string& path) const
{
    std::vector<uint8_t> bytes = toBytes();
    std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            return Error::notFound("cannot open for write: " + tmp);
        f.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        if (!f)
            return Error::transient("short write: " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Error::transient("rename failed: " + path);
    }
    return common::okStatus();
}

Expected<Checkpoint>
Checkpoint::load(const std::string& path)
{
    Expected<std::vector<uint8_t>> bytes = common::readFile(path);
    if (!bytes)
        return Error::notFound("cannot open checkpoint: " + path);
    return fromBytes(bytes.value().data(), bytes.value().size());
}

} // namespace p10ee::ckpt
