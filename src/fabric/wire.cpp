#include "fabric/wire.h"

#include "common/hex.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "service/protocol.h"

namespace p10ee::fabric {

using common::Error;
using common::Expected;
using service::onlyKeys;

std::string
shardRequestLine(const std::string& id, const sweep::SweepSpec& spec,
                 uint64_t index, uint64_t heartbeatMs, bool remoteCache,
                 const std::string& trace)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("type").value("shard");
    w.key("id").value(id);
    w.key("index").value(index);
    w.key("heartbeat_ms").value(heartbeatMs);
    w.key("remote_cache").value(remoteCache);
    if (!trace.empty())
        w.key("trace").value(trace);
    w.endObject();
    // The spec is embedded as its canonical toJson() rendering — the
    // same splice idiom doneLine() uses for reports.
    std::string line = w.str();
    line.pop_back(); // drop the closing '}'
    line += ",\"spec\":";
    line += spec.toJson();
    line += "}";
    return line;
}

std::string
cacheResultLine(const std::string& id, bool hit,
                const std::vector<uint8_t>& entry)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("type").value("cache_result");
    w.key("id").value(id);
    w.key("hit").value(hit);
    if (hit)
        w.key("data").value(common::hexEncode(entry));
    w.endObject();
    return w.str();
}

namespace {

const std::string kEvent = "worker event"; ///< onlyKeys' error noun

Expected<uint64_t>
readKeyField(const obs::JsonValue& root)
{
    const obs::JsonValue* k = root.find("key");
    if (k == nullptr || !k->isString())
        return Error::invalidArgument(
            "worker event 'key' must be a hex string");
    return service::parseCacheKeyHex(k->string);
}

/** Optional "trace" member: absent -> "", present -> must be exactly
    the TraceContext wire shape. Anything else is a protocol
    violation, same as a malformed cache key. */
Expected<std::string>
readTraceField(const obs::JsonValue& root)
{
    const obs::JsonValue* tr = root.find("trace");
    if (tr == nullptr)
        return std::string();
    if (!tr->isString() || !obs::TraceContext::parse(tr->string))
        return Error::invalidArgument(
            "worker event 'trace' must be 32 lowercase hex chars, "
            "'-', 16 lowercase hex chars");
    return tr->string;
}

Expected<std::vector<uint8_t>>
readDataField(const obs::JsonValue& root)
{
    const obs::JsonValue* d = root.find("data");
    if (d == nullptr || !d->isString())
        return Error::invalidArgument(
            "worker event 'data' must be a hex string");
    auto bytes = common::hexDecode(d->string);
    if (!bytes)
        return Error::invalidArgument(
            "worker event 'data' is not valid hex");
    return std::move(*bytes);
}

} // namespace

Expected<WorkerEvent>
WorkerEvent::parse(std::string_view line)
{
    if (line.size() > service::kMaxRequestBytes)
        return Error::invalidArgument(
            "worker event exceeds " +
            std::to_string(service::kMaxRequestBytes) + " bytes (" +
            std::to_string(line.size()) + ")");
    Expected<obs::JsonValue> docOr = obs::parseJson(line);
    if (!docOr)
        return Error::invalidArgument("malformed worker event JSON: " +
                                      docOr.error().message);
    const obs::JsonValue& root = docOr.value();
    if (!root.isObject())
        return Error::invalidArgument(
            "worker event must be a JSON object");

    const obs::JsonValue* ev = root.find("event");
    if (ev == nullptr || !ev->isString())
        return Error::invalidArgument(
            "worker event is missing 'event'");
    const obs::JsonValue* id = root.find("id");
    if (id == nullptr || !id->isString())
        return Error::invalidArgument("worker event is missing 'id'");

    WorkerEvent out;
    out.id = id->string;

    if (ev->string == "accepted") {
        out.kind = Kind::Accepted;
        const obs::JsonValue* qd = root.find("queue_depth");
        if (qd == nullptr || !qd->isNumber())
            return Error::invalidArgument(
                "accepted event 'queue_depth' must be a number");
        if (auto st = onlyKeys(root, {"id", "event", "queue_depth"}, kEvent);
            !st)
            return st.error();
        return out;
    }
    if (ev->string == "heartbeat") {
        out.kind = Kind::Heartbeat;
        Expected<std::string> traceOr = readTraceField(root);
        if (!traceOr)
            return traceOr.error();
        out.trace = std::move(traceOr.value());
        if (auto st = onlyKeys(root, {"id", "event", "trace"}, kEvent); !st)
            return st.error();
        return out;
    }
    if (ev->string == "cache_get") {
        out.kind = Kind::CacheGet;
        Expected<uint64_t> keyOr = readKeyField(root);
        if (!keyOr)
            return keyOr.error();
        out.key = keyOr.value();
        if (auto st = onlyKeys(root, {"id", "event", "key"}, kEvent); !st)
            return st.error();
        return out;
    }
    if (ev->string == "cache_put") {
        out.kind = Kind::CachePut;
        Expected<uint64_t> keyOr = readKeyField(root);
        if (!keyOr)
            return keyOr.error();
        out.key = keyOr.value();
        Expected<std::vector<uint8_t>> dataOr = readDataField(root);
        if (!dataOr)
            return dataOr.error();
        out.data = std::move(dataOr.value());
        if (auto st = onlyKeys(root, {"id", "event", "key", "data"}, kEvent);
            !st)
            return st.error();
        return out;
    }
    if (ev->string == "shard_done") {
        out.kind = Kind::ShardDone;
        const obs::JsonValue* idx = root.find("index");
        if (idx == nullptr)
            return Error::invalidArgument(
                "shard_done event is missing 'index'");
        Expected<uint64_t> idxOr = idx->asU64("shard_done 'index'");
        if (!idxOr)
            return idxOr.error();
        out.index = idxOr.value();
        const obs::JsonValue* cached = root.find("cached");
        if (cached == nullptr || !cached->isBool())
            return Error::invalidArgument(
                "shard_done event 'cached' must be a boolean");
        out.cached = cached->boolean;
        Expected<std::vector<uint8_t>> dataOr = readDataField(root);
        if (!dataOr)
            return dataOr.error();
        out.data = std::move(dataOr.value());
        Expected<std::string> traceOr = readTraceField(root);
        if (!traceOr)
            return traceOr.error();
        out.trace = std::move(traceOr.value());
        // queue_us / exec_us travel only alongside a trace: an untraced
        // shard_done carrying timings (or a traced one missing them) is
        // a protocol violation.
        const obs::JsonValue* qu = root.find("queue_us");
        const obs::JsonValue* xu = root.find("exec_us");
        if (out.trace.empty()) {
            if (qu != nullptr || xu != nullptr)
                return Error::invalidArgument(
                    "shard_done queue_us/exec_us require 'trace'");
        } else {
            if (qu == nullptr || xu == nullptr)
                return Error::invalidArgument(
                    "traced shard_done must carry queue_us and "
                    "exec_us");
            Expected<uint64_t> quOr = qu->asU64("shard_done 'queue_us'");
            if (!quOr)
                return quOr.error();
            out.queueUs = quOr.value();
            Expected<uint64_t> xuOr = xu->asU64("shard_done 'exec_us'");
            if (!xuOr)
                return xuOr.error();
            out.execUs = xuOr.value();
        }
        if (auto st = onlyKeys(root,
                               {"id", "event", "index", "cached",
                                "data", "trace", "queue_us", "exec_us"},
                               kEvent);
            !st)
            return st.error();
        return out;
    }
    if (ev->string == "error") {
        out.kind = Kind::Error;
        const obs::JsonValue* code = root.find("code");
        const obs::JsonValue* msg = root.find("message");
        if (code == nullptr || !code->isString() || msg == nullptr ||
            !msg->isString())
            return Error::invalidArgument(
                "error event must carry string 'code' and 'message'");
        if (auto st = onlyKeys(root, {"id", "event", "code", "message"},
                               kEvent);
            !st)
            return st.error();
        // The remote code collapses into Transient for retry purposes:
        // the coordinator's decision is the same for every remote
        // failure kind (strike + redistribute), and the original code
        // name survives in the message.
        out.error = Error::transient("worker error [" + code->string +
                                     "]: " + msg->string);
        return out;
    }
    return Error::invalidArgument("unknown worker event '" +
                                  ev->string + "'");
}

} // namespace p10ee::fabric
