/**
 * @file
 * In-memory span recording for the benchmark's traced run.
 *
 * A span names one call into an engine layer (name, start, end, the
 * span that caused it, the shard or request it belongs to, and a work
 * count such as simulated instructions). Each thread owns one SpanLog,
 * so recording takes no lock; the logs are concatenated after the
 * threads join, written out once at the end, and reduced to per-name
 * totals and self times (duration minus the time child spans cover).
 */

#ifndef P10EE_PERFBENCH_SPANS_H
#define P10EE_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span
{
    const char* name = "";
    uint64_t id = 0;     ///< shard index or request sequence number
    int64_t parent = -1; ///< index in the same log, -1 for a root
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint64_t count = 0;  ///< work done inside the span
    int thread = 0;
};

/** One thread's spans. Timestamps are nanoseconds since @p epoch. */
class SpanLog
{
  public:
    SpanLog(Clock::time_point epoch, int thread)
        : epoch_(epoch), thread_(thread)
    {}

    int64_t
    begin(const char* name, uint64_t id, int64_t parent = -1)
    {
        Span s;
        s.name = name;
        s.id = id;
        s.parent = parent;
        s.thread = thread_;
        s.startNs = nowNs();
        spans_.push_back(s);
        return static_cast<int64_t>(spans_.size()) - 1;
    }

    void
    end(int64_t span, uint64_t count = 0)
    {
        Span& s = spans_[static_cast<size_t>(span)];
        s.endNs = nowNs();
        s.count = count;
    }

    const std::vector<Span>& spans() const { return spans_; }

  private:
    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_;
    int thread_;
    std::vector<Span> spans_;
};

/** Append @p log to @p all, rebasing its parent indices. */
inline void
appendLog(std::vector<Span>& all, const SpanLog& log)
{
    const int64_t base = static_cast<int64_t>(all.size());
    for (Span s : log.spans()) {
        if (s.parent >= 0)
            s.parent += base;
        all.push_back(s);
    }
}

/** Per-name totals over every span of that name. */
struct SpanTotals
{
    uint64_t n = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;
    uint64_t count = 0;
    std::vector<double> durNs;

    double meanNs() const { return n ? totalNs / double(n) : 0.0; }
    double selfNsPerCount() const
    {
        return count ? selfNs / double(count) : 0.0;
    }
};

/** Reduce spans to per-name totals; self time subtracts children. */
inline std::map<std::string, SpanTotals>
reduceSpans(const std::vector<Span>& spans)
{
    std::vector<double> childNs(spans.size(), 0.0);
    for (const Span& s : spans)
        if (s.parent >= 0)
            childNs[static_cast<size_t>(s.parent)] +=
                double(s.endNs - s.startNs);
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const double dur = double(s.endNs - s.startNs);
        SpanTotals& t = out[s.name];
        ++t.n;
        t.totalNs += dur;
        t.selfNs += dur - childNs[i];
        t.count += s.count;
        t.durNs.push_back(dur);
    }
    return out;
}

/** Write one JSON object per span (parent = line index, -1 = root). */
inline bool
writeSpans(const std::string& path, const std::vector<Span>& spans)
{
    std::ofstream f(path);
    for (const Span& s : spans)
        f << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
          << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
          << ",\"count\":" << s.count << "}\n";
    return static_cast<bool>(f);
}

} // namespace perfbench

#endif // P10EE_PERFBENCH_SPANS_H
