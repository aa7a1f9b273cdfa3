/**
 * @file
 * Library-free helpers of the repository benchmark: sample
 * statistics, tail-percentile selection, failure accounting, span
 * recording with self time, Chrome trace-event output, and the
 * result line. Kept free of library includes so selftest.cpp can
 * check them on their own.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Microseconds since a process-wide origin (trace timestamps). */
inline double
nowUs()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - origin)
        .count();
}

/** Median of a sample (mean of the middle pair); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile: the sample at rank ceil(p/100 * n). */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    const auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return v[std::clamp<size_t>(rank, 1, n) - 1];
}

/** A tail latency: which percentile, its value, and its support. */
struct Tail
{
    double percentile = 0.0; ///< 0 when too few samples
    double value = 0.0;
    size_t samples = 0;
    size_t beyond = 0; ///< samples strictly above the chosen rank

    bool valid() const { return percentile > 0.0; }
};

/**
 * The highest percentile that has at least `min_beyond` samples beyond
 * it: the nearest-rank percentile at rank n - min_beyond, i.e. the
 * (min_beyond + 1)-th largest sample, named 100 (n - min_beyond) / n.
 * A fixed ladder (p99, p99.9) would put served jobs, whose slowest ~1%
 * form a separate mode, right at a mode boundary and flip between
 * modes from run to run.
 */
inline Tail
tailPercentile(std::vector<double> v, size_t min_beyond = 10)
{
    Tail t;
    const size_t n = v.size();
    t.samples = n;
    if (n <= min_beyond)
        return t;
    const size_t rank = n - min_beyond;
    std::sort(v.begin(), v.end());
    t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
    t.value = v[rank - 1];
    t.beyond = min_beyond;
    return t;
}

/**
 * Failure accounting: every attempted operation is recorded exactly
 * once, failed or not; nothing is retried away or dropped.
 */
struct FailCount
{
    int64_t attempted = 0;
    int64_t failed = 0;

    void record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    void merge(const FailCount &o)
    {
        attempted += o.attempted;
        failed += o.failed;
    }

    double frac() const
    {
        return attempted > 0 ? static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                             : 0.0;
    }
};

/** One recorded span. Spans of one step or job share `group`. */
struct Span
{
    std::string name;
    std::string cat;
    int64_t id = 0;
    int64_t parent = 0; ///< 0 = root
    int64_t group = 0;  ///< step / job id
    int tid = 0;
    double startUs = 0.0;
    double endUs = 0.0;
    std::string args; ///< JSON object body (without braces), optional

    double durUs() const { return endUs - startUs; }
};

/**
 * In-memory span store, written once at exit. Thread-safe: served
 * jobs record from pool workers while clients record job spans.
 */
class SpanRecorder
{
  public:
    /** A fresh span id (never 0). */
    int64_t newId() { return nextId_.fetch_add(1); }

    void add(Span s)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(s));
    }

    std::vector<Span> spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    std::atomic<int64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_
};

/** Small per-thread id for trace rows (stable within a process). */
inline int
traceTid()
{
    static std::atomic<int> next{1};
    thread_local int tid = next.fetch_add(1);
    return tid;
}

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its children (overlapping children count once;
 * children are clipped to the parent interval). Keyed by span id.
 */
inline std::map<int64_t, double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::map<int64_t, std::vector<std::pair<double, double>>> kids;
    for (const Span &s : spans)
        if (s.parent != 0)
            kids[s.parent].push_back({s.startUs, s.endUs});
    std::map<int64_t, double> self;
    for (const Span &s : spans) {
        double covered = 0.0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            double cur_lo = 0.0, cur_hi = 0.0;
            bool open = false;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.startUs);
                hi = std::min(hi, s.endUs);
                if (hi <= lo)
                    continue;
                if (open && lo <= cur_hi) {
                    cur_hi = std::max(cur_hi, hi);
                } else {
                    if (open)
                        covered += cur_hi - cur_lo;
                    cur_lo = lo;
                    cur_hi = hi;
                    open = true;
                }
            }
            if (open)
                covered += cur_hi - cur_lo;
        }
        self[s.id] = s.durUs() - covered;
    }
    return self;
}

/** Minimal JSON string escaping (names are ASCII identifiers). */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/**
 * Write spans as Chrome trace-event JSON ("X" complete events), the
 * format Perfetto and chrome://tracing open. Returns false on an I/O
 * error.
 */
inline bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%lld,\"parent\":%lld,"
                     "\"group\":%lld%s%s}}%s\n",
                     jsonEscape(s.name).c_str(), jsonEscape(s.cat).c_str(),
                     s.tid, s.startUs, s.durUs(),
                     static_cast<long long>(s.id),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.group),
                     s.args.empty() ? "" : ",", s.args.c_str(),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

/** Named metrics in insertion order, printed as the result line. */
class Metrics
{
  public:
    void set(const std::string &name, double value, const std::string &unit)
    {
        for (auto &m : items_)
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        items_.push_back({name, value, unit});
    }

    /** Name of the first NaN / infinite metric, or "". */
    std::string firstNonFinite() const
    {
        for (const auto &m : items_)
            if (!std::isfinite(m.value))
                return m.name;
        return "";
    }

    /** Human-readable lines: `name = value unit`. */
    void print(std::FILE *f) const
    {
        for (const auto &m : items_)
            std::fprintf(f, "  %-32s %.6g %s\n", m.name.c_str(), m.value,
                         m.unit.c_str());
    }

    /** The result object: correct, attempted, failed, metrics. */
    std::string resultJson(bool correct, const FailCount &fails) const
    {
        std::string out = "{\"correct\": ";
        out += correct ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(fails.attempted);
        out += ", \"failed\": " + std::to_string(fails.failed);
        out += ", \"metrics\": {";
        char buf[64];
        for (size_t i = 0; i < items_.size(); ++i) {
            const auto &m = items_[i];
            // Non-finite values fail the run (firstNonFinite); JSON has
            // no spelling for them.
            std::snprintf(buf, sizeof buf, "%.17g",
                          std::isfinite(m.value) ? m.value : 0.0);
            out += (i ? ", \"" : "\"") + jsonEscape(m.name) +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   jsonEscape(m.unit) + "\"}";
        }
        out += "}}";
        return out;
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
