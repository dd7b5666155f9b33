/**
 * @file
 * Measurement helpers of the repository benchmark, independent of the
 * eDKM library: tail-percentile selection with a sample-support rule,
 * the seeded open-loop arrival schedule, an in-memory span tracer with
 * self-time accounting, and a small JSON writer.
 */

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p a to @p b. */
double msBetween(Clock::time_point a, Clock::time_point b);

/** Milliseconds since @p t0. */
double msSince(Clock::time_point t0);

/** Median of @p samples (mean of the two middle values when even);
 *  0 for an empty set. */
double median(std::vector<double> samples);

/** A tail percentile needs this many samples strictly above its rank. */
constexpr int64_t kMinSamplesBeyond = 10;

/**
 * Nearest-rank percentile @p p (in (0, 100)) of @p samples. Refuses —
 * returns nullopt — when fewer than kMinSamplesBeyond samples lie
 * beyond the selected rank, so a p90 needs at least 100 samples.
 */
std::optional<double> tailPercentile(std::vector<double> samples, double p);

/**
 * Arrival offsets, in seconds from the start of the schedule, of an
 * open-loop Poisson process of @p rate arrivals per second conditioned
 * on exactly @p n arrivals in [0, n / rate): the sorted order
 * statistics of n uniform draws. Conditioning on the count keeps the
 * offered load of every run identical while arrival times stay Poisson.
 * Deterministic in @p seed on every platform (splitmix64 draws).
 */
std::vector<double> poissonSchedule(uint64_t seed, int64_t n, double rate);

/** splitmix64 step: a portable seeded stream for benchmark inputs. */
uint64_t splitmix64(uint64_t &state);

/** One finished span. Times are microseconds from the tracer origin. */
struct SpanRecord
{
    std::string name;
    int64_t id = 0;
    int64_t parent = -1;  ///< enclosing span on the same thread, or -1
    int64_t request = -1; ///< request / step the span belongs to, or -1
    int tid = 0;
    double startUs = 0.0;
    double endUs = 0.0;
};

/** Per-name span aggregate. */
struct SpanStats
{
    int64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0; ///< total minus the time child spans cover
    double p50Ms = 0.0;
    std::optional<double> p90Ms; ///< refused below 100 samples
};

/**
 * In-memory span tracer. Spans nest per thread: a span begun while
 * another is open on the same thread is its child. Finished spans are
 * kept in memory and written out only on request (writeFiles), so the
 * traced code pays a clock read and a short locked append per span.
 * When disabled, begin() returns -1 after one relaxed load and end()
 * ignores it.
 */
class Tracer
{
  public:
    Tracer();

    void setEnabled(bool on);
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Open a span named @p name; returns its id (-1 when disabled). */
    int64_t begin(const char *name, int64_t request = -1);

    /** Close span @p id (ignored for -1). */
    void end(int64_t id);

    /** Microseconds from the tracer origin to @p t (for record()). */
    double toUs(Clock::time_point t) const;

    /** Append a finished span directly (tests, replays). */
    void record(SpanRecord span);

    std::vector<SpanRecord> spans() const;

    /** Span durations of @p name, in ms, in completion order. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Per-name aggregates, with self time excluding child coverage. */
    std::map<std::string, SpanStats> table() const;

    /** Chrome trace-event JSON ("X" complete events). */
    std::string chromeTraceJson() const;

    /** Fixed-width text table of table(). */
    std::string tableText() const;

    /** Write <prefix>.trace.json and <prefix>.spans.txt. */
    void writeFiles(const std::string &prefix) const;

  private:
    std::atomic<bool> enabled_{false};
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    int64_t next_id_ = 0;
    std::vector<SpanRecord> done_;
};

/** RAII span on a tracer. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, int64_t request = -1)
        : tracer_(tracer), id_(tracer.begin(name, request))
    {
    }
    ~Span() { tracer_.end(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    int64_t id_;
};

/** Self time of each span: its duration minus the union of its
 *  children's intervals clipped to it. Keyed by span id. */
std::map<int64_t, double> selfTimesUs(const std::vector<SpanRecord> &spans);

/** Total duration, in ms, of the spans named @p name per request id,
 *  in ascending id order (e.g. matmul time per pass, or per step). */
std::vector<double> totalsPerRequestMs(const std::vector<SpanRecord> &spans,
                                       const std::string &name);

/** Minimal JSON object builder (insertion-ordered). */
class JsonObject
{
  public:
    JsonObject &add(const std::string &key, double value);
    JsonObject &add(const std::string &key, int64_t value);
    JsonObject &add(const std::string &key, int value)
    {
        return add(key, static_cast<int64_t>(value));
    }
    JsonObject &add(const std::string &key, bool value);
    JsonObject &add(const std::string &key, const std::string &value);
    JsonObject &add(const std::string &key, const char *value)
    {
        return add(key, std::string(value));
    }
    JsonObject &addRaw(const std::string &key, const std::string &json);
    std::string str() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** JSON string literal of @p s. */
std::string jsonQuote(const std::string &s);

/** Shortest text that reads back as exactly @p v. */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H_
