#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

double
median(std::vector<double> samples)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double>
tailPercentile(std::vector<double> samples, double p)
{
    if (!(p > 0.0 && p < 100.0)) {
        throw std::invalid_argument("percentile outside (0, 100)");
    }
    int64_t n = static_cast<int64_t>(samples.size());
    // Nearest rank, 1-based: the smallest rank r with r/n >= p/100.
    // The epsilon keeps exact products (90% of 100) from rounding up.
    int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n - 1e-9));
    rank = std::max<int64_t>(rank, 1);
    if (n - rank < kMinSamplesBeyond) {
        return std::nullopt;
    }
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[static_cast<size_t>(rank - 1)];
}

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<double>
poissonSchedule(uint64_t seed, int64_t n, double rate)
{
    if (n < 0 || !(rate > 0.0)) {
        throw std::invalid_argument("poissonSchedule: n >= 0, rate > 0");
    }
    const double span = static_cast<double>(n) / rate;
    uint64_t state = seed;
    std::vector<double> at(static_cast<size_t>(n));
    for (double &t : at) {
        // 53 random bits -> [0, 1).
        double u = static_cast<double>(splitmix64(state) >> 11) *
                   (1.0 / 9007199254740992.0);
        t = u * span;
    }
    std::sort(at.begin(), at.end());
    return at;
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

namespace {

struct OpenSpan
{
    const void *tracer;
    int64_t id;
    int64_t request;
    const char *name;
    double startUs;
};

/** Per-thread stack of open spans (all tracers; entries are tagged). */
thread_local std::vector<OpenSpan> t_open;

int
threadTag()
{
    static std::atomic<int> next{0};
    thread_local int tag = next.fetch_add(1);
    return tag;
}

} // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

void
Tracer::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

double
Tracer::toUs(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - origin_).count();
}

int64_t
Tracer::begin(const char *name, int64_t request)
{
    if (!enabled()) {
        return -1;
    }
    int64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = next_id_++;
    }
    if (request < 0) {
        // Inherit the request of the enclosing span on this thread.
        for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
            if (it->tracer == this) {
                request = it->request;
                break;
            }
        }
    }
    t_open.push_back(OpenSpan{this, id, request, name, toUs(Clock::now())});
    return id;
}

void
Tracer::end(int64_t id)
{
    if (id < 0) {
        return;
    }
    double end_us = toUs(Clock::now());
    auto it = std::find_if(t_open.rbegin(), t_open.rend(),
                           [&](const OpenSpan &o) {
                               return o.tracer == this && o.id == id;
                           });
    if (it == t_open.rend()) {
        return;
    }
    SpanRecord rec;
    rec.name = it->name;
    rec.id = id;
    rec.request = it->request;
    rec.tid = threadTag();
    rec.startUs = it->startUs;
    rec.endUs = end_us;
    t_open.erase(std::next(it).base());
    for (auto p = t_open.rbegin(); p != t_open.rend(); ++p) {
        if (p->tracer == this) {
            rec.parent = p->id;
            break;
        }
    }
    record(std::move(rec));
}

void
Tracer::record(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    next_id_ = std::max(next_id_, span.id + 1);
    done_.push_back(std::move(span));
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return done_;
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const SpanRecord &s : done_) {
        if (s.name == name) {
            out.push_back((s.endUs - s.startUs) / 1e3);
        }
    }
    return out;
}

std::map<int64_t, double>
selfTimesUs(const std::vector<SpanRecord> &spans)
{
    std::map<int64_t, std::vector<std::pair<double, double>>> children;
    for (const SpanRecord &s : spans) {
        if (s.parent >= 0) {
            children[s.parent].push_back({s.startUs, s.endUs});
        }
    }
    std::map<int64_t, double> self;
    for (const SpanRecord &s : spans) {
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            double cur_lo = 0.0, cur_hi = -1.0;
            bool open = false;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.startUs);
                hi = std::min(hi, s.endUs);
                if (hi <= lo) {
                    continue;
                }
                if (open && lo <= cur_hi) {
                    cur_hi = std::max(cur_hi, hi);
                    continue;
                }
                if (open) {
                    covered += cur_hi - cur_lo;
                }
                cur_lo = lo;
                cur_hi = hi;
                open = true;
            }
            if (open) {
                covered += cur_hi - cur_lo;
            }
        }
        self[s.id] = (s.endUs - s.startUs) - covered;
    }
    return self;
}

std::vector<double>
totalsPerRequestMs(const std::vector<SpanRecord> &spans,
                   const std::string &name)
{
    std::map<int64_t, double> totals;
    for (const SpanRecord &s : spans) {
        if (s.name == name) {
            totals[s.request] += (s.endUs - s.startUs) / 1e3;
        }
    }
    std::vector<double> out;
    for (const auto &kv : totals) {
        out.push_back(kv.second);
    }
    return out;
}

std::map<std::string, SpanStats>
Tracer::table() const
{
    std::vector<SpanRecord> all = spans();
    std::map<int64_t, double> self = selfTimesUs(all);
    std::map<std::string, std::vector<double>> durations;
    std::map<std::string, SpanStats> out;
    for (const SpanRecord &s : all) {
        double ms = (s.endUs - s.startUs) / 1e3;
        SpanStats &st = out[s.name];
        ++st.count;
        st.totalMs += ms;
        st.selfMs += self[s.id] / 1e3;
        durations[s.name].push_back(ms);
    }
    for (auto &[name, st] : out) {
        st.p50Ms = median(durations[name]);
        st.p90Ms = tailPercentile(durations[name], 90.0);
    }
    return out;
}

std::string
Tracer::chromeTraceJson() const
{
    std::vector<SpanRecord> all = spans();
    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        os << (i ? ",\n" : "\n") << "{\"name\": " << jsonQuote(s.name)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
           << ", \"ts\": " << jsonNumber(s.startUs)
           << ", \"dur\": " << jsonNumber(s.endUs - s.startUs)
           << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
           << s.parent << ", \"request\": " << s.request << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

std::string
Tracer::tableText() const
{
    std::ostringstream os;
    os << std::left << std::setw(40) << "span" << std::right
       << std::setw(8) << "count" << std::setw(12) << "total_ms"
       << std::setw(12) << "self_ms" << std::setw(11) << "p50_ms"
       << std::setw(11) << "p90_ms" << "\n";
    os << std::fixed << std::setprecision(3);
    for (const auto &[name, st] : table()) {
        os << std::left << std::setw(40) << name << std::right
           << std::setw(8) << st.count << std::setw(12) << st.totalMs
           << std::setw(12) << st.selfMs << std::setw(11) << st.p50Ms;
        if (st.p90Ms) {
            os << std::setw(11) << *st.p90Ms;
        } else {
            os << std::setw(11) << "-";
        }
        os << "\n";
    }
    os << "(p90 is '-' where fewer than " << kMinSamplesBeyond
       << " samples lie beyond it)\n";
    return os.str();
}

void
Tracer::writeFiles(const std::string &prefix) const
{
    std::ofstream(prefix + ".trace.json") << chromeTraceJson();
    std::ofstream(prefix + ".spans.txt") << tableText();
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

JsonObject &
JsonObject::add(const std::string &key, double value)
{
    fields_.push_back({key, jsonNumber(value)});
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, int64_t value)
{
    fields_.push_back({key, std::to_string(value)});
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, bool value)
{
    fields_.push_back({key, value ? "true" : "false"});
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, const std::string &value)
{
    fields_.push_back({key, jsonQuote(value)});
    return *this;
}

JsonObject &
JsonObject::addRaw(const std::string &key, const std::string &json)
{
    fields_.push_back({key, json});
    return *this;
}

std::string
JsonObject::str() const
{
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
        out += (i ? ", " : "") + jsonQuote(fields_[i].first) + ": " +
               fields_[i].second;
    }
    return out + "}";
}

} // namespace perfbench
