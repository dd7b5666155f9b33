// Tests of the benchmark's own helpers: the percentile support rule,
// the seeded arrival schedule and span self-time accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "harness.h"

namespace perfbench {
namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v(static_cast<size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, P90NeedsTenSamplesBeyondIt)
{
    EXPECT_FALSE(tailPercentile(oneTo(99), 90.0).has_value());
    std::optional<double> p90 = tailPercentile(oneTo(100), 90.0);
    ASSERT_TRUE(p90.has_value());
    EXPECT_EQ(*p90, 90.0); // rank 90: ten samples (91..100) beyond
}

TEST(Percentile, SupportScalesWithThePercentile)
{
    EXPECT_FALSE(tailPercentile(oneTo(20), 60.0).has_value());
    EXPECT_EQ(tailPercentile(oneTo(25), 60.0).value(), 15.0);
    EXPECT_FALSE(tailPercentile(oneTo(999), 99.0).has_value());
    EXPECT_EQ(tailPercentile(oneTo(1000), 99.0).value(), 990.0);
    EXPECT_FALSE(tailPercentile({}, 50.0).has_value());
}

TEST(Percentile, IgnoresInputOrderAndRejectsBadPercentiles)
{
    std::vector<double> v = oneTo(200);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(tailPercentile(v, 90.0).value(), 180.0);
    EXPECT_THROW(tailPercentile(v, 0.0), std::invalid_argument);
    EXPECT_THROW(tailPercentile(v, 100.0), std::invalid_argument);
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(PoissonSchedule, DeterministicPerSeed)
{
    std::vector<double> a = poissonSchedule(42, 500, 7.0);
    std::vector<double> b = poissonSchedule(42, 500, 7.0);
    std::vector<double> c = poissonSchedule(43, 500, 7.0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(PoissonSchedule, SortedWithinSpanAtTheOfferedRate)
{
    const int64_t n = 4000;
    const double rate = 8.0;
    std::vector<double> at = poissonSchedule(7, n, rate);
    ASSERT_EQ(static_cast<int64_t>(at.size()), n);
    EXPECT_TRUE(std::is_sorted(at.begin(), at.end()));
    EXPECT_GE(at.front(), 0.0);
    EXPECT_LT(at.back(), n / rate);
    // Poisson gaps are exponential: mean 1/rate, coefficient of
    // variation 1 (both within sampling error at this n).
    double sum = 0.0, sq = 0.0;
    for (size_t i = 1; i < at.size(); ++i) {
        double g = at[i] - at[i - 1];
        sum += g;
        sq += g * g;
    }
    const double k = static_cast<double>(at.size() - 1);
    const double mean = sum / k;
    const double cv = std::sqrt(sq / k - mean * mean) / mean;
    EXPECT_NEAR(mean, 1.0 / rate, 0.05 / rate);
    EXPECT_NEAR(cv, 1.0, 0.08);
    EXPECT_TRUE(poissonSchedule(1, 0, 3.0).empty());
    EXPECT_THROW(poissonSchedule(1, 5, 0.0), std::invalid_argument);
}

SpanRecord
span(int64_t id, int64_t parent, double start, double end,
     const char *name = "s")
{
    SpanRecord s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.startUs = start;
    s.endUs = end;
    return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent)
{
    // Parent [0, 100); children [10, 30), [20, 40) overlap -> [10, 40);
    // [90, 120) is clipped to [90, 100). Covered 40, self 60.
    std::vector<SpanRecord> spans = {
        span(1, -1, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 40),
        span(4, 1, 90, 120), span(5, 2, 12, 18)};
    std::map<int64_t, double> self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self[1], 60.0);
    EXPECT_DOUBLE_EQ(self[2], 14.0); // grandchild counts against span 2
    EXPECT_DOUBLE_EQ(self[3], 20.0);
    EXPECT_DOUBLE_EQ(self[5], 6.0);
}

TEST(SelfTime, TracerNestsSpansPerThreadAndAggregatesByName)
{
    Tracer tracer;
    tracer.setEnabled(true);
    {
        Span outer(tracer, "outer", 7);
        Span inner(tracer, "inner");
    }
    std::vector<SpanRecord> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    const SpanRecord &inner = spans[0].name == "inner" ? spans[0] : spans[1];
    const SpanRecord &outer = spans[0].name == "outer" ? spans[0] : spans[1];
    EXPECT_EQ(inner.parent, outer.id);
    EXPECT_EQ(inner.request, 7); // inherited from the enclosing span
    std::map<std::string, SpanStats> table = tracer.table();
    EXPECT_EQ(table["outer"].count, 1);
    EXPECT_NEAR(table["outer"].selfMs,
                table["outer"].totalMs - table["inner"].totalMs, 1e-9);
    EXPECT_FALSE(table["outer"].p90Ms.has_value());
}

TEST(SelfTime, DisabledTracerRecordsNothing)
{
    Tracer tracer;
    {
        Span s(tracer, "off");
    }
    EXPECT_TRUE(tracer.spans().empty());
}

TEST(SpanTotals, GroupsByRequest)
{
    std::vector<SpanRecord> spans = {span(1, -1, 0, 1000, "m"),
                                     span(2, -1, 0, 3000, "m"),
                                     span(3, -1, 0, 5000, "other")};
    spans[0].request = 0;
    spans[1].request = 0;
    spans[2].request = 1;
    EXPECT_EQ(totalsPerRequestMs(spans, "m"), std::vector<double>{4.0});
}

} // namespace
} // namespace perfbench
