/**
 * @file
 * Self-tests of the benchmark's harness helpers (harness.hpp):
 * tail-percentile selection, failure accounting and span self time.
 * perfbench/run.py runs them before every benchmark run; exit code 0
 * when all pass.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v;
    for (size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(n + 1 - i)); // descending: sorts
    return v;
}

void
testTail()
{
    using perfbench::tailPercentile;
    // Ten samples or fewer: no rank has ten samples beyond it.
    check(!tailPercentile(ramp(10)).valid(), "10 samples have no tail");
    // 11 samples: the smallest value, with exactly ten beyond.
    auto t = tailPercentile(ramp(11));
    check(t.valid() && near(t.value, 1.0) && t.beyond == 10,
          "11 samples give the 11th largest");
    // 20 samples: rank 10 is p50.
    t = tailPercentile(ramp(20));
    check(near(t.percentile, 50.0) && near(t.value, 10.0) && t.beyond == 10,
          "20 samples give p50 = 10th value, 10 beyond");
    // 100 samples: p90; 1,000 samples: p99; 20,000: p99.95.
    t = tailPercentile(ramp(100));
    check(near(t.percentile, 90.0) && near(t.value, 90.0), "100 give p90");
    t = tailPercentile(ramp(1000));
    check(near(t.percentile, 99.0) && near(t.value, 990.0), "1000 give p99");
    t = tailPercentile(ramp(20000));
    check(near(t.percentile, 99.95) && near(t.value, 19990.0),
          "20000 give p99.95");
    // Exactly ten samples beyond, whatever the count; none when the
    // required support exceeds the sample.
    for (size_t n = 11; n < 3000; n += 37) {
        t = tailPercentile(ramp(n));
        check(t.beyond == 10 && near(t.value, static_cast<double>(n - 10)),
              "tail is the 11th largest sample");
    }
    check(!tailPercentile(ramp(50), 50).valid(),
          "a support requirement >= n leaves no tail");
    check(near(tailPercentile(ramp(50), 30).value, 20.0),
          "support 30 of 50 gives the 31st largest");
    check(near(perfbench::percentile(ramp(4), 50.0), 2.0),
          "nearest-rank p50 of 1..4 is 2");
    check(near(perfbench::median(ramp(4)), 2.5), "median of 1..4 is 2.5");
}

void
testFailCount()
{
    perfbench::FailCount f;
    check(f.frac() == 0.0, "no attempts: fail_frac 0");
    for (int i = 0; i < 8; ++i)
        f.record(i != 3 && i != 5);
    check(f.attempted == 8 && f.failed == 2, "counts every attempt once");
    check(near(f.frac(), 0.25), "fail_frac = failed / attempted");
    perfbench::FailCount g;
    g.record(false);
    g.record(true);
    f.merge(g);
    check(f.attempted == 10 && f.failed == 3 && near(f.frac(), 0.3),
          "merge adds attempts and failures");
}

perfbench::Span
span(int64_t id, int64_t parent, double start, double end)
{
    perfbench::Span s;
    s.id = id;
    s.parent = parent;
    s.startUs = start;
    s.endUs = end;
    return s;
}

void
testSelfTime()
{
    // Parent [0, 10]; children [1, 3], [2, 5] overlap -> [1, 5];
    // [8, 12] is clipped to [8, 10]. Covered 6, self 4.
    std::vector<perfbench::Span> spans = {
        span(1, 0, 0, 10), span(2, 1, 1, 3), span(3, 1, 2, 5),
        span(4, 1, 8, 12),
        // Grandchild: counts toward its parent only.
        span(5, 2, 1.5, 2.5),
        // Unrelated root with no children.
        span(6, 0, 20, 23)};
    const auto self = perfbench::selfTimesUs(spans);
    check(near(self.at(1), 4.0), "self time subtracts the union of children");
    check(near(self.at(2), 1.0), "child self time subtracts the grandchild");
    check(near(self.at(5), 1.0), "leaf self time is its duration");
    check(near(self.at(6), 3.0), "childless root self time is its duration");
}

} // namespace

int
main()
{
    testTail();
    testFailCount();
    testSelfTime();
    if (failures == 0)
        std::fprintf(stderr, "perfbench selftest: all passed\n");
    return failures == 0 ? 0 : 1;
}
