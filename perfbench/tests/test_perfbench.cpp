// Unit tests for the benchmark's own arithmetic: the p95 rule, generator
// determinism, self time from a synthetic event list, and per-unit counter
// deltas.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"
#include "specgen.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace obs = oasys::obs;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(P95Rule, ResolvedWithTenSamplesBeyond) {
  const LatencySummary s = summarize_latency(ramp(200));
  EXPECT_EQ(s.samples, 200u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 100.5);
  EXPECT_DOUBLE_EQ(s.p95_ms, 190.05);
  EXPECT_EQ(s.beyond_p95, 10u);
  EXPECT_TRUE(s.p95_resolved);
}

TEST(P95Rule, FlagsRunWithFewerThanTenBeyond) {
  const LatencySummary s = summarize_latency(ramp(180));
  EXPECT_EQ(s.beyond_p95, 9u);
  EXPECT_FALSE(s.p95_resolved);
  EXPECT_FALSE(summarize_latency({}).p95_resolved);
}

TEST(Generator, SameSeedSameBytes) {
  const auto a = generate_specs(7, 64);
  const auto b = generate_specs(7, 64);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].canonical_string(), b[i].canonical_string());
  }
  EXPECT_NE(generate_specs(8, 1)[0].canonical_string(),
            a[0].canonical_string());

  const MixedTraffic mix;
  const auto m1 = generate_mixed_requests(7, 32, mix);
  const auto m2 = generate_mixed_requests(7, 32, mix);
  ASSERT_EQ(m1.size(), 32 * mix.batch);
  for (std::size_t i = 0; i < m1.size(); ++i) {
    EXPECT_EQ(m1[i].spec.canonical_string(), m2[i].spec.canonical_string());
    EXPECT_EQ(m1[i].is_yield, m2[i].is_yield);
    EXPECT_EQ(m1[i].params.canonical_string(), m2[i].params.canonical_string());
  }
}

TEST(Generator, EveryBatchHasTheSameMakeUp) {
  const MixedTraffic mix;
  const auto m = generate_mixed_requests(11, 16, mix);
  std::set<std::string> seen;
  for (std::size_t b = 0; b < 16; ++b) {
    std::size_t fresh = 0;
    std::size_t fresh_yield = 0;
    for (std::size_t k = 0; k < mix.batch; ++k) {
      const auto& r = m[b * mix.batch + k];
      if (seen.insert(r.spec.name).second) {
        ++fresh;
        fresh_yield += r.is_yield ? 1 : 0;
      }
    }
    EXPECT_EQ(fresh, mix.fresh) << "batch " << b;
    EXPECT_EQ(fresh_yield, 1u) << "batch " << b;
  }
}

TEST(Generator, YieldRequestsCarryLanesAndSeeds) {
  const auto r = generate_yield_requests(3, 4, 16, 2);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_TRUE(r[0].is_yield);
  EXPECT_EQ(r[0].params.samples, 16);
  EXPECT_EQ(r[0].params.jobs, 2u);
  EXPECT_NE(r[0].params.seed, r[1].params.seed);
}

obs::TraceEvent begin(const char* name, std::uint64_t tid, int depth,
                      std::uint64_t ts) {
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::kSpanBegin;
  e.name = name;
  e.tid = tid;
  e.depth = depth;
  e.ts_us = ts;
  return e;
}

obs::TraceEvent end(const char* name, std::uint64_t tid, int depth,
                    double seconds) {
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::kSpanEnd;
  e.name = name;
  e.tid = tid;
  e.depth = depth;
  e.seconds = seconds;
  return e;
}

TEST(SelfTime, SpanMinusChildCoverage) {
  // bench/run_yield [0, 100) contains yield/analyze [10, 90), which
  // contains two DC solves of 20 us; a helper thread runs two DC solves
  // of 15 us inside the analyze span, 5 us apart.
  const std::vector<obs::TraceEvent> ev = {
      begin("bench/run_yield", 0, 0, 0),
      begin("yield/analyze", 0, 1, 10),
      begin("sim/dc_operating_point", 0, 2, 20),
      end("sim/dc_operating_point", 0, 2, 20e-6),
      begin("sim/dc_operating_point", 1, 0, 21),
      end("sim/dc_operating_point", 1, 0, 15e-6),
      begin("sim/dc_operating_point", 0, 2, 50),
      end("sim/dc_operating_point", 0, 2, 20e-6),
      begin("sim/dc_operating_point", 1, 0, 41),
      end("sim/dc_operating_point", 1, 0, 15e-6),
      end("yield/analyze", 0, 1, 80e-6),
      end("bench/run_yield", 0, 0, 100e-6),
  };
  const std::vector<SpanRecord> spans = pair_spans(ev);
  ASSERT_EQ(spans.size(), 6u);
  const SpanRecord& analyze = spans[4];
  EXPECT_EQ(analyze.name, "yield/analyze");
  EXPECT_NEAR(analyze.self_us, 40.0, 1e-9);
  EXPECT_NEAR(spans[5].self_us, 20.0, 1e-9);

  LayerAccount acc;
  account_spans(spans, 0, &acc);
  // Helper lane busy from 21 to 56 us, 30 of it in spans: 5 us of glue
  // belongs to the enclosing yield/analyze.
  EXPECT_NEAR(acc.helper_lane_us, 35.0, 1e-9);
  EXPECT_NEAR(acc.self_us["spice.dc"], 70.0, 1e-9);
  EXPECT_NEAR(acc.self_us["yield"], 20.0 + 40.0 + 5.0, 1e-9);
  EXPECT_NEAR(total_self_us(acc), 100.0 + 35.0, 1e-9);
  EXPECT_EQ(acc.calls["sim/dc_operating_point"].count, 4u);
}

TEST(SelfTime, UnclosedSpansAreDropped) {
  const std::vector<obs::TraceEvent> ev = {begin("sim/ac_analysis", 0, 0, 5)};
  EXPECT_TRUE(pair_spans(ev).empty());
}

TEST(Counters, PerUnitDeltas) {
  obs::Registry reg;
  obs::Counter& solves = reg.counter("sim.op.calls");
  obs::Histogram& iters = reg.count_histogram(
      "sim.op.iterations_per_solve",
      obs::Histogram::exponential_bounds(1.0, 512.0, 2.0));
  solves.add(5);
  iters.observe(100.0);
  const obs::MetricsSnapshot before = reg.snapshot();
  solves.add(12);
  for (int i = 0; i < 9; ++i) iters.observe(3.0);
  iters.observe(30.0);
  const obs::MetricsSnapshot d = snapshot_delta(reg.snapshot(), before);
  EXPECT_DOUBLE_EQ(counter(d, "sim.op.calls"), 12.0);
  EXPECT_DOUBLE_EQ(ratio(counter(d, "sim.op.calls"), 4.0), 3.0);
  EXPECT_DOUBLE_EQ(ratio(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(counter(d, "absent"), 0.0);
  // The 100-iteration solve before the window is gone from the delta.
  EXPECT_DOUBLE_EQ(d.find("sim.op.iterations_per_solve")->histogram.sum, 57.0);
  EXPECT_EQ(d.find("sim.op.iterations_per_solve")->histogram.count, 10u);
  EXPECT_LE(histogram_quantile(d, "sim.op.iterations_per_solve", 0.5), 4.0);
  EXPECT_GT(histogram_quantile(d, "sim.op.iterations_per_solve", 0.95), 16.0);
}

}  // namespace
}  // namespace perfbench
