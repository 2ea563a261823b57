// Yield subsystem suite (src/yield/).
//
// The contract under test is the determinism chain the serving stack
// leans on: analyze_yield is a pure function of (technology, synthesis,
// samples, seed) — bit-for-bit identical at every jobs setting and on
// the cached path — and run_mixed answers mixed synth/yield traffic in
// submission order with exactly those bytes.  Everything here compares
// canonical yield_result_json renderings, the same bytes the golden
// suite, the shard conformance check, and the daemon share.
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "numeric/interpolate.h"
#include "numeric/rootfind.h"
#include "obs/metrics.h"
#include "spice/ac.h"
#include "spice/measure.h"
#include "synth/oasys.h"
#include "synth/result_json.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"
#include "util/rng.h"
#include "yield/service.h"
#include "yield/yield.h"

namespace oasys {
namespace {

const tech::Technology& tech5() {
  static const tech::Technology t = tech::five_micron();
  return t;
}

yield::YieldParams params(int samples, std::uint64_t seed,
                          std::size_t jobs = 1) {
  yield::YieldParams p;
  p.samples = samples;
  p.seed = seed;
  p.jobs = jobs;
  return p;
}

// ---- determinism ------------------------------------------------------------

TEST(YieldDeterminism, BitIdenticalAcrossJobsCounts) {
  for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
    const std::string reference = yield::yield_result_json(
        yield::run_yield(tech5(), spec, params(24, 7, 1)));
    for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
      EXPECT_EQ(yield::yield_result_json(yield::run_yield(
                    tech5(), spec, params(24, 7, jobs))),
                reference)
          << spec.name << " diverged at jobs " << jobs;
    }
  }
}

TEST(YieldDeterminism, SeedAndSampleCountChangeTheResult) {
  const core::OpAmpSpec spec = synth::paper_test_cases()[1];
  const std::string base = yield::yield_result_json(
      yield::run_yield(tech5(), spec, params(24, 7)));
  EXPECT_NE(yield::yield_result_json(
                yield::run_yield(tech5(), spec, params(24, 8))),
            base);
  EXPECT_NE(yield::yield_result_json(
                yield::run_yield(tech5(), spec, params(23, 7))),
            base);
}

TEST(YieldDeterminism, AnalyzeMatchesRunYieldOnSharedSynthesis) {
  // run_yield = synthesize_opamp + analyze_yield, nothing more.
  const core::OpAmpSpec spec = synth::paper_test_cases()[0];
  const synth::SynthesisResult synthesis =
      synth::synthesize_opamp(tech5(), spec, {});
  EXPECT_EQ(yield::yield_result_json(
                yield::analyze_yield(tech5(), synthesis, params(16, 3))),
            yield::yield_result_json(
                yield::run_yield(tech5(), spec, params(16, 3))));
}

// ---- result shape -----------------------------------------------------------

TEST(YieldResult, CountsAndMetricsAreConsistent) {
  const core::OpAmpSpec spec = synth::paper_test_cases()[0];
  const yield::YieldResult r =
      yield::run_yield(tech5(), spec, params(32, 1));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.samples_requested, 32);
  EXPECT_EQ(r.seed, 1u);
  EXPECT_LE(r.samples_converged, r.samples_requested);
  EXPECT_LE(r.pass_count,
            static_cast<std::uint64_t>(r.samples_converged));
  EXPECT_DOUBLE_EQ(r.yield,
                   static_cast<double>(r.pass_count) / 32.0);
  ASSERT_FALSE(r.metrics.empty());
  for (const yield::MetricStats& m : r.metrics) {
    EXPECT_FALSE(m.name.empty());
    EXPECT_LE(m.min, m.p05);
    EXPECT_LE(m.p05, m.p50);
    EXPECT_LE(m.p50, m.p95);
    EXPECT_LE(m.p95, m.max);
    EXPECT_GE(m.sigma, 0.0);
    EXPECT_LE(m.pass, static_cast<std::uint64_t>(r.samples_converged));
    if (!m.constrained) {
      // Unconstrained axes pass by definition.
      EXPECT_EQ(m.pass, static_cast<std::uint64_t>(r.samples_converged));
    }
  }
  // A constrained metric can never pass more often than the overall
  // yield's conjunction allows.
  for (const yield::MetricStats& m : r.metrics) {
    if (m.constrained) {
      EXPECT_GE(m.pass, r.pass_count);
    }
  }
}

TEST(YieldResult, InfeasibleSynthesisFailsCleanly) {
  core::OpAmpSpec spec = synth::paper_test_cases()[0];
  spec.gain_min_db = 500.0;  // no style can reach this
  const yield::YieldResult r =
      yield::run_yield(tech5(), spec, params(8, 1));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(YieldResult, RejectsNonPositiveSampleCount) {
  const core::OpAmpSpec spec = synth::paper_test_cases()[0];
  const synth::SynthesisResult synthesis =
      synth::synthesize_opamp(tech5(), spec, {});
  const yield::YieldResult r =
      yield::analyze_yield(tech5(), synthesis, params(0, 1));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(YieldResult, JsonExtendsTheSynthesisDocument) {
  const core::OpAmpSpec spec = synth::paper_test_cases()[0];
  const yield::YieldResult r =
      yield::run_yield(tech5(), spec, params(8, 1));
  const std::string json = yield::yield_result_json(r);
  EXPECT_NE(json.find("oasys.result.v1"), std::string::npos);
  EXPECT_NE(json.find("\"yield\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\": 8"), std::string::npos);
}

TEST(YieldParams, JobsNeverSplitsTheCanonicalKey) {
  EXPECT_EQ(params(16, 3, 1).canonical_string(),
            params(16, 3, 4).canonical_string());
  EXPECT_NE(params(16, 3).canonical_string(),
            params(16, 4).canonical_string());
  EXPECT_NE(params(16, 3).canonical_string(),
            params(17, 3).canonical_string());
}

// ---- counters ---------------------------------------------------------------

TEST(YieldObservability, DeterministicCountersAdvance) {
  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const char* name) -> std::uint64_t {
    const obs::MetricEntry* e = snap.find(name);
    return e == nullptr ? 0 : e->counter;
  };
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  const yield::YieldResult r = yield::run_yield(
      tech5(), synth::paper_test_cases()[0], params(8, 1));
  ASSERT_TRUE(r.ok) << r.error;
  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
  EXPECT_EQ(counter(after, "yield.requests"),
            counter(before, "yield.requests") + 1);
  EXPECT_EQ(counter(after, "yield.samples"),
            counter(before, "yield.samples") + 8);
  EXPECT_EQ(counter(after, "yield.samples_converged"),
            counter(before, "yield.samples_converged") +
                static_cast<std::uint64_t>(r.samples_converged));
  EXPECT_EQ(counter(after, "yield.samples_passed"),
            counter(before, "yield.samples_passed") + r.pass_count);
}

TEST(YieldObservability, EveryUnconvergedSampleHasAFailureReason) {
  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const char* name) -> std::uint64_t {
    const obs::MetricEntry* e = snap.find(name);
    return e == nullptr ? 0 : e->counter;
  };
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  const yield::YieldResult r = yield::run_yield(
      tech5(), synth::paper_test_cases()[1], params(8, 2));
  ASSERT_TRUE(r.ok) << r.error;
  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
  std::uint64_t failures = 0;
  for (const char* name : {"yield.failures.null", "yield.failures.dc_at_null",
                           "yield.failures.ac"}) {
    failures += counter(after, name) - counter(before, name);
  }
  EXPECT_EQ(failures, static_cast<std::uint64_t>(r.samples_requested -
                                                 r.samples_converged));
}

// ---- per-sample measurement: accuracy and solve budget ----------------------

// One yield sample's bench: the design's open-loop fixture with every
// device threshold drawn from util::RngStream(seed, index), as
// analyze_yield draws them.
synth::OpenLoopBench mismatched_bench(const synth::OpenLoopBench& base,
                                      std::uint64_t seed,
                                      std::uint64_t index) {
  synth::OpenLoopBench bench = base;
  util::RngStream rng(seed, index);
  for (const auto& m : base.circuit.mosfets()) {
    const tech::MosParams& p =
        m.type == mos::MosType::kNmos ? tech5().nmos : tech5().pmos;
    bench.circuit.set_mosfet_dvt(
        m.name, p.sigma_vt(m.geom.w * m.geom.m, m.geom.l) * rng.next_gauss());
  }
  return bench;
}

// The per-sample null and loop metrics against references that spend
// what it takes: a bisection null to 1e-14 V, and a 4,801-point sweep at
// that null.  Bisection to 1e-9 V with a fixed 121-point grid misses these
// bounds (by ~7e-10 V, ~1.6e-3 dB, ~2.5e-3 GBW rel, ~0.57 deg).
TEST(YieldAccuracy, SampleNullAndLoopMetricsMatchDenseReferences) {
  for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
    const synth::SynthesisResult syn = synth::synthesize_opamp(tech5(), spec);
    ASSERT_NE(syn.best(), nullptr) << spec.name;
    const synth::OpAmpDesign& design = *syn.best();
    const synth::OpenLoopBench base(design, tech5());
    const synth::NullWarmStart nominal =
        synth::nominal_output_null(base, tech5());
    const double fmin = synth::open_loop_fmin(design, 1.0);
    for (std::uint64_t i = 0; i < 16; ++i) {
      synth::OpenLoopBench bench = mismatched_bench(base, 1, i);
      const synth::OutputNull null =
          synth::find_output_null(bench, tech5(), nominal);
      ASSERT_TRUE(null.ok()) << spec.name << " sample " << i;
      const std::optional<sim::LoopMetrics> lm =
          synth::open_loop_metrics(bench, null.op, fmin);
      ASSERT_TRUE(lm.has_value()) << spec.name << " sample " << i;

      // Reference null: bisection to 1e-14 V on operating points
      // converged to 1e-8 V, so no probe's output reading carries a
      // solver error that moves its sign.  Every probe starts from the
      // nominal null.
      const sim::MnaLayout layout(bench.circuit);
      sim::OpOptions probe = nominal.opts;
      probe.vntol = 1e-8;
      sim::OpResult op;
      const auto out_error = [&](double vid) {
        bench.set_vid(vid);
        op = sim::dc_operating_point(bench.circuit, tech5(), probe);
        EXPECT_TRUE(op.converged) << spec.name << " sample " << i;
        return op.voltage(layout, bench.nodes.out) - tech5().mid_supply();
      };
      num::RootOptions ro;
      ro.xtol = 1e-14;
      const std::optional<double> ref_vid =
          num::bisect(out_error, null.vid - 1e-10, null.vid + 1e-10, ro);
      ASSERT_TRUE(ref_vid.has_value()) << spec.name << " sample " << i;
      EXPECT_NEAR(null.vid, *ref_vid, 1e-12) << spec.name << " sample " << i;
      out_error(*ref_vid);  // the operating point at the reference null

      const sim::AcResult dense = sim::ac_analysis(
          bench.circuit, tech5(), op, num::logspace(fmin, 1e9, 4801), 1);
      ASSERT_TRUE(dense.ok);
      const sim::LoopMetrics ref = sim::loop_metrics(
          sim::bode_of_node(dense, layout, bench.nodes.out));
      ASSERT_TRUE(ref.unity_gain_freq && lm->unity_gain_freq);
      ASSERT_TRUE(ref.phase_margin_deg && lm->phase_margin_deg);
      EXPECT_NEAR(lm->dc_gain_db, ref.dc_gain_db, 1e-6)
          << spec.name << " sample " << i;
      EXPECT_NEAR(*lm->unity_gain_freq / *ref.unity_gain_freq, 1.0, 1e-4)
          << spec.name << " sample " << i;
      EXPECT_NEAR(*lm->phase_margin_deg, *ref.phase_margin_deg, 0.01)
          << spec.name << " sample " << i;
    }
  }
}

// Solver work per yield sample, from the deterministic counters: the
// difference between a 17-sample and a 1-sample run over 16 is the cost
// of one sample with the nominal set-up taken out.
TEST(YieldBudget, PerSampleSolvesStayWithinBudget) {
  const auto counters = [](const obs::MetricsSnapshot& snap) {
    std::vector<double> out;
    for (const char* name :
         {"sim.op.calls", "sim.newton.iterations", "sim.ac.points"}) {
      const obs::MetricEntry* e = snap.find(name);
      out.push_back(e == nullptr ? 0.0 : static_cast<double>(e->counter));
    }
    return out;
  };
  const auto cost = [&](const synth::SynthesisResult& syn, int samples) {
    const std::vector<double> before =
        counters(obs::Registry::global().snapshot());
    const yield::YieldResult r =
        yield::analyze_yield(tech5(), syn, params(samples, 1));
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.samples_converged, samples);
    std::vector<double> delta = counters(obs::Registry::global().snapshot());
    for (std::size_t k = 0; k < delta.size(); ++k) delta[k] -= before[k];
    return delta;
  };
  for (const core::OpAmpSpec& spec : synth::paper_test_cases()) {
    const synth::SynthesisResult syn = synth::synthesize_opamp(tech5(), spec);
    const std::vector<double> one = cost(syn, 1);
    const std::vector<double> many = cost(syn, 17);
    EXPECT_LE((many[0] - one[0]) / 16.0, 3.0) << spec.name << " DC solves";
    EXPECT_LE((many[1] - one[1]) / 16.0, 12.0)
        << spec.name << " Newton iterations";
    EXPECT_LE((many[2] - one[2]) / 16.0, 32.0) << spec.name << " AC points";
  }
}

// A bordered solve that cannot converge (one Newton iteration allowed)
// hands over to bisection, which finds the same null, and the fallback
// is counted.
TEST(YieldFailures, FailedBorderedSolveFallsBackToTheSameNull) {
  const synth::SynthesisResult syn =
      synth::synthesize_opamp(tech5(), synth::paper_test_cases()[0]);
  ASSERT_NE(syn.best(), nullptr);
  const synth::OpenLoopBench base(*syn.best(), tech5());
  const synth::NullWarmStart nominal =
      synth::nominal_output_null(base, tech5());

  obs::Counter& fallbacks =
      obs::Registry::global().counter("yield.null.fallbacks");
  synth::OpenLoopBench bench = mismatched_bench(base, 1, 0);
  const std::uint64_t before = fallbacks.value();
  const synth::OutputNull bordered =
      synth::find_output_null(bench, tech5(), nominal);
  ASSERT_TRUE(bordered.ok());
  EXPECT_EQ(fallbacks.value(), before);

  synth::NullWarmStart starved = nominal;
  starved.opts.max_iterations = 1;
  const synth::OutputNull safeguarded =
      synth::find_output_null(bench, tech5(), starved);
  ASSERT_TRUE(safeguarded.ok());
  EXPECT_EQ(fallbacks.value(), before + 1);
  EXPECT_NEAR(safeguarded.vid, bordered.vid, 1e-9);
}

// ---- YieldService mixed traffic ---------------------------------------------

std::vector<yield::Request> mixed_requests() {
  const std::vector<core::OpAmpSpec> specs = synth::paper_test_cases();
  std::vector<yield::Request> requests;
  for (const core::OpAmpSpec& spec : specs) {
    yield::Request synth_req;
    synth_req.spec = spec;
    requests.push_back(synth_req);
    yield::Request yield_req;
    yield_req.spec = spec;
    yield_req.is_yield = true;
    yield_req.params = params(12, 5);
    requests.push_back(yield_req);
  }
  return requests;
}

TEST(YieldService, MixedBatchMatchesDirectCallsInSubmissionOrder) {
  const std::vector<yield::Request> requests = mixed_requests();
  yield::YieldService svc(tech5());
  const std::vector<yield::Outcome> outcomes = svc.run_mixed(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].is_yield, requests[i].is_yield);
    if (requests[i].is_yield) {
      EXPECT_EQ(yield::yield_result_json(outcomes[i].yield),
                yield::yield_result_json(yield::run_yield(
                    tech5(), requests[i].spec, requests[i].params)));
    } else {
      EXPECT_EQ(synth::result_json(outcomes[i].result),
                synth::result_json(synth::synthesize_opamp(
                    tech5(), requests[i].spec, {})));
    }
  }
}

TEST(YieldService, RepeatedYieldRequestIsACacheHitWithIdenticalBytes) {
  yield::Request request;
  request.spec = synth::paper_test_cases()[0];
  request.is_yield = true;
  request.params = params(12, 5);
  yield::YieldService svc(tech5());
  const std::vector<yield::Outcome> first = svc.run_mixed({request});
  const service::ServiceStats mid = svc.stats();
  const std::vector<yield::Outcome> second = svc.run_mixed({request});
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_TRUE(first[0].ok());
  ASSERT_TRUE(second[0].ok());
  EXPECT_EQ(yield::yield_result_json(second[0].yield),
            yield::yield_result_json(first[0].yield));
  // The repeat costs no new synthesis: the underlying service answers
  // from its LRU, and the yield analysis answers from the yield cache.
  const service::ServiceStats end = svc.stats();
  EXPECT_EQ(end.misses, mid.misses);
  EXPECT_GT(end.hits, mid.hits);
}

TEST(YieldService, DistinctParamsAreDistinctCacheEntries) {
  yield::Request request;
  request.spec = synth::paper_test_cases()[0];
  request.is_yield = true;
  request.params = params(12, 5);
  yield::Request other = request;
  other.params = params(12, 6);
  yield::YieldService svc(tech5());
  const std::vector<yield::Outcome> outcomes =
      svc.run_mixed({request, other});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_NE(svc.yield_key(request.spec, request.params),
            svc.yield_key(other.spec, other.params));
  EXPECT_NE(yield::yield_result_json(outcomes[0].yield),
            yield::yield_result_json(outcomes[1].yield));
}

TEST(YieldService, InfeasibleYieldIsAnOutcomeNotAnException) {
  yield::Request request;
  request.spec = synth::paper_test_cases()[0];
  request.spec.gain_min_db = 500.0;
  request.is_yield = true;
  request.params = params(8, 1);
  yield::YieldService svc(tech5());
  const std::vector<yield::Outcome> outcomes = svc.run_mixed({request});
  ASSERT_EQ(outcomes.size(), 1u);
  // The computation ran to completion; infeasibility lives inside the
  // yield result, mirroring how synthesis treats infeasible specs.
  ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error;
  EXPECT_FALSE(outcomes[0].yield.ok);
  EXPECT_FALSE(outcomes[0].yield.error.empty());
}

}  // namespace
}  // namespace oasys
