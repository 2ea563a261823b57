// Monte-Carlo yield analysis — statistical qualification of a synthesized
// design as a first-class workload.
//
// The paper synthesizes one nominal design per spec; real knowledge-based
// flows must also report *yield*: the fraction of fabricated instances
// that still meet the spec under random device mismatch.  This module
// draws N mismatch samples, re-measures each perturbed instance through
// the same open-loop bench the nominal verification uses, and reduces to
// yield / sigma / percentile statistics per spec metric.  Per sample:
//  * offset null by one bordered Newton solve (synth::find_output_null:
//    the drive is an extra unknown, solved from the already-factored
//    Jacobian), bisection only as the safeguard, then DC at the null;
//  * a 25-point AC sweep with the unity-gain crossing refined between
//    its samples (synth::open_loop_metrics): DC gain, GBW, phase margin.
// About 2 DC solves, ~4 Newton iterations and <= 31 AC points per
// sample.  A sample that fails is counted under yield.failures.null,
// .dc_at_null or .ac; bordered solves that fell back to bisection under
// yield.null.fallbacks.
//
// Determinism contract (the whole point of the design):
//  * sample i draws from util::RngStream(seed, i) — a pure function of
//    (seed, sample index), so any partitioning of the sample space over
//    `--jobs` threads, shard workers, or chunk sizes sees identical draws;
//  * every sample warm-starts from the *nominal* output null (drive and
//    operating point), computed once before the fan-out — no
//    cross-sample solver state;
//  * the reduction runs in fixed sample-index order (exec::parallel_for
//    lands results by index), and percentiles sort converged values.
// Together: analyze_yield() is bit-for-bit identical at every jobs
// setting, every shard worker count, and daemon vs. local execution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/spec.h"
#include "synth/oasys.h"
#include "tech/technology.h"

namespace oasys::yield {

struct YieldParams {
  int samples = 200;
  std::uint64_t seed = 1;
  // Threads for the sample fan-out (0 = exec::default_jobs()).  Excluded
  // from canonical_string(): jobs never changes the result bytes, so it
  // must never split the cache.
  std::size_t jobs = 0;

  // Canonical "samples=...;seed=...;" rendering for cache keys and wire
  // fingerprints (util::Fingerprint token rules).
  std::string canonical_string() const;
};

// Distribution of one measured metric over the converged samples, plus its
// spec bound when the spec constrains that axis.  `pass` counts converged
// samples meeting the bound (equal to the converged count for
// unconstrained axes).  Offset is signed, so its mean is the systematic
// offset and its sigma the random spread; its bound applies to |offset|.
struct MetricStats {
  std::string name;        // "offset" | "gain_db" | "gbw" | "pm_deg"
  bool constrained = false;
  double bound = 0.0;      // spec bound (0 when unconstrained)
  std::uint64_t pass = 0;
  double mean = 0.0;
  double sigma = 0.0;      // sample stddev (n-1)
  double min = 0.0;
  double max = 0.0;
  double p05 = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

struct YieldResult {
  bool ok = false;
  std::string error;
  // The underlying synthesis (nominal design + candidates); rendered as
  // the base oasys.result.v1 document by yield_result_json.
  synth::SynthesisResult synthesis;
  int samples_requested = 0;
  int samples_converged = 0;
  std::uint64_t seed = 0;
  // Samples that converged AND met every constrained spec axis.
  std::uint64_t pass_count = 0;
  double yield = 0.0;  // pass_count / samples_requested
  std::vector<MetricStats> metrics;
};

// Monte-Carlo analysis of an already-synthesized result.  Fails (ok ==
// false, error set) when the synthesis selected no feasible design or
// params.samples < 1; zero converged samples is reported as yield 0, not
// an error.
YieldResult analyze_yield(const tech::Technology& t,
                          const synth::SynthesisResult& synthesis,
                          const YieldParams& params);

// Synthesize `spec` first (exactly synthesize_opamp), then analyze.
YieldResult run_yield(const tech::Technology& t, const core::OpAmpSpec& spec,
                      const YieldParams& params,
                      const synth::SynthOptions& opts = {});

// Canonical oasys.result.v1 document: synth::result_json(r.synthesis)
// extended with a "yield" block.  Deterministic bytes; what the golden
// suite, shard conformance, and bench self-checks compare.
std::string yield_result_json(const YieldResult& r);

}  // namespace oasys::yield
