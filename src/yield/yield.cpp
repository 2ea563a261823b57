#include "yield/yield.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "spice/dc.h"
#include "spice/measure.h"
#include "spice/workspace.h"
#include "synth/result_json.h"
#include "synth/testbench.h"
#include "util/fingerprint.h"
#include "util/rng.h"
#include "util/text.h"

namespace oasys::yield {

namespace {

// One perturbed instance's measurements.  Landed by sample index from the
// parallel fan-out, so the reduction order never depends on scheduling.
struct Sample {
  bool converged = false;
  bool pass = false;
  double offset = 0.0;  // signed input offset [V]
  double gain_db = 0.0;
  double gbw = 0.0;
  double pm_deg = 0.0;
};

// Constraint axes the spec can pin.  Lower bounds check value >= bound,
// the offset axis checks |value| <= bound; a bound of 0 means
// unconstrained (core/spec.h convention).
struct Axis {
  const char* name;
  bool upper;  // true: |value| must be <= bound
  double bound;
  double Sample::*value;
};

std::vector<Axis> spec_axes(const core::OpAmpSpec& spec) {
  return {
      {"offset", true, spec.offset_max, &Sample::offset},
      {"gain_db", false, spec.gain_min_db, &Sample::gain_db},
      {"gbw", false, spec.gbw_min, &Sample::gbw},
      {"pm_deg", false, spec.pm_min_deg, &Sample::pm_deg},
  };
}

bool axis_pass(const Axis& a, const Sample& s) {
  if (a.bound == 0.0) return true;
  const double v = s.*(a.value);
  return a.upper ? std::abs(v) <= a.bound : v >= a.bound;
}

// Linear-interpolated percentile of an ascending-sorted vector.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::string num(double v) { return util::format("%.17g", v); }

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += util::format("\\u%04x", static_cast<unsigned>(c));
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::string YieldParams::canonical_string() const {
  return util::Fingerprint()
      .field("samples", static_cast<long long>(samples))
      .field("seed", static_cast<long long>(seed))
      .str();
}

YieldResult analyze_yield(const tech::Technology& t,
                          const synth::SynthesisResult& synthesis,
                          const YieldParams& params) {
  static obs::Counter& requests =
      obs::Registry::global().counter("yield.requests");
  static obs::Counter& samples_total =
      obs::Registry::global().counter("yield.samples");
  static obs::Counter& samples_converged =
      obs::Registry::global().counter("yield.samples_converged");
  static obs::Counter& samples_passed =
      obs::Registry::global().counter("yield.samples_passed");
  // Why a sample did not converge: no output null (bordered solve and
  // bisection both failed), no operating point at the null, or a failed
  // AC analysis there.
  static obs::Counter& failed_null =
      obs::Registry::global().counter("yield.failures.null");
  static obs::Counter& failed_dc_at_null =
      obs::Registry::global().counter("yield.failures.dc_at_null");
  static obs::Counter& failed_ac =
      obs::Registry::global().counter("yield.failures.ac");
  requests.add();
  OBS_SPAN("yield/analyze");

  YieldResult result;
  result.synthesis = synthesis;
  result.samples_requested = params.samples;
  result.seed = params.seed;
  if (params.samples < 1) {
    result.error = "samples must be >= 1";
    return result;
  }
  const synth::OpAmpDesign* best = synthesis.best();
  if (best == nullptr) {
    result.error = "no feasible design to analyze";
    return result;
  }
  const synth::OpAmpDesign& design = *best;

  // Shared open-loop bench, built once; samples copy it and only touch
  // the per-device dvt fields.  The nominal verification uses the same
  // fixture.
  synth::OpenLoopBench base(design, t);

  // Per-device sigma(VT) from the area law, in mosfets() order — the draw
  // order every sample replays.
  std::vector<double> sigma_vt;
  sigma_vt.reserve(base.circuit.mosfets().size());
  for (const auto& m : base.circuit.mosfets()) {
    const tech::MosParams& p =
        m.type == mos::MosType::kNmos ? t.nmos : t.pmos;
    sigma_vt.push_back(p.sigma_vt(m.geom.w * m.geom.m, m.geom.l));
  }

  // The nominal design's output null, found once before the fan-out:
  // every sample's null search starts from this drive and these bytes, so
  // there is no cross-sample solver state and no partitioning dependence.
  const synth::NullWarmStart nominal = synth::nominal_output_null(base, t);
  const double fmin = synth::open_loop_fmin(design, 1.0);

  const std::vector<Axis> axes = spec_axes(design.spec);
  const std::size_t n = static_cast<std::size_t>(params.samples);
  std::vector<Sample> samples(n);
  const std::size_t lanes = exec::lane_count(n, params.jobs);
  std::vector<sim::SimWorkspace> scratch(lanes);

  exec::parallel_for_lanes(
      n,
      [&](std::size_t i, std::size_t lane) {
        synth::OpenLoopBench bench = base;
        ckt::Circuit& c = bench.circuit;
        util::RngStream rng(params.seed, i);
        for (std::size_t k = 0; k < c.mosfets().size(); ++k) {
          c.set_mosfet_dvt(c.mosfets()[k].name,
                           sigma_vt[k] * rng.next_gauss());
        }

        Sample& s = samples[i];
        const synth::OutputNull null =
            synth::find_output_null(bench, t, nominal, &scratch[lane]);
        if (null.failure == synth::OutputNull::Failure::kNoNull) {
          failed_null.add();
          return;
        }
        if (null.failure == synth::OutputNull::Failure::kDcAtNull) {
          failed_dc_at_null.add();
          return;
        }
        // Signed: the statistics show the systematic offset (mean) and the
        // random spread (sigma) unfolded; pass/fail reads |offset|.
        s.offset = null.vid;

        const std::optional<sim::LoopMetrics> lm =
            synth::open_loop_metrics(bench, null.op, fmin);
        if (!lm) {
          failed_ac.add();
          return;
        }
        s.gain_db = lm->dc_gain_db;
        s.gbw = lm->unity_gain_freq.value_or(0.0);
        s.pm_deg = lm->phase_margin_deg.value_or(0.0);
        s.converged = true;
        bool pass = true;
        for (const Axis& a : axes) pass = pass && axis_pass(a, s);
        s.pass = pass;
      },
      params.jobs);

  // Fixed-order reduction: everything below iterates samples in index
  // order (or sorts values), never in completion order.
  for (const Axis& a : axes) {
    MetricStats m;
    m.name = a.name;
    m.constrained = a.bound != 0.0;
    m.bound = a.bound;
    std::vector<double> values;
    values.reserve(n);
    for (const Sample& s : samples) {
      if (!s.converged) continue;
      values.push_back(s.*(a.value));
      if (axis_pass(a, s)) ++m.pass;
    }
    if (!values.empty()) {
      double mean = 0.0;
      for (const double v : values) mean += v;
      mean /= static_cast<double>(values.size());
      double var = 0.0;
      for (const double v : values) var += (v - mean) * (v - mean);
      m.mean = mean;
      m.sigma = values.size() > 1
                    ? std::sqrt(var / static_cast<double>(values.size() - 1))
                    : 0.0;
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      m.min = sorted.front();
      m.max = sorted.back();
      m.p05 = percentile(sorted, 0.05);
      m.p50 = percentile(sorted, 0.50);
      m.p95 = percentile(sorted, 0.95);
    }
    result.metrics.push_back(std::move(m));
  }

  for (const Sample& s : samples) {
    if (s.converged) ++result.samples_converged;
    if (s.pass) ++result.pass_count;
  }
  result.yield = static_cast<double>(result.pass_count) /
                 static_cast<double>(params.samples);
  result.ok = true;

  samples_total.add(static_cast<std::uint64_t>(params.samples));
  samples_converged.add(static_cast<std::uint64_t>(result.samples_converged));
  samples_passed.add(result.pass_count);
  return result;
}

YieldResult run_yield(const tech::Technology& t, const core::OpAmpSpec& spec,
                      const YieldParams& params,
                      const synth::SynthOptions& opts) {
  return analyze_yield(t, synthesize_opamp(t, spec, opts), params);
}

std::string yield_result_json(const YieldResult& r) {
  const std::string base = synth::result_json(r.synthesis);
  std::ostringstream os;
  // Splice the yield block into the base document before its closing
  // brace; the result is still one oasys.result.v1 object.
  os << base.substr(0, base.size() - 1) << ",\n \"yield\": {\"ok\": "
     << (r.ok ? "true" : "false");
  if (!r.ok) os << ", \"error\": " << quote(r.error);
  os << ", \"samples\": " << r.samples_requested << ", \"seed\": " << r.seed
     << ", \"converged\": " << r.samples_converged
     << ", \"pass\": " << r.pass_count << ", \"yield\": " << num(r.yield)
     << ",\n  \"metrics\": [";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const MetricStats& m = r.metrics[i];
    os << (i == 0 ? "\n   " : ",\n   ") << "{\"name\": " << quote(m.name)
       << ", \"constrained\": " << (m.constrained ? "true" : "false")
       << ", \"bound\": " << num(m.bound) << ", \"pass\": " << m.pass
       << ", \"mean\": " << num(m.mean) << ", \"sigma\": " << num(m.sigma)
       << ", \"min\": " << num(m.min) << ", \"max\": " << num(m.max)
       << ", \"p05\": " << num(m.p05) << ", \"p50\": " << num(m.p50)
       << ", \"p95\": " << num(m.p95) << "}";
  }
  os << "\n  ]}}";
  return os.str();
}

}  // namespace oasys::yield
