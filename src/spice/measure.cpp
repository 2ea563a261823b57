#include "spice/measure.h"

#include <cmath>

#include "numeric/interpolate.h"
#include "util/units.h"

namespace oasys::sim {

BodeSeries bode_of_node(const AcResult& ac, const MnaLayout& layout,
                        ckt::NodeId node) {
  BodeSeries out;
  out.freqs = ac.freqs;
  out.gain_db.reserve(ac.freqs.size());
  out.phase_deg.reserve(ac.freqs.size());
  double prev_phase = 0.0;
  bool first = true;
  for (std::size_t i = 0; i < ac.freqs.size(); ++i) {
    const std::complex<double> v = ac.voltage(layout, i, node);
    const double mag = std::abs(v);
    out.gain_db.push_back(mag > 0.0 ? util::db20(mag) : -400.0);
    double phase = util::deg(std::arg(v));
    if (first) {
      // The principal value is ambiguous at the ±180° branch point: for an
      // inverting response the first sample sits at ±180° minus a little
      // lag, and rounding in the imaginary part decides which sign comes
      // back.  Seeding the unwrap from the raw value would then flip the
      // entire series by 360° run-to-run.  Fold the seed relative to the
      // DC reference: a first sample below −90° is re-read as lag past
      // +180° (a response cannot *lead* by more than a quarter turn at its
      // lowest sampled frequency), so inverting responses always start
      // near +180°.
      if (phase < -90.0) phase += 360.0;
    } else {
      // Unwrap: keep each step within half a turn of the previous sample.
      while (phase - prev_phase > 180.0) phase -= 360.0;
      while (phase - prev_phase < -180.0) phase += 360.0;
    }
    out.phase_deg.push_back(phase);
    prev_phase = phase;
    first = false;
  }
  return out;
}

LoopMetrics loop_metrics(const BodeSeries& bode) {
  LoopMetrics m;
  if (bode.freqs.empty()) return m;
  m.dc_gain_db = bode.gain_db.front();

  m.unity_gain_freq = num::first_crossing(bode.freqs, bode.gain_db, 0.0);
  if (m.unity_gain_freq) {
    const double phase_at_ugf =
        num::interp_semilogx(bode.freqs, bode.phase_deg, *m.unity_gain_freq);
    // The phase series is referenced to the low-frequency phase; a
    // non-inverting response starts near 0 degrees and the margin is the
    // distance of the accumulated phase lag from 180 degrees.
    const double phase_rel = phase_at_ugf - bode.phase_deg.front();
    m.phase_margin_deg = 180.0 + phase_rel;
  }

  // Gain margin: gain (dB) where accumulated phase lag reaches 180 degrees.
  {
    std::vector<double> lag(bode.phase_deg.size());
    for (std::size_t i = 0; i < lag.size(); ++i) {
      lag[i] = bode.phase_deg.front() - bode.phase_deg[i];
    }
    const auto f180 = num::first_crossing(bode.freqs, lag, 180.0);
    if (f180) {
      const double g = num::interp_semilogx(bode.freqs, bode.gain_db, *f180);
      m.gain_margin_db = -g;
    }
  }

  const auto f3db =
      num::first_crossing(bode.freqs, bode.gain_db, m.dc_gain_db - 3.0);
  if (f3db) m.bandwidth_3db = f3db;
  return m;
}

namespace {

// Crossing refinement budget: at most this many single-point solves, done
// once |gain_db| falls below the tolerance.
constexpr int kMaxRefinements = 6;
constexpr double kCrossingTolDb = 1e-7;

double gain_db_of(std::complex<double> v) {
  const double mag = std::abs(v);
  return mag > 0.0 ? util::db20(mag) : -400.0;
}

}  // namespace

std::optional<LoopMetrics> loop_metrics_refined(
    const BodeSeries& coarse,
    const std::function<std::optional<std::complex<double>>(double)>&
        response) {
  LoopMetrics m = loop_metrics(coarse);
  if (!m.unity_gain_freq) return m;
  // The bracket first_crossing interpolated in: the first sample pair
  // whose gains straddle 0 dB.  An exact 0 dB sample needs no refinement.
  std::size_t hi = 1;
  while (hi < coarse.freqs.size() &&
         !(coarse.gain_db[hi - 1] * coarse.gain_db[hi] < 0.0)) {
    if (coarse.gain_db[hi - 1] == 0.0) return m;
    ++hi;
  }
  if (hi == coarse.freqs.size()) return m;
  const std::size_t lo = hi - 1;

  // Illinois regula falsi on g(u) = gain_db(10^u), u = log10 f.  (a, ga)
  // is the retained end, (b, gb) the newest point; a retained end that
  // survives twice has its g halved so the bracket shrinks from both sides.
  double a = std::log10(coarse.freqs[lo]);
  double ga = coarse.gain_db[lo];
  double b = std::log10(coarse.freqs[hi]);
  double gb = coarse.gain_db[hi];
  double u = b;
  std::complex<double> v;
  for (int k = 0; k < kMaxRefinements; ++k) {
    u = (a * gb - b * ga) / (gb - ga);
    const std::optional<std::complex<double>> at = response(std::pow(10.0, u));
    if (!at) return std::nullopt;
    v = *at;
    const double g = gain_db_of(v);
    if (std::abs(g) < kCrossingTolDb) break;
    if (g * gb < 0.0) {
      a = b;
      ga = gb;
    } else {
      ga *= 0.5;
    }
    b = u;
    gb = g;
  }

  double phase = util::deg(std::arg(v));
  const double ref = coarse.phase_deg[lo];
  while (phase - ref > 180.0) phase -= 360.0;
  while (phase - ref < -180.0) phase += 360.0;
  m.unity_gain_freq = std::pow(10.0, u);
  m.phase_margin_deg = 180.0 + (phase - coarse.phase_deg.front());
  return m;
}

std::optional<SlewMeasurement> slew_rate(const TranResult& tran,
                                         const MnaLayout& layout,
                                         ckt::NodeId node) {
  if (tran.time.size() < 2) return std::nullopt;
  const std::vector<double> v = tran.node_waveform(layout, node);
  SlewMeasurement s;
  for (std::size_t i = 1; i < v.size(); ++i) {
    const double h = tran.time[i] - tran.time[i - 1];
    if (h <= 0.0) continue;
    const double d = (v[i] - v[i - 1]) / h;
    if (d > s.rising) s.rising = d;
    if (-d > s.falling) s.falling = -d;
  }
  return s;
}

std::optional<double> settling_time(const TranResult& tran,
                                    const MnaLayout& layout, ckt::NodeId node,
                                    double target, double tolerance) {
  if (tran.time.empty()) return std::nullopt;
  const std::vector<double> v = tran.node_waveform(layout, node);
  // Scan backwards for the last sample outside the band.
  std::size_t last_outside = v.size();  // sentinel: all inside
  for (std::size_t i = v.size(); i-- > 0;) {
    if (std::abs(v[i] - target) > tolerance) {
      last_outside = i;
      break;
    }
  }
  if (last_outside == v.size()) return tran.time.front();
  if (last_outside + 1 >= v.size()) return std::nullopt;  // never settles
  return tran.time[last_outside + 1];
}

}  // namespace oasys::sim
