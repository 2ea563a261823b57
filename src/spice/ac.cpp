#include "spice/ac.h"

#include <cmath>

#include "exec/executor.h"
#include "numeric/linear.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "spice/small_signal.h"
#include "util/units.h"

namespace oasys::sim {

namespace {

// Registry handles for the AC engine, resolved once per process.
struct AcMetrics {
  obs::Counter& sweeps = obs::Registry::global().counter("sim.ac.sweeps");
  obs::Counter& points = obs::Registry::global().counter("sim.ac.points");

  static AcMetrics& get() {
    static AcMetrics m;
    return m;
  }
};

}  // namespace

void build_small_signal_matrices(const ckt::Circuit& c,
                                 const MnaLayout& layout, const OpResult& op,
                                 num::RealMatrix* g_out,
                                 num::RealMatrix* cap_out) {
  const std::size_t n = layout.size();
  num::RealMatrix& g = *g_out;
  num::RealMatrix& cap = *cap_out;
  g = num::RealMatrix(n, n);
  cap = num::RealMatrix(n, n);

  auto add_g = [&](int r, int col, double v) {
    if (r >= 0 && col >= 0) {
      g(static_cast<std::size_t>(r), static_cast<std::size_t>(col)) += v;
    }
  };
  auto add_c2 = [&](ckt::NodeId a, ckt::NodeId b, double value) {
    const int ia = layout.node_index(a);
    const int ib = layout.node_index(b);
    if (ia >= 0) cap(static_cast<std::size_t>(ia),
                     static_cast<std::size_t>(ia)) += value;
    if (ib >= 0) cap(static_cast<std::size_t>(ib),
                     static_cast<std::size_t>(ib)) += value;
    if (ia >= 0 && ib >= 0) {
      cap(static_cast<std::size_t>(ia), static_cast<std::size_t>(ib)) -=
          value;
      cap(static_cast<std::size_t>(ib), static_cast<std::size_t>(ia)) -=
          value;
    }
  };

  // Tiny shunt keeps floating small-signal nodes non-singular.
  for (std::size_t i = 0; i < layout.num_node_unknowns(); ++i) {
    add_g(static_cast<int>(i), static_cast<int>(i), 1e-12);
  }

  for (const auto& r : c.resistors()) {
    const double gr = 1.0 / r.resistance;
    const int ia = layout.node_index(r.a);
    const int ib = layout.node_index(r.b);
    add_g(ia, ia, gr);
    add_g(ib, ib, gr);
    add_g(ia, ib, -gr);
    add_g(ib, ia, -gr);
  }
  for (const auto& cc : c.capacitors()) {
    add_c2(cc.a, cc.b, cc.capacitance);
  }
  for (std::size_t k = 0; k < c.vsources().size(); ++k) {
    const auto& v = c.vsources()[k];
    const int ip = layout.node_index(v.pos);
    const int in = layout.node_index(v.neg);
    const int ibr = static_cast<int>(layout.branch_index(k));
    add_g(ip, ibr, 1.0);
    add_g(in, ibr, -1.0);
    add_g(ibr, ip, 1.0);
    add_g(ibr, in, -1.0);
  }
  for (std::size_t k = 0; k < c.mosfets().size(); ++k) {
    const auto& m = c.mosfets()[k];
    const DeviceOp& d = op.devices[k];
    const int id_ = layout.node_index(m.d);
    const int ig = layout.node_index(m.g);
    const int is = layout.node_index(m.s);
    const int ib = layout.node_index(m.b);
    // Terminal-frame derivatives stamp directly as a 2-row VCCS block.
    add_g(id_, ig, d.di_dvg);
    add_g(id_, id_, d.di_dvd);
    add_g(id_, is, d.di_dvs);
    add_g(id_, ib, d.di_dvb);
    add_g(is, ig, -d.di_dvg);
    add_g(is, id_, -d.di_dvd);
    add_g(is, is, -d.di_dvs);
    add_g(is, ib, -d.di_dvb);
    // Capacitances at the bias point.
    add_c2(m.g, m.s, d.cgs);
    add_c2(m.g, m.d, d.cgd);
    add_c2(m.g, m.b, d.cgb);
    add_c2(m.d, m.b, d.cdb);
    add_c2(m.s, m.b, d.csb);
  }
}

AcSystem::AcSystem(const ckt::Circuit& c, const OpResult& op) : layout_(c) {
  if (!op.converged) {
    error_ = "operating point did not converge";
    return;
  }
  const std::size_t n = layout_.size();
  if (op.devices.size() != c.mosfets().size() || op.solution.size() != n) {
    error_ = "operating point does not match circuit";
    return;
  }
  build_small_signal_matrices(c, layout_, op, &g_, &cap_);

  // AC excitation vector (frequency independent).
  using Cplx = std::complex<double>;
  rhs_.assign(n, Cplx{});
  for (std::size_t k = 0; k < c.vsources().size(); ++k) {
    const auto& v = c.vsources()[k];
    if (v.wave.ac_mag() != 0.0) {
      const double ph = util::rad(v.wave.ac_phase_deg());
      rhs_[layout_.branch_index(k)] = std::polar(v.wave.ac_mag(), ph);
    }
  }
  for (const auto& i : c.isources()) {
    if (i.wave.ac_mag() == 0.0) continue;
    const double ph = util::rad(i.wave.ac_phase_deg());
    const Cplx phasor = std::polar(i.wave.ac_mag(), ph);
    const int ia = layout_.node_index(i.a);
    const int ib = layout_.node_index(i.b);
    // Current flows a -> b: it leaves node a, so the injection at a is -I.
    if (ia >= 0) rhs_[static_cast<std::size_t>(ia)] -= phasor;
    if (ib >= 0) rhs_[static_cast<std::size_t>(ib)] += phasor;
  }
}

// One frequency point from the shared G/C stamps: fills the scratch
// matrix, factors it, and solves in place into *x (resized only when its
// size differs, so a preallocated slot is reused).  The scratch is fully
// overwritten, so a result never depends on what the scratch saw before.
// Returns false when the matrix is singular.
bool AcSystem::solve_point(double f, AcScratch* ws,
                           std::vector<std::complex<double>>* x) const {
  const std::size_t n = layout_.size();
  const double w = util::kTwoPi * f;
  if (ws->y.rows() != n || ws->y.cols() != n) {
    ws->y = num::ComplexMatrix(n, n);
  }
  fill_complex_mna(ws->y.data(), g_.data(), cap_.data(), w, n * n);
  num::lu_factor_in_place(&ws->y, &ws->lu);
  if (ws->lu.singular) return false;
  *x = rhs_;  // copy into the caller's slot, no reallocation when sized
  num::lu_solve_in_place(ws->lu, x);
  return true;
}

bool AcSystem::solve(double f, AcScratch* scratch,
                     std::vector<std::complex<double>>* x) const {
  AcMetrics::get().points.add();
  return solve_point(f, scratch, x);
}

AcResult AcSystem::sweep(const std::vector<double>& freqs,
                         std::size_t jobs) const {
  AcMetrics& metrics = AcMetrics::get();
  metrics.sweeps.add();
  AcResult result;
  if (!ok()) {
    result.error = error_;
    return result;
  }
  for (const double f : freqs) {
    if (!(f > 0.0)) {
      result.error = "AC frequency must be positive";
      return result;
    }
  }

  // Every frequency point factors its own complex MNA matrix from the
  // shared G/C stamps — fully independent, so the points distribute over
  // `jobs` lanes with each solution landing in its own slot.  Each lane
  // reuses one scratch for all its points, and each point solves in place
  // into its preallocated solution slot, so the sweep loop is
  // allocation-free in steady state and bit-for-bit identical at every
  // jobs setting.
  using Cplx = std::complex<double>;
  metrics.points.add(freqs.size());
  result.freqs = freqs;
  result.solutions.assign(freqs.size(), std::vector<Cplx>(layout_.size()));
  std::vector<char> singular(freqs.size(), 0);
  std::vector<AcScratch> lanes(exec::lane_count(freqs.size(), jobs));
  exec::parallel_for_lanes(
      freqs.size(),
      [&](std::size_t i, std::size_t lane) {
        if (!solve_point(freqs[i], &lanes[lane], &result.solutions[i])) {
          singular[i] = 1;
        }
      },
      jobs);
  for (const char s : singular) {
    if (s) {
      result.solutions.clear();
      result.error = "singular AC matrix";
      return result;
    }
  }
  result.ok = true;
  return result;
}

AcResult ac_analysis(const ckt::Circuit& c, const tech::Technology& t,
                     const OpResult& op, const std::vector<double>& freqs,
                     std::size_t jobs) {
  OBS_SPAN("sim/ac_analysis");
  (void)t;  // the device stamps come from op.devices
  return AcSystem(c, op).sweep(freqs, jobs);
}

}  // namespace oasys::sim
