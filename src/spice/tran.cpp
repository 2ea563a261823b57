#include "spice/tran.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numeric/interpolate.h"
#include "numeric/linear.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "spice/workspace.h"

namespace oasys::sim {

namespace {

// Registry handles for the transient engine, resolved once per process.
struct TranMetrics {
  obs::Counter& runs = obs::Registry::global().counter("sim.tran.runs");
  obs::Counter& steps =
      obs::Registry::global().counter("sim.tran.steps_accepted");
  obs::Counter& iterations =
      obs::Registry::global().counter("sim.tran.newton_iterations");
  obs::Counter& rejections =
      obs::Registry::global().counter("sim.tran.step_rejections");
  obs::Counter& adaptive_steps =
      obs::Registry::global().counter("tran.adaptive.steps");
  obs::Counter& adaptive_rejects =
      obs::Registry::global().counter("tran.adaptive.rejects");
  // Smallest accepted adaptive step: a low-water gauge, merged with kMin so
  // the shard coordinator's aggregate is invariant to how requests were
  // partitioned across workers.
  obs::Gauge& adaptive_min_dt = obs::Registry::global().gauge(
      "tran.adaptive.min_dt", /*deterministic=*/true, obs::GaugeMerge::kMin);

  static TranMetrics& get() {
    static TranMetrics m;
    return m;
  }
};

}  // namespace

std::vector<double> TranResult::node_waveform(const MnaLayout& layout,
                                              ckt::NodeId n) const {
  std::vector<double> out;
  out.reserve(states.size());
  for (const auto& s : states) out.push_back(layout.voltage(s, n));
  return out;
}

double TranResult::voltage_at(const MnaLayout& layout, ckt::NodeId n,
                              double t) const {
  return num::interp_linear(time, node_waveform(layout, n), t);
}

namespace {

// Builds the capacitance matrix into `*cmat_out` (reused across timesteps):
// explicit capacitors plus device capacitances evaluated from `device_ops`
// (bias at the previous accepted time point).
void build_cap_matrix(const NonlinearSystem& sys,
                      const std::vector<DeviceOp>& device_ops,
                      num::RealMatrix* cmat_out) {
  const MnaLayout& layout = sys.layout();
  const std::size_t n = layout.size();
  num::RealMatrix& cmat = *cmat_out;
  if (cmat.rows() != n || cmat.cols() != n) {
    cmat = num::RealMatrix(n, n);
  } else {
    cmat.fill(0.0);  // stamp_linear_caps accumulates
  }
  sys.stamp_linear_caps(&cmat);
  auto add2 = [&](ckt::NodeId a, ckt::NodeId b, double value) {
    const int ia = layout.node_index(a);
    const int ib = layout.node_index(b);
    if (ia >= 0) cmat(static_cast<std::size_t>(ia),
                      static_cast<std::size_t>(ia)) += value;
    if (ib >= 0) cmat(static_cast<std::size_t>(ib),
                      static_cast<std::size_t>(ib)) += value;
    if (ia >= 0 && ib >= 0) {
      cmat(static_cast<std::size_t>(ia), static_cast<std::size_t>(ib)) -=
          value;
      cmat(static_cast<std::size_t>(ib), static_cast<std::size_t>(ia)) -=
          value;
    }
  };
  const auto& mosfets = sys.circuit().mosfets();
  for (std::size_t k = 0; k < mosfets.size(); ++k) {
    const auto& m = mosfets[k];
    const DeviceOp& d = device_ops[k];
    add2(m.g, m.s, d.cgs);
    add2(m.g, m.d, d.cgd);
    add2(m.g, m.b, d.cgb);
    add2(m.d, m.b, d.cdb);
    add2(m.s, m.b, d.csb);
  }
}

enum class StepStatus { kConverged, kNoConverge, kSingular };

// The first corner of any source waveform later than t + dt_min (corners
// closer than the minimum step are stepped over).
double next_source_corner(const ckt::Circuit& c, double t, double dt_min) {
  double corner = std::numeric_limits<double>::infinity();
  const auto visit = [&](const ckt::Waveform& w) {
    double b = w.next_breakpoint(t);
    while (b - t < dt_min) b = w.next_breakpoint(b);
    corner = std::min(corner, b);
  };
  for (const ckt::VSource& v : c.vsources()) visit(v.wave);
  for (const ckt::ISource& i : c.isources()) visit(i.wave);
  return corner;
}

// Length of the step after a source corner, as a fraction of the step
// before it.
constexpr double kRestartFraction = 0.1;

// Chord iterations allowed on one factorization before refactoring.
constexpr int kMaxChordReuses = 2;
// A chord update larger than this fraction of the previous one means the
// factored Jacobian no longer contracts well: refactor.
constexpr double kChordContraction = 0.25;

// The adaptive engine's Newton state, carried from step to step.
struct Chord {
  // Largest quadratic-convergence constant seen in the run: a Newton
  // update |dx| leaves an error of about quad * |dx|^2, measured as
  // |dx_1| / |dx_0|^2 whenever a step iterates twice (0 = not measured).
  double quad = 0.0;
  // Receives the device operating points of every evaluation.
  std::vector<DeviceOp>* device_ops = nullptr;
};

// One implicit step of size h ending at `time`, shared by both stepping
// strategies: a Newton solve of the companion-model system.  `*x_io`
// carries the initial guess in and the solution out (left mid-iteration on
// failure — callers retry from a fresh copy).
//
// Without `chord` every iteration assembles and factors the Jacobian: the
// exact fixed-step reference sequence, so the fixed path stays
// bit-identical to what it always produced.  With `chord` (the adaptive
// engine) it is a bounded chord iteration: the first iteration factors,
// later ones reuse that factorization (the Jacobian is not even
// assembled) until it has served kMaxChordReuses solves or an update fails
// to contract by kChordContraction.  And a first update that chord->quad
// puts below vntol converges at once, so a step whose predictor is good
// costs one evaluation.
struct StepContext {
  NonlinearSystem& sys;
  SimWorkspace& ws;
  const num::RealMatrix& cmat;
  const TranOptions& opts;
  std::size_t n;
  std::size_t nv;

  StepStatus solve(double time, double h, bool trapezoidal,
                   const std::vector<double>& x_prev,
                   const std::vector<double>& dvdt_prev,
                   std::vector<double>* x_io, Chord* chord = nullptr) const {
    TranMetrics& metrics = TranMetrics::get();
    std::vector<double>& x = *x_io;
    num::RealMatrix& jac = ws.jac;
    std::vector<double>& f = ws.residual;
    std::vector<double>& dx = ws.step;

    NonlinearSystem::EvalOptions eval_opts;
    eval_opts.gmin = opts.gmin;
    eval_opts.time = time;
    eval_opts.device_eval = DeviceEval::kBatch;

    // Companion coefficients.  i_C = C dv/dt.  Backward Euler:
    // i = C (x - x_prev)/h.  Trapezoidal: i = 2C/h (x - x_prev) - C*dvdt_prev.
    const double a = trapezoidal ? 2.0 / h : 1.0 / h;
    int reuses = kMaxChordReuses;  // forces a factorization first
    double dv_first = 0.0;
    double dv_prev = 0.0;
    for (int iter = 0; iter < opts.max_newton; ++iter) {
      metrics.iterations.add();
      const bool factor = chord == nullptr || reuses >= kMaxChordReuses;
      sys.eval(x, eval_opts, factor ? &jac : nullptr, &f,
               chord != nullptr ? chord->device_ops : nullptr, &ws.devices);
      // Add capacitive currents: f += C*(a*(x - x_prev)) - hist
      // where hist = C*dvdt_prev for trapezoidal, 0 for BE.
      for (std::size_t r = 0; r < n; ++r) {
        double acc = 0.0;
        const double* crow = cmat.row(r);
        for (std::size_t col = 0; col < n; ++col) {
          const double cv = crow[col];
          if (cv == 0.0) continue;
          acc += cv * a * (x[col] - x_prev[col]);
          if (trapezoidal) acc -= cv * dvdt_prev[col];
          if (factor) jac(r, col) += cv * a;
        }
        f[r] += acc;
      }
      if (factor) {
        num::lu_factor_in_place(&jac, &ws.lu);
        if (ws.lu.singular) return StepStatus::kSingular;
        reuses = 0;
      } else {
        ++reuses;
      }
      dx.resize(n);
      for (std::size_t i = 0; i < n; ++i) dx[i] = -f[i];
      num::lu_solve_in_place(ws.lu, &dx);
      double max_dv = 0.0;
      for (std::size_t i = 0; i < nv; ++i) {
        max_dv = std::max(max_dv, std::abs(dx[i]));
      }
      double scale = 1.0;
      if (max_dv > opts.vlimit_step) scale = opts.vlimit_step / max_dv;
      for (std::size_t i = 0; i < n; ++i) x[i] += scale * dx[i];
      if (chord != nullptr && iter == 0 && scale == 1.0) {
        dv_first = max_dv;
        if (chord->quad > 0.0 && chord->quad * max_dv * max_dv < opts.vntol) {
          return StepStatus::kConverged;
        }
      } else if (chord != nullptr && iter == 1 && dv_first > 0.0) {
        chord->quad = std::max(chord->quad, max_dv / (dv_first * dv_first));
      }
      if (max_dv < opts.vntol) return StepStatus::kConverged;
      if (!factor && max_dv > kChordContraction * dv_prev) {
        reuses = kMaxChordReuses;
      }
      dv_prev = max_dv;
    }
    return StepStatus::kNoConverge;
  }
};

}  // namespace

TranResult transient(const ckt::Circuit& c, const tech::Technology& t,
                     const OpResult& op, const TranOptions& opts) {
  TranMetrics& metrics = TranMetrics::get();
  metrics.runs.add();
  OBS_SPAN("sim/transient");
  TranResult result;
  if (!op.converged) {
    result.error = "initial operating point did not converge";
    return result;
  }
  if (!(opts.tstop > 0.0) || !(opts.dt > 0.0)) {
    result.error = "tstop and dt must be positive";
    return result;
  }

  NonlinearSystem sys(c, t);
  const MnaLayout& layout = sys.layout();
  const std::size_t n = layout.size();
  const std::size_t nv = layout.num_node_unknowns();

  std::vector<double> x = op.solution;
  std::vector<DeviceOp> device_ops = op.devices;
  if (device_ops.size() != c.mosfets().size()) {
    device_ops.assign(c.mosfets().size(), DeviceOp{});
  }

  result.time.push_back(0.0);
  result.states.push_back(x);

  num::RealMatrix cmat;
  build_cap_matrix(sys, device_ops, &cmat);
  std::vector<double> dvdt_prev(n, 0.0);  // starts from DC: dv/dt = 0

  // One workspace for every Newton iteration of every timestep: after the
  // first iteration the stepping loop allocates only the accepted states.
  SimWorkspace ws;
  sys.build_device_table(&ws.devices);

  const StepContext ctx{sys, ws, cmat, opts, n, nv};

  if (resolve_tran_mode(opts.mode) == TranMode::kFixed) {
    NonlinearSystem::EvalOptions refresh_opts;
    refresh_opts.gmin = opts.gmin;
    refresh_opts.device_eval = DeviceEval::kBatch;
    std::size_t step = 0;
    while (result.time.back() < opts.tstop) {
      ++step;
      double time = static_cast<double>(step) * opts.dt;
      // Shortened (or snapped) final step: the last sample lands exactly
      // on tstop even when tstop is not an integer multiple of dt.
      if (time >= opts.tstop) time = opts.tstop;
      const double h = time - result.time.back();
      if (h <= 0.0) break;
      const StepStatus status = ctx.solve(time, h, opts.trapezoidal,
                                          result.states.back(), dvdt_prev, &x);
      if (status == StepStatus::kSingular) {
        result.error = "singular transient Jacobian";
        return result;
      }
      if (status == StepStatus::kNoConverge) {
        // The fixed-step integrator has no retry-with-smaller-h path, so a
        // rejected step ends the run; the counter still attributes the
        // failure mode.
        metrics.rejections.add();
        result.error = "transient Newton failed at t=" + std::to_string(time);
        return result;
      }
      // Accept: trapezoidal history update, device-capacitance refresh at
      // the new bias, and the new sample.
      if (opts.trapezoidal) {
        const std::vector<double>& x_prev = result.states.back();
        for (std::size_t i = 0; i < n; ++i) {
          dvdt_prev[i] = 2.0 / h * (x[i] - x_prev[i]) - dvdt_prev[i];
        }
      }
      refresh_opts.time = time;
      sys.eval(x, refresh_opts, nullptr, nullptr, &device_ops, &ws.devices);
      build_cap_matrix(sys, device_ops, &cmat);
      result.time.push_back(time);
      result.states.push_back(x);
      metrics.steps.add();
    }
    result.ok = true;
    return result;
  }

  // ---- Adaptive: one chord-Newton solve per step ----------------------------
  //
  // Each candidate step is solved once.  Its initial guess is the linear
  // extrapolation of the last two accepted states, and the difference
  // between the converged solution and that prediction is the local-error
  // estimate (Milne's device): the extrapolation errs by
  // h*(h + h_prev)/2 * x'', so scaling the difference by h/(h + h_prev)
  // measures the first-order error h^2/2 * x'' per node voltage, weighed
  // against atol + rtol*|x|.  Steps land exactly on every source corner;
  // the step after a corner restarts the history with a short
  // backward-Euler step, which damps the trapezoidal ringing a kink would
  // otherwise excite.  The loop is serial with deterministic branching, so
  // repeated runs are bit-identical regardless of thread counts anywhere
  // else in the stack.
  OBS_SPAN("tran/adaptive");
  const TranTolerance defaults = tran_tolerance_default();
  const double rtol = opts.rtol > 0.0 ? opts.rtol : defaults.rtol;
  const double atol = opts.atol > 0.0 ? opts.atol : defaults.atol;
  const double dt_min = opts.dt_min > 0.0 ? opts.dt_min : opts.tstop * 1e-12;
  const double dt_max = opts.dt_max > 0.0 ? opts.dt_max : opts.tstop / 8.0;
  double h = std::clamp(opts.dt, dt_min, dt_max);
  double norm_prev = 1.0;
  int consecutive_rejects = 0;
  // Index of the sample the history restarted at (t = 0 or the last
  // corner); the predictor uses only samples from there on.
  std::size_t restart = 0;
  double corner = next_source_corner(c, 0.0, dt_min);
  Chord chord;
  chord.device_ops = &device_ops;
  std::vector<double> x_pred(n);
  while (result.time.back() < opts.tstop) {
    const std::size_t last = result.time.size() - 1;
    const double t_prev = result.time[last];
    if (corner <= t_prev) {
      // Landed on a corner: restart the history there.  The restart step
      // is the one step without an error estimate, so it is kept to a
      // small fraction of the last step (and of the run to the next
      // corner); its backward-Euler error shrinks with its square.
      restart = last;
      const double h_last = t_prev - result.time[last - 1];
      corner = next_source_corner(c, t_prev, dt_min);
      h = std::max(dt_min, std::min(h, kRestartFraction *
                                           std::min(h_last, corner - t_prev)));
    }
    const double limit = std::min(opts.tstop, corner);
    double time = t_prev + h;
    // Exact landing on the corner (or tstop); a sliver short of it is
    // split evenly over two steps instead of left as a tiny third.
    if (time >= limit) {
      time = limit;
    } else if (limit - time < 0.5 * h) {
      time = t_prev + 0.5 * (limit - t_prev);
    }
    const double h_try = time - t_prev;
    if (h_try <= 0.0) break;  // cannot advance in double precision

    const std::vector<double>& x_prev = result.states[last];
    const bool first = last == restart;
    double h_hist = 0.0;
    if (first) {
      x_pred = x_prev;
    } else {
      const std::vector<double>& x_back = result.states[last - 1];
      h_hist = t_prev - result.time[last - 1];
      const double r = h_try / h_hist;
      for (std::size_t i = 0; i < n; ++i) {
        x_pred[i] = x_prev[i] + r * (x_prev[i] - x_back[i]);
      }
    }
    x = x_pred;
    const StepStatus status =
        ctx.solve(time, h_try, !first, x_prev, dvdt_prev, &x, &chord);
    if (status == StepStatus::kSingular) {
      result.error = "singular transient Jacobian";
      return result;
    }
    // The restart step has no history to predict from; its length is
    // bounded instead (see above).
    double err_norm = 0.0;
    if (status == StepStatus::kConverged && !first) {
      const double scale = h_try / (h_try + h_hist);
      for (std::size_t i = 0; i < nv; ++i) {
        const double err = scale * std::abs(x[i] - x_pred[i]);
        const double weight = atol + rtol * std::abs(x[i]);
        err_norm = std::max(err_norm, err / weight);
      }
    }

    if (status == StepStatus::kConverged && err_norm <= 1.0) {
      // Derivative history: backward Euler's after a restart step (the
      // trapezoidal history starts over), trapezoidal's otherwise.
      for (std::size_t i = 0; i < n; ++i) {
        dvdt_prev[i] = first ? (x[i] - x_prev[i]) / h_try
                             : 2.0 / h_try * (x[i] - x_prev[i]) - dvdt_prev[i];
      }
      // Capacitances at the last evaluated bias, one small Newton update
      // from the solution: no extra evaluation per step.
      build_cap_matrix(sys, device_ops, &cmat);
      result.time.push_back(time);
      result.states.push_back(x);
      metrics.steps.add();
      metrics.adaptive_steps.add();
      metrics.adaptive_min_dt.set_min(h_try);
      consecutive_rejects = 0;
      if (first) continue;  // no estimate: keep h for the first predicted step
      // PI controller: grow on a small error estimate, damped by the
      // previous step's error so the step size doesn't oscillate.
      const double norm = std::max(err_norm, 1e-10);
      const double factor = std::clamp(
          0.9 * std::pow(norm, -0.35) * std::pow(norm_prev, 0.2), 0.2, 5.0);
      norm_prev = norm;
      h = std::clamp(h_try * factor, dt_min, dt_max);
    } else {
      metrics.adaptive_rejects.add();
      ++consecutive_rejects;
      if (consecutive_rejects > opts.max_step_rejects) {
        result.error = "adaptive transient gave up after " +
                       std::to_string(consecutive_rejects) +
                       " consecutive step rejections at t=" +
                       std::to_string(time);
        return result;
      }
      // Error too large: shrink by the estimate.  Newton failure: the step
      // was far too big for the nonlinearity — quarter it.
      const double factor =
          status == StepStatus::kConverged
              ? std::clamp(0.9 * std::pow(std::max(err_norm, 1e-10), -0.5),
                           0.1, 0.5)
              : 0.25;
      h = h_try * factor;
      if (h < dt_min) {
        result.error =
            "adaptive transient step underflow at t=" + std::to_string(time);
        return result;
      }
    }
  }
  result.ok = true;
  return result;
}

}  // namespace oasys::sim
