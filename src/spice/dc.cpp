#include "spice/dc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/linear.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace oasys::sim {

namespace {

// Registry handles for the DC solver, resolved once per process.
struct DcMetrics {
  obs::Counter& solves = obs::Registry::global().counter("sim.newton.solves");
  obs::Counter& iterations =
      obs::Registry::global().counter("sim.newton.iterations");
  obs::Counter& nonconverged =
      obs::Registry::global().counter("sim.newton.nonconverged");
  obs::Counter& op_calls = obs::Registry::global().counter("sim.op.calls");
  obs::Counter& gmin_escalations =
      obs::Registry::global().counter("sim.op.gmin_escalations");
  obs::Counter& source_escalations =
      obs::Registry::global().counter("sim.op.source_escalations");
  obs::Counter& op_failures =
      obs::Registry::global().counter("sim.op.nonconverged");
  obs::Histogram& iters_per_op = obs::Registry::global().count_histogram(
      "sim.op.iterations_per_solve",
      obs::Histogram::exponential_bounds(1.0, 512.0, 2.0));

  static DcMetrics& get() {
    static DcMetrics m;
    return m;
  }
};

// Output-null border of one Newton solve (see dc_output_null): the MNA
// rows of the two driven branches and of the output node, the target,
// and the running drive shift u.
struct Border {
  std::size_t vip_row = 0;
  std::size_t vin_row = 0;
  std::size_t out_row = 0;
  double target = 0.0;
  double u = 0.0;

  // The circuit stamps the unshifted drive; move its branch residuals to
  // the shifted one: f_vip -= u/2, f_vin += u/2.
  void shift_residual(std::vector<double>* f) const {
    (*f)[vip_row] -= 0.5 * u;
    (*f)[vin_row] += 0.5 * u;
  }
};

// One Newton solve at fixed (source_scale, gmin).  Returns true on
// convergence; x is updated in place with the best iterate either way.
// All scratch lives in `ws` — including the batch device table — so a
// warm iteration allocates nothing.  With
// a `border` the drive shift u is solved alongside x from the same LU
// factorization (one extra forward/back substitution per iteration).
bool newton_solve(const NonlinearSystem& sys, double source_scale,
                  double gmin, const OpOptions& opts, SimWorkspace* ws, std::vector<double>* x,
                  int* iterations_used, Border* border = nullptr) {
  DcMetrics& metrics = DcMetrics::get();
  metrics.solves.add();
  const std::size_t n = sys.layout().size();
  const std::size_t nv = sys.layout().num_node_unknowns();
  num::RealMatrix& jac = ws->jac;          // eval sizes and refills
  std::vector<double>& f = ws->residual;
  std::vector<double>& dx = ws->step;

  NonlinearSystem::EvalOptions eval_opts;
  eval_opts.source_scale = source_scale;
  eval_opts.gmin = gmin;
  eval_opts.device_eval = DeviceEval::kBatch;

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    ++*iterations_used;
    metrics.iterations.add();
    sys.eval(*x, eval_opts, &jac, &f, nullptr, &ws->devices);
    if (border != nullptr) border->shift_residual(&f);

    num::lu_factor_in_place(&jac, &ws->lu);
    if (ws->lu.singular) {
      metrics.nonconverged.add();
      return false;
    }
    // Newton step: J dx = -f, solved in place in the RHS buffer.
    dx.resize(n);
    for (std::size_t i = 0; i < n; ++i) dx[i] = -f[i];
    num::lu_solve_in_place(ws->lu, &dx);

    // Border: J s = -df/du (+1/2 on VIP's branch row, -1/2 on VIN's), then
    // the du that lands the linearized output on target.
    double du = 0.0;
    if (border != nullptr) {
      std::vector<double>& sens = ws->border;
      sens.assign(n, 0.0);
      sens[border->vip_row] = 0.5;
      sens[border->vin_row] = -0.5;
      num::lu_solve_in_place(ws->lu, &sens);
      const double s_out = sens[border->out_row];
      if (!std::isfinite(s_out) || s_out == 0.0) {
        metrics.nonconverged.add();
        return false;
      }
      du = (border->target - (*x)[border->out_row] - dx[border->out_row]) /
           s_out;
      for (std::size_t i = 0; i < n; ++i) dx[i] += sens[i] * du;
    }

    // Damping: cap the largest node-voltage change per iteration.  Branch
    // currents are left unscaled unless voltages needed scaling.
    double max_dv = 0.0;
    for (std::size_t i = 0; i < nv; ++i) {
      max_dv = std::max(max_dv, std::abs(dx[i]));
    }
    double scale = 1.0;
    if (max_dv > opts.vlimit_step) scale = opts.vlimit_step / max_dv;
    for (std::size_t i = 0; i < n; ++i) (*x)[i] += scale * dx[i];
    if (border != nullptr) border->u += scale * du;

    // Converged when the (undamped) voltage update and the residual are
    // both small.
    if (max_dv < opts.vntol) {
      sys.eval(*x, eval_opts, nullptr, &f, nullptr, &ws->devices);
      if (border != nullptr) border->shift_residual(&f);
      double max_node_residual = 0.0;
      for (std::size_t i = 0; i < nv; ++i) {
        max_node_residual = std::max(max_node_residual, std::abs(f[i]));
      }
      if (max_node_residual < opts.abstol) return true;
    }
  }
  metrics.nonconverged.add();
  return false;
}

// The warm start when it fits the system, a flat start otherwise.
std::vector<double> start_point(const OpOptions& opts, std::size_t n) {
  return opts.initial_guess.size() == n ? opts.initial_guess
                                        : std::vector<double>(n, 0.0);
}

}  // namespace

OpResult dc_operating_point(const ckt::Circuit& c, const tech::Technology& t,
                            const OpOptions& opts, SimWorkspace* workspace) {
  DcMetrics& metrics = DcMetrics::get();
  metrics.op_calls.add();
  OBS_SPAN("sim/dc_operating_point");
  NonlinearSystem sys(c, t);
  const std::size_t n = sys.layout().size();
  SimWorkspace local_ws;
  SimWorkspace* ws = workspace != nullptr ? workspace : &local_ws;
  // Workspaces may be reused across circuits, so the batch device table is
  // always rebuilt — a constant fill that allocates only when it grows.
  sys.build_device_table(&ws->devices);

  OpResult result;
  std::vector<double> x = start_point(opts, n);

  // Strategy 1: plain Newton.
  {
    std::vector<double> trial = x;
    int iters = 0;
    if (newton_solve(sys, 1.0, opts.gmin, opts, ws, &trial, &iters)) {
      result.converged = true;
      result.strategy = "newton";
      result.total_iterations = iters;
      result.solution = std::move(trial);
    } else {
      result.total_iterations += iters;
    }
  }

  // Strategy 2: gmin stepping, from strongly shunted to the floor.
  if (!result.converged && opts.try_gmin_stepping) {
    metrics.gmin_escalations.add();
    std::vector<double> trial(n, 0.0);
    bool ok = true;
    int iters = 0;
    for (double gmin = opts.gmin_step_start; gmin >= opts.gmin * 0.99;
         gmin *= opts.gmin_step_ratio) {
      if (!newton_solve(sys, 1.0, gmin, opts, ws, &trial, &iters)) {
        ok = false;
        break;
      }
    }
    if (ok && newton_solve(sys, 1.0, opts.gmin, opts, ws, &trial, &iters)) {
      result.converged = true;
      result.strategy = "gmin-step";
      result.solution = std::move(trial);
    }
    result.total_iterations += iters;
  }

  // Strategy 3: source stepping with adaptive increments.
  if (!result.converged && opts.try_source_stepping) {
    metrics.source_escalations.add();
    std::vector<double> trial(n, 0.0);
    double scale = 0.0;
    double step = opts.source_step_initial;
    bool ok = true;
    int iters = 0;
    while (scale < 1.0 && ok) {
      const double next = std::min(scale + step, 1.0);
      std::vector<double> attempt = trial;
      if (newton_solve(sys, next, opts.gmin, opts, ws, &attempt, &iters)) {
        trial = std::move(attempt);
        scale = next;
        step = std::min(step * 2.0, opts.source_step_max);
      } else {
        step *= 0.5;
        if (step < opts.source_step_min) ok = false;
      }
    }
    if (ok) {
      result.converged = true;
      result.strategy = "source-step";
      result.solution = std::move(trial);
    }
    result.total_iterations += iters;
  }

  metrics.iters_per_op.observe(static_cast<double>(result.total_iterations));
  if (result.converged) {
    // Final bookkeeping pass to capture per-device operating info.
    NonlinearSystem::EvalOptions eval_opts;
    eval_opts.gmin = opts.gmin;
    eval_opts.device_eval = DeviceEval::kBatch;
    sys.eval(result.solution, eval_opts, nullptr, nullptr, &result.devices,
             &ws->devices);
  } else {
    metrics.op_failures.add();
    result.solution = std::move(x);
  }
  return result;
}

OpResult dc_output_null(const ckt::Circuit& c, const tech::Technology& t,
                        const OutputNullBorder& border, double* shift,
                        const OpOptions& opts, SimWorkspace* workspace) {
  DcMetrics& metrics = DcMetrics::get();
  metrics.op_calls.add();
  OBS_SPAN("sim/dc_operating_point");
  NonlinearSystem sys(c, t);
  const MnaLayout& layout = sys.layout();
  const int out_row = layout.node_index(border.out);
  if (out_row < 0) {
    throw std::invalid_argument("output-null border on the ground node");
  }
  SimWorkspace local_ws;
  SimWorkspace* ws = workspace != nullptr ? workspace : &local_ws;
  sys.build_device_table(&ws->devices);

  Border b;
  b.vip_row = layout.branch_index(border.vip);
  b.vin_row = layout.branch_index(border.vin);
  b.out_row = static_cast<std::size_t>(out_row);
  b.target = border.target;
  OpResult result;
  result.solution = start_point(opts, layout.size());
  result.converged = newton_solve(sys, 1.0, opts.gmin, opts, ws,
                                  &result.solution, &result.total_iterations,
                                  &b);
  result.strategy = "newton";
  metrics.iters_per_op.observe(static_cast<double>(result.total_iterations));
  if (!result.converged) metrics.op_failures.add();
  *shift = b.u;
  return result;
}

double supply_power(const ckt::Circuit& c, const MnaLayout& layout,
                    const OpResult& op) {
  double power = 0.0;
  for (std::size_t k = 0; k < c.vsources().size(); ++k) {
    const auto& v = c.vsources()[k];
    const double vbranch = layout.voltage(op.solution, v.pos) -
                           layout.voltage(op.solution, v.neg);
    // Branch current flows pos -> neg through the source; the power the
    // source *delivers* is -V*I in this convention.
    const double i = op.solution[layout.branch_index(k)];
    power += -vbranch * i;
  }
  for (const auto& isrc : c.isources()) {
    const double va = layout.voltage(op.solution, isrc.a);
    const double vb = layout.voltage(op.solution, isrc.b);
    // Current I flows a -> b through the source; the source delivers
    // I*(vb - va) to the circuit (positive when pushing current into the
    // higher-potential node).
    power += isrc.wave.dc_value() * (vb - va);
  }
  return power;
}

}  // namespace oasys::sim
