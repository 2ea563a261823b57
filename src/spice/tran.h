// Transient analysis.
//
// Implicit integration (backward Euler or trapezoidal) with a Newton solve
// per time point.  Device capacitances are linearized at the start of each
// step (their bias dependence is weak compared to the channel current
// nonlinearity, which is handled fully by the Newton loop).  Used by the
// measurement layer for slew-rate and settling checks.
//
// Two stepping strategies (TranMode, see spice/sim_options.h):
//
//  - kAdaptive (the default): trapezoidal steps with one Newton solve
//    each.  The initial guess extrapolates the last two accepted states
//    linearly, and the converged solution's distance from that prediction
//    is the local-error estimate (Milne's device), scaled to the
//    first-order error h^2/2 * x'' and measured per node voltage against
//    atol + rtol*|x|.  So the piecewise-linear dense output is as accurate
//    as the samples.  Steps over the estimate are rejected and retried,
//    and a PI controller picks the next step size.  Steps land exactly on
//    every corner of the source waveforms (ckt::Waveform::next_breakpoint);
//    the history restarts there with a short backward-Euler step.  Newton
//    is a bounded chord iteration: one factorization per step, reused
//    while it contracts, and a step whose first update is small enough
//    converges without a second evaluation.  Serial and
//    branch-deterministic, so the output is bit-identical to itself across
//    repeats, --jobs settings, shard worker counts, and daemon-vs-local —
//    but only tolerance-equal to kFixed.
//  - kFixed: marches dt-sized steps with a shortened final step landing
//    exactly on tstop.  The permanent bitwise reference.
#pragma once

#include <string>
#include <vector>

#include "spice/dc.h"
#include "spice/sim_options.h"

namespace oasys::sim {

struct TranOptions {
  double tstop = 0.0;     // end time [s], > 0
  double dt = 0.0;        // fixed step / first adaptive step [s], > 0
  bool trapezoidal = true;  // false = backward Euler (fixed mode only)
  int max_newton = 60;
  double vntol = 1e-6;
  double gmin = 1e-12;
  double vlimit_step = 0.6;
  // Stepping strategy; kDefault resolves to the process-wide default
  // (tran_mode_default(), normally kAdaptive).
  TranMode mode = TranMode::kDefault;
  // Adaptive error tolerances; values <= 0 resolve to the process-wide
  // defaults (tran_tolerance_default()).
  double rtol = 0.0;
  double atol = 0.0;
  // Adaptive step bounds; values <= 0 derive from the run: dt_min =
  // tstop * 1e-12, dt_max = tstop / 8.
  double dt_min = 0.0;
  double dt_max = 0.0;
  // Consecutive step rejections before the adaptive run gives up.
  int max_step_rejects = 40;
};

struct TranResult {
  bool ok = false;
  std::string error;
  std::vector<double> time;  // sample instants, starting at t=0
  std::vector<std::vector<double>> states;  // raw unknown vector per sample

  double voltage(const MnaLayout& layout, std::size_t sample,
                 ckt::NodeId n) const {
    return layout.voltage(states.at(sample), n);
  }
  // Whole waveform of one node.
  std::vector<double> node_waveform(const MnaLayout& layout,
                                    ckt::NodeId n) const;
  // Dense output: one node's voltage at an arbitrary time, linearly
  // interpolated between samples (clamped to the simulated range).  Works
  // identically on the fixed grid and the non-uniform adaptive grid, so
  // waveform-derived metrics never depend on where the controller placed
  // its samples.
  double voltage_at(const MnaLayout& layout, ckt::NodeId n, double t) const;
};

// Integrates from the DC operating point `op` (computed with t=0 source
// values) to tstop.
TranResult transient(const ckt::Circuit& c, const tech::Technology& t,
                     const OpResult& op, const TranOptions& opts);

}  // namespace oasys::sim
