// DC operating-point analysis.
//
// Newton-Raphson on the MNA residual with voltage-step damping.  When plain
// Newton fails to converge, gmin stepping and then source stepping are
// attempted (the standard SPICE homotopies), each warm-starting from the
// previous continuation point.
//
// dc_output_null borders the same Newton iteration with one extra unknown
// (a differential input drive) and one extra equation (an output node at
// a target voltage), so an op amp's offset null is one solve, not a
// search.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "spice/mna.h"
#include "spice/workspace.h"

namespace oasys::sim {

struct OpOptions {
  int max_iterations = 200;
  double vntol = 1e-6;     // voltage-update convergence tolerance [V]
  double abstol = 1e-9;    // residual-current convergence tolerance [A]
  double gmin = 1e-12;     // floor shunt conductance, always present
  double vlimit_step = 0.6;  // max node-voltage change per Newton step [V]
  bool try_gmin_stepping = true;
  bool try_source_stepping = true;
  // Continuation (homotopy) tuning.  Defaults reproduce the classic SPICE
  // schedule; sweeps and corner runs can loosen or tighten them per call.
  double gmin_step_start = 1e-2;  // initial shunt for gmin stepping [S]
  double gmin_step_ratio = 0.1;   // per-step gmin multiplier, in (0, 1)
  double source_step_initial = 0.1;  // first source-scale increment
  double source_step_max = 0.25;     // increment growth cap after success
  double source_step_min = 1e-3;     // give up when increment falls below
  // Warm start (raw unknown vector from a previous OpResult); empty = flat.
  std::vector<double> initial_guess;
};

struct OpResult {
  bool converged = false;
  std::string strategy;  // "newton", "gmin-step", "source-step"
  int total_iterations = 0;
  std::vector<double> solution;  // raw unknown vector (see MnaLayout)
  std::vector<DeviceOp> devices;  // parallel to circuit.mosfets()

  // Convenience accessors (require the layout used to produce `solution`).
  double voltage(const MnaLayout& layout, ckt::NodeId n) const {
    return layout.voltage(solution, n);
  }
  double branch_current(const MnaLayout& layout,
                        std::size_t vsource_pos) const {
    return solution[layout.branch_index(vsource_pos)];
  }
};

// Computes the DC operating point.  Never throws on non-convergence; check
// result.converged.  When `workspace` is non-null its buffers are reused
// across every Newton strategy (and across calls, letting warm-started
// sweeps run allocation-free in the kernel loop); results are bit-for-bit
// identical with or without one.
OpResult dc_operating_point(const ckt::Circuit& c, const tech::Technology& t,
                            const OpOptions& opts = {},
                            SimWorkspace* workspace = nullptr);

// Output-null border: the extra unknown is a shift u of a differential
// drive — vsource `vip` raised by u/2 and `vin` lowered by u/2 from the
// DC values the circuit stamps — and the extra equation is
// V(out) = target.
struct OutputNullBorder {
  std::size_t vip = 0;
  std::size_t vin = 0;
  ckt::NodeId out = ckt::kGround;
  double target = 0.0;
};

// Bordered Newton for the output null.  Each iteration factors the
// Jacobian J once and solves both J a = -f and J s = -df/du with that one
// LU; the step is dx = a + s*du with du = (target - x_out - a_out)/s_out,
// and the voltage-step damping scales du with dx.  Plain Newton from
// opts.initial_guess only — no gmin or source continuation — so callers
// keep a safeguard for the failure case.  On convergence *shift holds u
// and result.solution the operating point at the shifted drive
// (result.devices is left empty).  Counts as one operating-point call.
OpResult dc_output_null(const ckt::Circuit& c, const tech::Technology& t,
                        const OutputNullBorder& border, double* shift,
                        const OpOptions& opts = {},
                        SimWorkspace* workspace = nullptr);

// Total power delivered by the independent sources at the operating point
// (positive = dissipated in the circuit).
double supply_power(const ckt::Circuit& c, const MnaLayout& layout,
                    const OpResult& op);

}  // namespace oasys::sim
