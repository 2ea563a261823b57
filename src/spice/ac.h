// Small-signal AC analysis.
//
// Linearizes every MOSFET at a previously computed DC operating point
// (conductances gm/gds/gmb in terminal form, Meyer gate capacitances, and
// junction capacitances at the bias), then solves the complex MNA system at
// each requested frequency.  Independent sources contribute their AC
// phasors; DC-only sources are AC shorts (V) or opens (I).  AcSystem keeps
// the linearized stamps so one operating point can be solved at any
// frequencies, swept or chosen point by point.
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "numeric/linear.h"
#include "spice/dc.h"

namespace oasys::sim {

struct AcResult {
  bool ok = false;
  std::string error;
  std::vector<double> freqs;  // Hz
  // Phasor solution per frequency point (raw unknown vectors).
  std::vector<std::vector<std::complex<double>>> solutions;

  std::complex<double> voltage(const MnaLayout& layout, std::size_t freq_idx,
                               ckt::NodeId n) const {
    return layout.voltage(solutions.at(freq_idx), n);
  }
};

// Per-caller scratch for single-point solves: one complex matrix and its
// factorization, reused by every point solved through it.
struct AcScratch {
  num::ComplexMatrix y;
  num::LuFactors<std::complex<double>> lu;
};

// The small-signal system of one circuit at one operating point: the G and
// C stamps and the AC excitation, built once and solved at any frequency.
// ac_analysis sweeps one; a caller that picks frequencies as it goes (a
// refined crossing) solves single points against the same stamps.
class AcSystem {
 public:
  // `op` must be a converged operating point for `c` (its devices carry
  // the linearized device stamps); otherwise error() is set and nothing
  // is stamped.
  AcSystem(const ckt::Circuit& c, const OpResult& op);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  const MnaLayout& layout() const { return layout_; }

  // Solves (G + j2pi f C) x = b at one frequency (> 0) into *x, using
  // `scratch` for the matrix and its factorization.  Returns false when
  // the matrix is singular.  Counts one sim.ac.points.
  bool solve(double f, AcScratch* scratch,
             std::vector<std::complex<double>>* x) const;

  // Solves every point of `freqs` (Hz, each > 0).  Points are independent
  // and run on up to `jobs` threads (0 = exec::default_jobs(),
  // 1 = serial); solutions land by point index, so the result is identical
  // at every jobs setting.  Counts one sim.ac.sweeps.
  AcResult sweep(const std::vector<double>& freqs, std::size_t jobs = 0) const;

 private:
  bool solve_point(double f, AcScratch* scratch,
                   std::vector<std::complex<double>>* x) const;

  MnaLayout layout_;
  std::string error_;
  num::RealMatrix g_;
  num::RealMatrix cap_;
  std::vector<std::complex<double>> rhs_;
};

// Runs AC analysis over `freqs`: AcSystem(c, op).sweep(freqs, jobs).
AcResult ac_analysis(const ckt::Circuit& c, const tech::Technology& t,
                     const OpResult& op, const std::vector<double>& freqs,
                     std::size_t jobs = 0);

}  // namespace oasys::sim
