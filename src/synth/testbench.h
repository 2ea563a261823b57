// Op-amp verification testbench: closes a synthesized design through the
// circuit simulator and measures the same performance axes the spec
// constrains.  This replaces the paper's external SPICE runs (Table 2
// right-hand columns, Figure 6).
//
// Measurements performed:
//  * systematic input offset — bisection on the differential input until
//    the output sits at mid-supply (open loop, DC);
//  * open-loop AC response at the offset-nulled bias — DC gain, unity-gain
//    frequency (GBW), phase margin, -3 dB bandwidth, full Bode series;
//  * CMRR and PSRR — common-mode and supply-injection AC runs;
//  * output swing — DC solutions at large differential overdrive;
//  * slew rate — unity-gain follower driven with a voltage step;
//  * ICMR — unity-gain follower DC sweep, tracking-error window;
//  * quiescent power and per-device saturation check at the operating
//    point.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/spec.h"
#include "spice/measure.h"
#include "spice/noise.h"
#include "spice/tran.h"
#include "spice/workspace.h"
#include "synth/netlist_builder.h"
#include "synth/opamp_design.h"
#include "tech/technology.h"

namespace oasys::synth {

struct MeasureOptions {
  double ac_fmin = 1.0;        // Hz
  double ac_fmax = 1e9;        // Hz
  std::size_t ac_points = 121;
  double swing_overdrive = 0.5;    // differential drive for swing [V]
  double icmr_track_tol = 0.1;     // follower tracking error window [V]
  std::size_t icmr_points = 41;
  double step_amplitude = 1.0;     // follower step for slew [V]
  bool measure_slew = true;        // transient run is the slow part
  bool measure_icmr = true;
  bool measure_noise = true;
  std::size_t noise_points = 25;
  // Threads for the AC frequency fan-out (0 = exec::default_jobs(),
  // 1 = serial).  Measured numbers are identical at every setting.
  std::size_t jobs = 0;
};

struct MeasuredOpAmp {
  bool ok = false;
  std::string error;

  core::OpAmpPerformance perf;     // measured values
  sim::BodeSeries bode;            // open-loop differential response
  sim::NoiseResult noise;          // output-referred noise spectrum
  // Input-referred noise density series (output PSD over |H|^2) [V/rtHz].
  std::vector<double> input_noise_density;
  double offset_applied = 0.0;     // differential bias used for AC [V]
  // Devices not in saturation at the nulled operating point (mirrors and
  // diodes are expected to saturate; anything here deserves a look).
  std::vector<std::string> non_saturated;
};

// Open-loop measurement fixture: supplies, differential input sources
// around the spec's common-mode midpoint (each carrying half of a unit
// differential AC drive), and the load.  The one fixture every open-loop
// measurement uses: measure_opamp and the yield samples.
struct OpenLoopBench {
  ckt::Circuit circuit;
  BuiltOpAmp nodes;
  std::size_t vip_idx = 0;
  std::size_t vin_idx = 0;
  std::size_t vdd_idx = 0;
  double vcm = 0.0;

  OpenLoopBench(const OpAmpDesign& d, const tech::Technology& t);

  // Drives the inputs at vcm +/- vid/2.
  void set_vid(double vid);
};

// Output null of an open-loop bench, plus the operating point there.
struct OutputNull {
  enum class Failure { kNone, kNoNull, kDcAtNull };
  Failure failure = Failure::kNone;
  double vid = 0.0;
  sim::OpResult op;  // converged operating point at vid (when ok())

  bool ok() const { return failure == Failure::kNone; }
};

// Where find_output_null starts: a drive, and solver options whose
// initial_guess is the operating point at (or near) that drive.
struct NullWarmStart {
  double vid = 0.0;
  sim::OpOptions opts;
};

// Output null for repeated measurements of perturbed copies of one design
// (the yield samples), warm-started from a known null:
// with the bench driven at start.vid, one bordered Newton solve
// (sim::dc_output_null) from start.opts; if that fails, the offset search
// (measure_opamp's bracket + bisection) from the same initial guess
// (counted in yield.null.fallbacks).  One
// plain solve at the found vid then gives the operating point.
// start.opts tunes the bordered solve; the safeguard and the final solve
// use the solver defaults, as measure_opamp does.
OutputNull find_output_null(OpenLoopBench& bench, const tech::Technology& t,
                            const NullWarmStart& start,
                            sim::SimWorkspace* ws = nullptr);

// The warm start every perturbed copy of `bench` shares: the null of the
// unperturbed bench, found from its plain operating point at zero drive
// (or from what part of that succeeded).  Computed once, before any
// sample, so no solver state passes between samples.
NullWarmStart nominal_output_null(const OpenLoopBench& bench,
                                  const tech::Technology& t);

// Lowest AC frequency for an open-loop sweep of `design`: `fmin`, lowered
// to a decade-plus below the dominant pole estimated from the predicted
// gain and GBW, so the first sample still reads the DC gain and the phase
// reference.
double open_loop_fmin(const OpAmpDesign& design, double fmin);

// DC gain, unity-gain frequency and phase margin of the bench at `op`, for
// repeated measurements: a 25-point log sweep from `fmin` to 1 GHz, then
// the first 0 dB crossing refined by sim::loop_metrics_refined with
// single-point solves on the same stamps (at most 31 points in all).
// nullopt when the AC analysis fails.
std::optional<sim::LoopMetrics> open_loop_metrics(const OpenLoopBench& bench,
                                                  const sim::OpResult& op,
                                                  double fmin);

// measure_opamp's slew fixture: the design as a unity-gain follower
// (output wired to the inverting input) into the spec's load, its
// non-inverting input driven by a pulse of `amplitude` about `vcm`.  The
// stimulus depends on the design alone, never on the time grid: each half
// period lasts t_half = 3*t_edge + 3*10/gbw (t_edge: the step's duration at
// the spec's slew, at least 0.1 V/us), and the pulse starts at 2e with
// rise and fall e = t_half/600.  `tran` spans both half periods with e as
// its step: the fixed engine's grid, the adaptive engine's first step.
struct SlewBench {
  ckt::Circuit circuit;
  ckt::NodeId out = ckt::kGround;
  sim::TranOptions tran;
};

SlewBench slew_bench(const OpAmpDesign& design, const tech::Technology& t,
                     double vcm, double gbw, double amplitude);

MeasuredOpAmp measure_opamp(const OpAmpDesign& design,
                            const tech::Technology& t,
                            const MeasureOptions& opts = {});

}  // namespace oasys::synth
