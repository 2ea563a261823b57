// Measurement extraction from analysis results.
//
// These are circuit-agnostic: they turn an AC solution at one node into a
// Bode series and frequency-domain figures of merit (DC gain, unity-gain
// frequency, phase margin, bandwidth), and a transient edge into a slew
// rate.  Op-amp-specific testbench wiring lives in synth/testbench.h.
#pragma once

#include <complex>
#include <functional>
#include <optional>
#include <vector>

#include "spice/ac.h"
#include "spice/tran.h"

namespace oasys::sim {

// Magnitude (dB) and unwrapped phase (degrees) of one node's phasor across
// the AC sweep.  Phase unwrapping removes +/-360 jumps so the phase-margin
// interpolation is well defined.
struct BodeSeries {
  std::vector<double> freqs;      // Hz
  std::vector<double> gain_db;
  std::vector<double> phase_deg;  // unwrapped
};

BodeSeries bode_of_node(const AcResult& ac, const MnaLayout& layout,
                        ckt::NodeId node);

// Frequency-domain figures of merit of an open-loop gain response.
struct LoopMetrics {
  double dc_gain_db = 0.0;
  // Frequency where |H| crosses 0 dB; nullopt when gain never reaches 0 dB.
  std::optional<double> unity_gain_freq;
  // 180 + phase at the unity-gain frequency (stability margin).
  std::optional<double> phase_margin_deg;
  // -(gain dB) where phase crosses -180; nullopt if no crossing in range.
  std::optional<double> gain_margin_db;
  // -3 dB bandwidth relative to the DC gain.
  std::optional<double> bandwidth_3db;
};

// `bode` must start at a frequency low enough to represent DC behaviour.
LoopMetrics loop_metrics(const BodeSeries& bode);

// Loop metrics with the unity-gain crossing refined off the grid.  The
// first 0 dB crossing of `coarse` is bracketed by two samples; regula falsi
// (Illinois) on gain_db against log10 f narrows it, evaluating `response`
// — the node's phasor at a frequency, nullopt when that solve fails — up to
// 6 times and stopping once |gain_db| < 1e-7 dB.  The unity-gain frequency
// and the phase margin are read at the refined point, its phase unwrapped
// against the lower bracketing sample; every other figure is the coarse
// series' (loop_metrics).  nullopt when a refinement solve fails.
std::optional<LoopMetrics> loop_metrics_refined(
    const BodeSeries& coarse,
    const std::function<std::optional<std::complex<double>>(double)>&
        response);

// Maximum |dV/dt| of `node` over the transient, evaluated on the rising
// (positive) or falling (negative) excursion.  Returns nullopt for a
// waveform with < 2 samples.
struct SlewMeasurement {
  double rising = 0.0;   // max positive dV/dt [V/s]
  double falling = 0.0;  // max negative dV/dt magnitude [V/s]
};
std::optional<SlewMeasurement> slew_rate(const TranResult& tran,
                                         const MnaLayout& layout,
                                         ckt::NodeId node);

// Time at which `node` first remains within +/-tolerance of `target` until
// the end of the record (settling time); nullopt if it never settles.
std::optional<double> settling_time(const TranResult& tran,
                                    const MnaLayout& layout, ckt::NodeId node,
                                    double target, double tolerance);

}  // namespace oasys::sim
