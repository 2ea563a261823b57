#include "synth/testbench.h"

#include <algorithm>
#include <cmath>

#include "numeric/interpolate.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "numeric/rootfind.h"
#include "spice/ac.h"
#include "spice/dc.h"
#include "spice/sweep.h"
#include "spice/tran.h"
#include "util/units.h"

namespace oasys::synth {

namespace {

// Offset search by bracket + bisection on vid until the output sits at
// mid-supply (to 1e-9 V), every probe warm-started from the last
// converged one; *warm carries that chain in and out.  Returns nullopt —
// with *error naming the step that failed, when non-null — if no bracket
// is found or the bisection fails.  measure_opamp's search, and
// find_output_null's safeguard.
std::optional<double> bisect_output_null(OpenLoopBench& bench,
                                         const tech::Technology& t,
                                         std::vector<double>* warm,
                                         std::string* error,
                                         sim::SimWorkspace* ws) {
  const sim::MnaLayout layout(bench.circuit);
  const double mid = t.mid_supply();
  auto out_error = [&](double vid) {
    bench.set_vid(vid);
    sim::OpOptions o;
    o.initial_guess = *warm;
    const sim::OpResult op = sim::dc_operating_point(bench.circuit, t, o, ws);
    if (!op.converged) return std::nan("");
    *warm = op.solution;
    return op.voltage(layout, bench.nodes.out) - mid;
  };
  const auto bracket = num::bracket_root(out_error, -0.05, 0.05, 8);
  if (!bracket) {
    if (error != nullptr) {
      *error = "could not bracket the output null (offset search)";
    }
    return std::nullopt;
  }
  num::RootOptions root_opts;
  root_opts.xtol = 1e-9;
  const auto vid =
      num::bisect(out_error, bracket->first, bracket->second, root_opts);
  if (!vid && error != nullptr) *error = "offset bisection failed";
  return vid;
}

}  // namespace

OpenLoopBench::OpenLoopBench(const OpAmpDesign& d, const tech::Technology& t) {
  nodes = build_opamp(d, t, circuit);
  circuit.add_vsource("VDD", nodes.vdd, ckt::kGround,
                      ckt::Waveform::dc(t.vdd));
  circuit.add_vsource("VSS", nodes.vss, ckt::kGround,
                      ckt::Waveform::dc(t.vss));
  vcm = d.spec.icmr_lo != 0.0 || d.spec.icmr_hi != 0.0
            ? 0.5 * (d.spec.icmr_lo + d.spec.icmr_hi)
            : t.mid_supply();
  circuit.add_vsource("VIP", nodes.inp, ckt::kGround,
                      ckt::Waveform::ac(vcm, 0.5, 0.0));
  circuit.add_vsource("VIN", nodes.inn, ckt::kGround,
                      ckt::Waveform::ac(vcm, 0.5, 180.0));
  if (d.spec.cload > 0.0) {
    circuit.add_capacitor("CL", nodes.out, ckt::kGround, d.spec.cload);
  }
  vip_idx = *circuit.find_vsource("VIP");
  vin_idx = *circuit.find_vsource("VIN");
  vdd_idx = *circuit.find_vsource("VDD");
}

void OpenLoopBench::set_vid(double vid) {
  circuit.vsource(vip_idx).wave =
      circuit.vsource(vip_idx).wave.with_dc(vcm + 0.5 * vid);
  circuit.vsource(vin_idx).wave =
      circuit.vsource(vin_idx).wave.with_dc(vcm - 0.5 * vid);
}

OutputNull find_output_null(OpenLoopBench& bench, const tech::Technology& t,
                            const NullWarmStart& start,
                            sim::SimWorkspace* ws) {
  static obs::Counter& fallbacks =
      obs::Registry::global().counter("yield.null.fallbacks");
  OutputNull r;
  bench.set_vid(start.vid);
  sim::OutputNullBorder border;
  border.vip = bench.vip_idx;
  border.vin = bench.vin_idx;
  border.out = bench.nodes.out;
  border.target = t.mid_supply();
  // The null is read at the output, which amplifies an error left in the
  // input-side unknowns by the open-loop gain: converge the bordered
  // solve to 1e-9 V rather than the 1e-6 V default — one more quadratic
  // step, which puts the null within ~1e-14 V instead of ~1e-12 V.
  sim::OpOptions tight = start.opts;
  tight.vntol = std::min(start.opts.vntol, 1e-9);
  double shift = 0.0;
  sim::OpResult bordered =
      sim::dc_output_null(bench.circuit, t, border, &shift, tight, ws);
  sim::OpOptions at_null;
  if (bordered.converged) {
    r.vid = start.vid + shift;
    at_null.initial_guess = std::move(bordered.solution);
  } else {
    fallbacks.add();
    at_null.initial_guess = start.opts.initial_guess;
    const std::optional<double> vid =
        bisect_output_null(bench, t, &at_null.initial_guess, nullptr, ws);
    if (!vid) {
      r.failure = OutputNull::Failure::kNoNull;
      return r;
    }
    r.vid = *vid;
  }
  bench.set_vid(r.vid);
  r.op = sim::dc_operating_point(bench.circuit, t, at_null, ws);
  if (!r.op.converged) r.failure = OutputNull::Failure::kDcAtNull;
  return r;
}

NullWarmStart nominal_output_null(const OpenLoopBench& bench,
                                  const tech::Technology& t) {
  OpenLoopBench nominal = bench;
  NullWarmStart start;
  const sim::OpResult op = sim::dc_operating_point(nominal.circuit, t, {});
  if (op.converged) start.opts.initial_guess = op.solution;
  OutputNull null = find_output_null(nominal, t, start);
  if (null.ok()) {
    start.vid = null.vid;
    start.opts.initial_guess = std::move(null.op.solution);
  }
  return start;
}

double open_loop_fmin(const OpAmpDesign& design, double fmin) {
  if (design.predicted.gain_db > 0.0 && design.predicted.gbw > 0.0) {
    const double pole_est = design.predicted.gbw /
                            util::from_db20(design.predicted.gain_db);
    fmin = std::min(fmin, std::max(pole_est / 30.0, 1e-4));
  }
  return fmin;
}

std::optional<sim::LoopMetrics> open_loop_metrics(const OpenLoopBench& bench,
                                                  const sim::OpResult& op,
                                                  double fmin) {
  constexpr std::size_t kCoarsePoints = 25;
  constexpr double kFmax = 1e9;
  OBS_SPAN("sim/ac_analysis");
  const sim::AcSystem ac(bench.circuit, op);
  const sim::AcResult coarse =
      ac.sweep(num::logspace(fmin, kFmax, kCoarsePoints), 1);
  if (!coarse.ok) return std::nullopt;
  const ckt::NodeId out = bench.nodes.out;
  sim::AcScratch scratch;
  std::vector<std::complex<double>> x;
  return sim::loop_metrics_refined(
      sim::bode_of_node(coarse, ac.layout(), out),
      [&](double f) -> std::optional<std::complex<double>> {
        if (!ac.solve(f, &scratch, &x)) return std::nullopt;
        return ac.layout().voltage(x, out);
      });
}

SlewBench slew_bench(const OpAmpDesign& design, const tech::Technology& t,
                     double vcm, double gbw, double amplitude) {
  SlewBench sb;
  ckt::Circuit& fc = sb.circuit;
  // Wire the inverting input straight to the output: unity-gain buffer.
  sb.out = fc.node("out");
  const BuiltOpAmp fn = build_opamp(design, t, fc, sb.out);
  fc.add_vsource("VDD", fn.vdd, ckt::kGround, ckt::Waveform::dc(t.vdd));
  fc.add_vsource("VSS", fn.vss, ckt::kGround, ckt::Waveform::dc(t.vss));
  if (design.spec.cload > 0.0) {
    fc.add_capacitor("CL", fn.out, ckt::kGround, design.spec.cload);
  }
  const double slew_target =
      std::max(design.spec.slew_min, util::v_per_us(0.1));
  const double t_edge = amplitude / slew_target;
  const double t_settle = gbw > 0.0 ? 10.0 / gbw : t_edge;
  const double t_half = 3.0 * t_edge + 3.0 * t_settle;
  const double edge = t_half / 600.0;
  fc.add_vsource("VSTEP", fn.inp, ckt::kGround,
                 ckt::Waveform::pulse(vcm - 0.5 * amplitude,
                                      vcm + 0.5 * amplitude, 2.0 * edge,
                                      edge, edge, t_half, 2.0 * t_half));
  sb.tran.tstop = 2.0 * t_half;
  sb.tran.dt = edge;
  return sb;
}

MeasuredOpAmp measure_opamp(const OpAmpDesign& design,
                            const tech::Technology& t,
                            const MeasureOptions& opts) {
  static obs::Counter& measurements =
      obs::Registry::global().counter("synth.measurements");
  measurements.add();
  OBS_SPAN("synth/measure_opamp");
  MeasuredOpAmp m;
  OpenLoopBench bench(design, t);
  sim::MnaLayout layout(bench.circuit);
  const double mid = t.mid_supply();

  // --- systematic offset: null the output by bisection on vid -------------
  sim::OpOptions op_opts;
  std::vector<double> warm;
  const auto vid_null =
      bisect_output_null(bench, t, &warm, &m.error, nullptr);
  if (!vid_null) return m;
  m.offset_applied = *vid_null;
  m.perf.offset = std::abs(*vid_null);

  // --- operating point at the null ------------------------------------------
  bench.set_vid(*vid_null);
  sim::OpOptions null_opts = op_opts;
  null_opts.initial_guess = warm;
  const sim::OpResult op = sim::dc_operating_point(bench.circuit, t, null_opts);
  if (!op.converged) {
    m.error = "operating point at the offset null did not converge";
    return m;
  }
  m.perf.power = sim::supply_power(bench.circuit, layout, op);
  for (std::size_t k = 0; k < bench.circuit.mosfets().size(); ++k) {
    if (op.devices[k].region != mos::Region::kSaturation) {
      m.non_saturated.push_back(bench.circuit.mosfets()[k].name);
    }
  }

  // --- differential AC: gain, GBW, PM, Bode -----------------------------------
  // The sweep must start a decade-plus below the dominant pole or the "DC"
  // gain sample and the phase reference are already rolling off; estimate
  // the pole from the design's predicted gain and GBW.
  const double fmin = open_loop_fmin(design, opts.ac_fmin);
  const std::vector<double> freqs =
      num::logspace(fmin, opts.ac_fmax, opts.ac_points);
  const sim::AcResult ac =
      sim::ac_analysis(bench.circuit, t, op, freqs, opts.jobs);
  if (!ac.ok) {
    m.error = "AC analysis failed: " + ac.error;
    return m;
  }
  m.bode = sim::bode_of_node(ac, layout, bench.nodes.out);
  const sim::LoopMetrics lm = sim::loop_metrics(m.bode);
  m.perf.gain_db = lm.dc_gain_db;
  m.perf.gbw = lm.unity_gain_freq.value_or(0.0);
  m.perf.pm_deg = lm.phase_margin_deg.value_or(0.0);

  // --- noise: output spectrum referred to the input ---------------------------
  if (opts.measure_noise && m.perf.gbw > 0.0) {
    const double f_lo = std::max(1e3, m.perf.gbw * 1e-3);
    const double f_hi = m.perf.gbw;
    m.noise = sim::noise_analysis(
        bench.circuit, t, op, bench.nodes.out,
        num::logspace(f_lo, f_hi, opts.noise_points));
    if (m.noise.ok) {
      m.input_noise_density.resize(m.noise.freqs.size());
      for (std::size_t i = 0; i < m.noise.freqs.size(); ++i) {
        const double gain_db = num::interp_semilogx(
            m.bode.freqs, m.bode.gain_db, m.noise.freqs[i]);
        const double h = util::from_db20(gain_db);
        m.input_noise_density[i] =
            std::sqrt(m.noise.output_psd[i]) / std::max(h, 1e-12);
      }
      // White-region reference: a third of the unity-gain frequency.
      m.perf.noise_in = num::interp_semilogx(
          m.noise.freqs, m.input_noise_density, 0.3 * m.perf.gbw);
    }
  }

  // --- CMRR: drive both inputs in phase ---------------------------------------
  {
    bench.circuit.vsource(bench.vip_idx).wave =
        bench.circuit.vsource(bench.vip_idx).wave.with_ac(1.0, 0.0);
    bench.circuit.vsource(bench.vin_idx).wave =
        bench.circuit.vsource(bench.vin_idx).wave.with_ac(1.0, 0.0);
    const sim::AcResult accm =
        sim::ac_analysis(bench.circuit, t, op, {fmin});
    if (accm.ok) {
      const double acm =
          std::abs(accm.voltage(layout, 0, bench.nodes.out));
      if (acm > 0.0) {
        m.perf.cmrr_db = m.perf.gain_db - util::db20(acm);
      }
    }
  }
  // --- PSRR: inject on VDD ------------------------------------------------------
  {
    bench.circuit.vsource(bench.vip_idx).wave =
        bench.circuit.vsource(bench.vip_idx).wave.with_ac(0.0);
    bench.circuit.vsource(bench.vin_idx).wave =
        bench.circuit.vsource(bench.vin_idx).wave.with_ac(0.0);
    bench.circuit.vsource(bench.vdd_idx).wave =
        bench.circuit.vsource(bench.vdd_idx).wave.with_ac(1.0, 0.0);
    const sim::AcResult acps =
        sim::ac_analysis(bench.circuit, t, op, {fmin});
    if (acps.ok) {
      const double avdd =
          std::abs(acps.voltage(layout, 0, bench.nodes.out));
      if (avdd > 0.0) {
        m.perf.psrr_db = m.perf.gain_db - util::db20(avdd);
      }
    }
  }

  // --- output swing: large differential overdrive --------------------------------
  {
    sim::OpOptions o = op_opts;
    o.initial_guess = op.solution;
    bench.set_vid(*vid_null + opts.swing_overdrive);
    const sim::OpResult hi = sim::dc_operating_point(bench.circuit, t, o);
    bench.set_vid(*vid_null - opts.swing_overdrive);
    const sim::OpResult lo = sim::dc_operating_point(bench.circuit, t, o);
    if (hi.converged) {
      m.perf.swing_pos = hi.voltage(layout, bench.nodes.out) - mid;
    }
    if (lo.converged) {
      m.perf.swing_neg = mid - lo.voltage(layout, bench.nodes.out);
    }
    bench.set_vid(*vid_null);
  }

  // --- slew: the follower's transient step response --------------------------
  if (opts.measure_slew) {
    const SlewBench sb =
        slew_bench(design, t, bench.vcm, m.perf.gbw, opts.step_amplitude);
    const sim::OpResult fop = sim::dc_operating_point(sb.circuit, t);
    if (fop.converged) {
      const sim::TranResult tr = sim::transient(sb.circuit, t, fop, sb.tran);
      if (tr.ok) {
        const auto slew =
            sim::slew_rate(tr, sim::MnaLayout(sb.circuit), sb.out);
        if (slew) m.perf.slew = std::min(slew->rising, slew->falling);
      }
    }
  }

  // --- ICMR: the follower's tracking window -----------------------------------
  if (opts.measure_icmr) {
    ckt::Circuit ic;
    const ckt::NodeId iout = ic.node("out");
    const BuiltOpAmp in = build_opamp(design, t, ic, iout);
    ic.add_vsource("VDD", in.vdd, ckt::kGround, ckt::Waveform::dc(t.vdd));
    ic.add_vsource("VSS", in.vss, ckt::kGround, ckt::Waveform::dc(t.vss));
    if (design.spec.cload > 0.0) {
      ic.add_capacitor("CL", in.out, ckt::kGround, design.spec.cload);
    }
    ic.add_vsource("VCM", in.inp, ckt::kGround,
                   ckt::Waveform::dc(bench.vcm));
    const sim::MnaLayout ilayout(ic);
    const std::vector<double> points = num::linspace(
        t.vss + 0.3, t.vdd - 0.3, opts.icmr_points);
    const sim::DcSweepResult sweep =
        sim::dc_sweep_vsource(ic, t, "VCM", points);
    if (sweep.ok) {
      const std::vector<double> vout =
          sweep.node_voltages(ilayout, in.out);
      // Widest contiguous tracking window containing the mid common mode.
      double lo = bench.vcm, hi = bench.vcm;
      std::size_t mid_idx = 0;
      double best = 1e9;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (std::abs(points[i] - bench.vcm) < best) {
          best = std::abs(points[i] - bench.vcm);
          mid_idx = i;
        }
      }
      auto tracks = [&](std::size_t i) {
        return std::abs(vout[i] - points[i]) < opts.icmr_track_tol;
      };
      if (tracks(mid_idx)) {
        std::size_t i = mid_idx;
        while (i > 0 && tracks(i - 1)) --i;
        lo = points[i];
        i = mid_idx;
        while (i + 1 < points.size() && tracks(i + 1)) ++i;
        hi = points[i];
      }
      m.perf.icmr_lo = lo;
      m.perf.icmr_hi = hi;
    }
  }

  m.perf.area = design.predicted.area;  // area is a layout estimate
  m.ok = true;
  return m;
}

}  // namespace oasys::synth
