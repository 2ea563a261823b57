#include "probe.h"

#include <chrono>
#include <complex>
#include <vector>

#include "numeric/linear.h"
#include "spice/dc.h"
#include "spice/mna.h"
#include "spice/small_signal.h"
#include "stats.h"
#include "synth/netlist_builder.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Timed calls per kernel; each figure is their median.
constexpr int kReps = 64;

// Median over kReps calls of the time `body` takes; `prepare` runs untimed
// before each call.
template <typename Prepare, typename Body>
double median_us(Prepare prepare, Body body) {
  std::vector<double> us;
  us.reserve(kReps);
  for (int i = 0; i < kReps; ++i) {
    prepare();
    const auto t0 = Clock::now();
    body();
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0)
                     .count());
  }
  return median(std::move(us));
}

}  // namespace

ProbeResult probe_design(const oasys::synth::OpAmpDesign& design,
                         const oasys::tech::Technology& t) {
  namespace ckt = oasys::ckt;
  namespace sim = oasys::sim;
  namespace num = oasys::num;
  ProbeResult r;

  ckt::Circuit c;
  const oasys::synth::BuiltOpAmp nodes = oasys::synth::build_opamp(design, t, c);
  c.add_vsource("VDD", nodes.vdd, ckt::kGround, ckt::Waveform::dc(t.vdd));
  c.add_vsource("VSS", nodes.vss, ckt::kGround, ckt::Waveform::dc(t.vss));
  const double vcm = design.spec.icmr_lo != 0.0 || design.spec.icmr_hi != 0.0
                         ? 0.5 * (design.spec.icmr_lo + design.spec.icmr_hi)
                         : t.mid_supply();
  c.add_vsource("VIP", nodes.inp, ckt::kGround, ckt::Waveform::ac(vcm, 0.5, 0.0));
  c.add_vsource("VIN", nodes.inn, ckt::kGround,
                ckt::Waveform::ac(vcm, 0.5, 180.0));
  if (design.spec.cload > 0.0) {
    c.add_capacitor("CL", nodes.out, ckt::kGround, design.spec.cload);
  }
  const sim::OpResult op = sim::dc_operating_point(c, t);
  if (!op.converged) return r;

  const sim::NonlinearSystem sys(c, t);
  const std::size_t n = sys.layout().size();
  r.mna_size = n;
  r.devices = c.mosfets().size();

  sim::DeviceTable table;
  sys.build_device_table(&table);
  sim::NonlinearSystem::EvalOptions eo;
  eo.device_eval = sim::DeviceEval::kBatch;
  num::RealMatrix jac;
  std::vector<double> f;
  r.eval_us = median_us(
      [] {}, [&] { sys.eval(op.solution, eo, &jac, &f, nullptr, &table); });

  num::RealMatrix work;
  num::LuFactors<double> lu;
  r.lu_factor_real_us = median_us(
      [&] { work = jac; }, [&] { num::lu_factor_in_place(&work, &lu); });
  if (lu.singular) return r;
  std::vector<double> rhs;
  r.lu_solve_real_us = median_us(
      [&] { rhs = f; }, [&] { num::lu_solve_in_place(lu, &rhs); });

  // Small-signal system at the unity-gain neighbourhood (1 MHz).
  num::RealMatrix g;
  num::RealMatrix cap;
  sim::build_small_signal_matrices(c, sys.layout(), op, &g, &cap);
  num::ComplexMatrix y(n, n);
  num::LuFactors<std::complex<double>> ylu;
  r.lu_factor_complex_us = median_us(
      [&] {
        y = num::ComplexMatrix(n, n);
        sim::fill_complex_mna(y.data(), g.data(), cap.data(), 2.0e6 * M_PI,
                              n * n);
      },
      [&] { num::lu_factor_in_place(&y, &ylu); });
  if (ylu.singular) return r;
  std::vector<std::complex<double>> yrhs;
  r.lu_solve_complex_us = median_us(
      [&] { yrhs.assign(n, std::complex<double>(1.0, 0.0)); },
      [&] { num::lu_solve_in_place(ylu, &yrhs); });
  r.ok = true;
  return r;
}

}  // namespace perfbench
