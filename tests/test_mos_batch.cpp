// Equivalence and derivative suite for the batched (SoA) MOS path.
//
// The batch kernel's contract is bit-for-bit identity with the scalar
// Level-1 reference (mos::evaluate_core), so every comparison here is
// EXPECT_EQ on doubles — no tolerances.  The suite covers the kernel
// itself over dense bias grids and exact region boundaries, the device
// table build (constants, mismatch, geometry validation), the full MNA
// eval (Jacobian, residual, DeviceOp capture) under every eval setting
// the analyses drive, the misuse guards, and the sim.device_eval.*
// counters.  The finite-difference tests at the bottom pin the *scalar*
// derivatives to the model's own current — the batch path inherits them
// through bitwise identity.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "mos/level1.h"
#include "mos/level1_batch.h"
#include "netlist/circuit.h"
#include "obs/metrics.h"
#include "spice/dc.h"
#include "spice/mna.h"
#include "spice/workspace.h"
#include "synth/oasys.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"
#include "util/units.h"

namespace oasys::mos {
namespace {

using tech::MosParams;
using tech::Technology;
using util::um;

const Technology& tech5() {
  static const Technology t = tech::five_micron();
  return t;
}

// Loads every grid point as one slot of a batch (same device constants in
// each slot), evaluates, and checks each slot against the scalar core.
void expect_batch_matches_scalar(const MosParams& p, const Geometry& g,
                                 double dvt,
                                 const std::vector<CoreBias>& biases) {
  CoreEvalBatch b;
  b.resize(biases.size());
  for (std::size_t i = 0; i < biases.size(); ++i) {
    b.load_device(i, p, g, dvt);
    b.vgs[i] = biases[i].vgs;
    b.vds[i] = biases[i].vds;
    b.vbs[i] = biases[i].vbs;
  }
  evaluate_core_batch(&b);

  MosParams eff = p;
  eff.vt0 += dvt;  // the scalar path's mismatch application
  for (std::size_t i = 0; i < biases.size(); ++i) {
    const CoreEval e = evaluate_core(eff, g, biases[i]);
    EXPECT_EQ(b.region_at(i), e.region) << "slot " << i;
    EXPECT_EQ(b.id[i], e.id) << "slot " << i;
    EXPECT_EQ(b.gm[i], e.gm) << "slot " << i;
    EXPECT_EQ(b.gds[i], e.gds) << "slot " << i;
    EXPECT_EQ(b.gmb[i], e.gmb) << "slot " << i;
    EXPECT_EQ(b.vth[i], e.vth) << "slot " << i;
    EXPECT_EQ(b.vov[i], e.vov) << "slot " << i;
    EXPECT_EQ(b.vdsat[i], e.vdsat) << "slot " << i;
  }
}

std::vector<CoreBias> dense_bias_grid() {
  std::vector<CoreBias> biases;
  for (double vgs = -1.0; vgs <= 6.0; vgs += 0.25) {
    for (double vds = 0.0; vds <= 5.0; vds += 0.25) {
      for (double vbs = -3.0; vbs <= 0.0; vbs += 0.5) {
        biases.push_back({vgs, vds, vbs});
      }
    }
  }
  return biases;
}

TEST(BatchCore, MatchesScalarOnDenseGridNmos) {
  expect_batch_matches_scalar(tech5().nmos, {um(50.0), um(5.0), 1}, 0.0,
                              dense_bias_grid());
}

TEST(BatchCore, MatchesScalarOnDenseGridPmosParams) {
  // The core is frame-agnostic; PMOS parameters exercise different
  // kp/gamma/lambda magnitudes through the same expressions.
  expect_batch_matches_scalar(tech5().pmos, {um(30.0), um(5.0), 1}, 0.0,
                              dense_bias_grid());
}

TEST(BatchCore, MatchesScalarWithMultiplicityAndMismatch) {
  expect_batch_matches_scalar(tech5().nmos, {um(20.0), um(10.0), 4}, 0.0,
                              dense_bias_grid());
  expect_batch_matches_scalar(tech5().nmos, {um(50.0), um(5.0), 1}, 7.5e-3,
                              dense_bias_grid());
}

TEST(BatchCore, MatchesScalarAtExactRegionBoundaries) {
  const MosParams& p = tech5().nmos;
  const Geometry g{um(50.0), um(5.0), 1};
  // vsb = 0 leaves vth == vt0 exactly, so these biases sit *on* the
  // region predicates, where a reordered comparison would flip a branch.
  const std::vector<CoreBias> biases = {
      {p.vt0 + 0.5, 0.5, 0.0},    // vds == vov: triode/saturation edge
      {p.vt0, 1.0, 0.0},          // vov == 0: cutoff edge
      {p.vt0 + 1e-15, 1.0, 0.0},  // one ulp-ish above threshold
      {p.vt0 + 0.5, 0.0, 0.0},    // vds == 0 in triode
      {p.vt0 + 0.5, 1.0, p.phi - 0.01},   // phi + vsb == kMinArg exactly
      {p.vt0 + 0.5, 1.0, p.phi - 0.005},  // clamped body-bias branch
      {p.vt0 + 0.5, 1.0, p.phi},          // arg clamps at zero vsb margin
  };
  expect_batch_matches_scalar(p, g, 0.0, biases);
}

TEST(BatchCore, MatchesScalarWhenBetaIsZero) {
  MosParams p = tech5().nmos;
  p.kp = 0.0;  // beta <= 0 forces cutoff regardless of bias
  expect_batch_matches_scalar(
      p, {um(50.0), um(5.0), 1}, 0.0,
      {{p.vt0 + 1.0, 2.0, 0.0}, {p.vt0 + 0.5, 0.1, -1.0}});
}

TEST(BatchCore, LoadDevicePrecomputesEffectiveParams) {
  const MosParams& p = tech5().nmos;
  const Geometry g{um(40.0), um(8.0), 3};
  CoreEvalBatch b;
  b.resize(2);
  b.load_device(0, p, g, 0.0);
  b.load_device(1, p, g, 0.01);
  EXPECT_EQ(b.w[0], g.w);
  EXPECT_EQ(b.l[0], g.l);
  EXPECT_EQ(b.m[0], 3.0);
  EXPECT_EQ(b.kp[0], p.kp);
  EXPECT_EQ(b.gamma[0], p.gamma);
  EXPECT_EQ(b.phi[0], p.phi);
  EXPECT_EQ(b.vt0[0], p.vt0);
  EXPECT_EQ(b.vt0[1], p.vt0 + 0.01);
  EXPECT_EQ(b.sqrt_phi[0], std::sqrt(p.phi));
  EXPECT_EQ(b.lambda[0], p.lambda_at(g.l));
}

TEST(BatchCore, ResizeSetsEverySlotCount) {
  CoreEvalBatch b;
  b.resize(8);
  EXPECT_EQ(b.size(), 8u);
  b.resize(3);  // shrinking the logical size keeps the arrays consistent
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.region.size(), 3u);
  EXPECT_EQ(b.id.size(), 3u);
  EXPECT_FALSE(b.empty());
}

// ---- Geometry validation (satellite: no more silent 0.0 W/L) ------------

TEST(GeometryValidation, WlRatioThrowsOnInvalidGeometry) {
  EXPECT_THROW((Geometry{0.0, um(5.0), 1}.wl_ratio()), std::invalid_argument);
  EXPECT_THROW((Geometry{um(50.0), 0.0, 1}.wl_ratio()),
               std::invalid_argument);
  EXPECT_THROW((Geometry{um(50.0), -um(5.0), 1}.wl_ratio()),
               std::invalid_argument);
  EXPECT_THROW((Geometry{um(50.0), um(5.0), 0}.wl_ratio()),
               std::invalid_argument);
  const double nan = std::nan("");
  EXPECT_THROW((Geometry{nan, um(5.0), 1}.wl_ratio()), std::invalid_argument);
  EXPECT_EQ((Geometry{um(50.0), um(5.0), 2}.wl_ratio()), (50.0 / 5.0) * 2.0);
}

TEST(GeometryValidation, LoadDeviceRejectsInvalidGeometry) {
  CoreEvalBatch b;
  b.resize(1);
  EXPECT_THROW(b.load_device(0, tech5().nmos, {0.0, um(5.0), 1}),
               std::invalid_argument);
  EXPECT_THROW(b.load_device(0, tech5().nmos, {um(50.0), um(5.0), -2}),
               std::invalid_argument);
}

TEST(GeometryValidation, ValidateGeometryMessageNamesField) {
  try {
    validate_geometry({um(50.0), 0.0, 1});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("l must be"), std::string::npos);
  }
}

// ---- Finite-difference derivative consistency (scalar reference) --------

// Central difference of the model current along one bias axis.
double fd_id(const MosParams& p, const Geometry& g, CoreBias bias,
             double CoreBias::* axis, double h) {
  CoreBias lo = bias, hi = bias;
  lo.*axis -= h;
  hi.*axis += h;
  return (evaluate_core(p, g, hi).id - evaluate_core(p, g, lo).id) /
         (2.0 * h);
}

void expect_derivatives_match_fd(const CoreBias& bias, double rel_tol) {
  const MosParams& p = tech5().nmos;
  const Geometry g{um(50.0), um(5.0), 1};
  const double h = 1e-7;
  const CoreEval e = evaluate_core(p, g, bias);
  const double gm_fd = fd_id(p, g, bias, &CoreBias::vgs, h);
  const double gds_fd = fd_id(p, g, bias, &CoreBias::vds, h);
  const double gmb_fd = fd_id(p, g, bias, &CoreBias::vbs, h);
  EXPECT_NEAR(e.gm, gm_fd, rel_tol * std::abs(gm_fd) + 1e-12);
  EXPECT_NEAR(e.gds, gds_fd, rel_tol * std::abs(gds_fd) + 1e-12);
  EXPECT_NEAR(e.gmb, gmb_fd, rel_tol * std::abs(gmb_fd) + 1e-12);
}

TEST(ScalarDerivatives, MatchFiniteDifferenceInSaturationInterior) {
  const MosParams& p = tech5().nmos;
  expect_derivatives_match_fd({p.vt0 + 0.5, 2.0, -1.0}, 1e-5);
}

TEST(ScalarDerivatives, MatchFiniteDifferenceInTriodeInterior) {
  const MosParams& p = tech5().nmos;
  expect_derivatives_match_fd({p.vt0 + 0.8, 0.2, -0.5}, 1e-5);
}

TEST(ScalarDerivatives, ContinuousAtSaturationTriodeBoundary) {
  // At vds == vdsat the region flips, but keeping the CLM factor in triode
  // makes id, gm, and gds all continuous — so the central difference
  // (which straddles the boundary) still matches the analytic values, just
  // with the one-sided curvature jump in the error term.
  const MosParams& p = tech5().nmos;
  const Geometry g{um(50.0), um(5.0), 1};
  const CoreBias bias{p.vt0 + 0.5, 0.5, 0.0};  // vds exactly vdsat
  const CoreEval e = evaluate_core(p, g, bias);
  ASSERT_EQ(e.vdsat, bias.vds);
  ASSERT_EQ(e.region, Region::kSaturation);  // boundary belongs to sat
  expect_derivatives_match_fd(bias, 1e-3);
}

TEST(ScalarDerivatives, GmVanishesAtThresholdBoundary) {
  // At vgs == vth the device is cutoff with id = gm = 0; the square law
  // approaching from above gives dId/dVgs -> 0, so the FD slope must go
  // to zero with h — the derivative is consistent, not clamped.
  const MosParams& p = tech5().nmos;
  const Geometry g{um(50.0), um(5.0), 1};
  const CoreBias bias{p.vt0, 1.0, 0.0};
  const CoreEval e = evaluate_core(p, g, bias);
  ASSERT_EQ(e.region, Region::kCutoff);
  ASSERT_EQ(e.vov, 0.0);
  const double h = 1e-7;
  const double beta = p.kp * g.wl_ratio();
  const double gm_fd = fd_id(p, g, bias, &CoreBias::vgs, h);
  EXPECT_NEAR(gm_fd, 0.0, beta * h);  // O(h) from the one-sided quadratic
  EXPECT_EQ(e.gm, 0.0);
}

}  // namespace
}  // namespace oasys::mos

namespace oasys::sim {
namespace {

using ckt::Circuit;
using ckt::Waveform;
using util::um;

const tech::Technology& tech5() {
  static const tech::Technology t = tech::five_micron();
  return t;
}

// NMOS + PMOS + a floating body connection: exercises the sign flip, the
// D/S swap, and ground (-1) node indices through both eval paths.
Circuit two_stage_circuit() {
  Circuit c;
  const auto vdd = c.node("vdd");
  const auto in = c.node("in");
  const auto mid = c.node("mid");
  const auto out = c.node("out");
  c.add_vsource("VDD", vdd, ckt::kGround, Waveform::dc(tech5().vdd));
  c.add_vsource("VIN", in, ckt::kGround, Waveform::ac(1.2, 1.0));
  c.add_mosfet("M1", mid, in, ckt::kGround, ckt::kGround,
               mos::MosType::kNmos, um(50.0), um(5.0));
  c.add_resistor("R1", vdd, mid, 50e3);
  c.add_mosfet("M2", out, mid, vdd, vdd, mos::MosType::kPmos, um(100.0),
               um(5.0), 2);
  c.add_resistor("R2", out, ckt::kGround, 100e3);
  c.add_capacitor("CL", out, ckt::kGround, 10e-12);
  return c;
}

void expect_same_eval(const NonlinearSystem& sys,
                      const std::vector<double>& x, DeviceTable* table,
                      const NonlinearSystem::EvalOptions& opts = {}) {
  const std::size_t n = sys.layout().size();
  NonlinearSystem::EvalOptions scalar_opts = opts;
  scalar_opts.device_eval = DeviceEval::kScalar;
  NonlinearSystem::EvalOptions batch_opts = opts;
  batch_opts.device_eval = DeviceEval::kBatch;

  num::RealMatrix js(n, n), jb(n, n);
  std::vector<double> fs(n), fb(n);
  std::vector<DeviceOp> ops_s, ops_b;
  sys.eval(x, scalar_opts, &js, &fs, &ops_s);
  sys.eval(x, batch_opts, &jb, &fb, &ops_b, table);

  EXPECT_EQ(fs, fb);
  const double* ds = js.data();
  const double* db = jb.data();
  for (std::size_t k = 0; k < n * n; ++k) {
    EXPECT_EQ(ds[k], db[k]) << "jacobian entry " << k;
  }
  ASSERT_EQ(ops_s.size(), ops_b.size());
  for (std::size_t i = 0; i < ops_s.size(); ++i) {
    const DeviceOp& a = ops_s[i];
    const DeviceOp& b = ops_b[i];
    EXPECT_EQ(a.region, b.region) << "device " << i;
    EXPECT_EQ(a.vgs, b.vgs);
    EXPECT_EQ(a.vds, b.vds);
    EXPECT_EQ(a.vbs, b.vbs);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.vth, b.vth);
    EXPECT_EQ(a.vov, b.vov);
    EXPECT_EQ(a.vdsat, b.vdsat);
    EXPECT_EQ(a.gm, b.gm);
    EXPECT_EQ(a.gds, b.gds);
    EXPECT_EQ(a.gmb, b.gmb);
    EXPECT_EQ(a.id_ds, b.id_ds);
    EXPECT_EQ(a.di_dvg, b.di_dvg);
    EXPECT_EQ(a.di_dvd, b.di_dvd);
    EXPECT_EQ(a.di_dvs, b.di_dvs);
    EXPECT_EQ(a.di_dvb, b.di_dvb);
    EXPECT_EQ(a.cgs, b.cgs);
    EXPECT_EQ(a.cgd, b.cgd);
    EXPECT_EQ(a.cgb, b.cgb);
    EXPECT_EQ(a.cdb, b.cdb);
    EXPECT_EQ(a.csb, b.csb);
  }
}

// The eval settings the analyses drive: plain DC, the continuation steps
// (scaled sources, a raised gmin shunt), and transient source values.
std::vector<NonlinearSystem::EvalOptions> eval_settings() {
  std::vector<NonlinearSystem::EvalOptions> settings(5);
  settings[1].source_scale = 0.3;
  settings[2].gmin = 1e-6;
  settings[3].time = 0.0;
  settings[4].time = 1e-6;
  return settings;
}

// Scalar and batch eval agree at every setting for each bias point.
void expect_same_eval_everywhere(const Circuit& c,
                                 const std::vector<std::vector<double>>& xs) {
  NonlinearSystem sys(c, tech5());
  DeviceTable table;
  sys.build_device_table(&table);
  for (const std::vector<double>& x : xs) {
    for (const NonlinearSystem::EvalOptions& opts : eval_settings()) {
      expect_same_eval(sys, x, &table, opts);
    }
  }
}

TEST(BatchMna, EvalMatchesScalarBitwise) {
  const Circuit c = two_stage_circuit();
  NonlinearSystem sys(c, tech5());
  DeviceTable table;
  sys.build_device_table(&table);
  ASSERT_EQ(table.size(), 2u);
  const std::size_t n = sys.layout().size();

  // At the converged operating point, at a flat start (vds == 0
  // everywhere), and at a deliberately scrambled bias that reverses vds on
  // both devices, driving the D/S-swap unwinding.
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  std::vector<double> scrambled(n, 0.0);
  for (std::size_t i = 0; i < scrambled.size(); ++i) {
    scrambled[i] = (i % 2 == 0) ? 4.0 : -1.5;
  }
  expect_same_eval_everywhere(
      c, {op.solution, std::vector<double>(n, 0.0), scrambled});

  // A synthesized design under mismatch: the cmos5 case-A open-loop bench
  // the verifier and the yield samples simulate, with a distinct threshold
  // shift on every device.
  const synth::SynthesisResult r =
      synth::synthesize_opamp(tech5(), synth::spec_case_a());
  ASSERT_TRUE(r.success());
  synth::OpenLoopBench bench(*r.best(), tech5());
  double dvt = -3e-3;
  for (const ckt::Mosfet& m : bench.circuit.mosfets()) {
    bench.circuit.set_mosfet_dvt(m.name, dvt);
    dvt += 1.7e-3;
  }
  const OpResult bench_op = dc_operating_point(bench.circuit, tech5());
  ASSERT_TRUE(bench_op.converged);
  expect_same_eval_everywhere(
      bench.circuit,
      {bench_op.solution,
       std::vector<double>(bench_op.solution.size(), 0.0)});
}

TEST(BatchMna, MismatchShiftFlowsThroughTable) {
  Circuit c = two_stage_circuit();
  c.set_mosfet_dvt("M1", 4e-3);
  NonlinearSystem sys(c, tech5());
  DeviceTable table;
  sys.build_device_table(&table);
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  expect_same_eval(sys, op.solution, &table);
}

TEST(BatchMna, BatchWithoutTableThrows) {
  const Circuit c = two_stage_circuit();
  NonlinearSystem sys(c, tech5());
  const std::size_t n = sys.layout().size();
  NonlinearSystem::EvalOptions opts;
  opts.device_eval = DeviceEval::kBatch;
  std::vector<double> x(n, 0.0), f(n);
  EXPECT_THROW(sys.eval(x, opts, nullptr, &f), std::logic_error);

  // A table built for a different device count is rejected too.
  DeviceTable stale;
  stale.batch.resize(5);
  EXPECT_THROW(sys.eval(x, opts, nullptr, &f, nullptr, &stale),
               std::logic_error);
}

TEST(BatchMna, DeviceEvalCountersCountBatchesOnly) {
  const Circuit c = two_stage_circuit();
  NonlinearSystem sys(c, tech5());
  DeviceTable table;
  sys.build_device_table(&table);
  const std::size_t n = sys.layout().size();
  std::vector<double> x(n, 1.0), f(n);

  auto& batches = obs::Registry::global().counter("sim.device_eval.batches");
  auto& devices = obs::Registry::global().counter("sim.device_eval.devices");
  const std::uint64_t b0 = batches.value();
  const std::uint64_t d0 = devices.value();

  NonlinearSystem::EvalOptions opts;
  opts.device_eval = DeviceEval::kScalar;
  sys.eval(x, opts, nullptr, &f);
  EXPECT_EQ(batches.value(), b0);  // scalar path never touches them
  EXPECT_EQ(devices.value(), d0);

  opts.device_eval = DeviceEval::kBatch;
  sys.eval(x, opts, nullptr, &f, nullptr, &table);
  sys.eval(x, opts, nullptr, &f, nullptr, &table);
  EXPECT_EQ(batches.value(), b0 + 2);
  EXPECT_EQ(devices.value(), d0 + 2 * table.size());
}

}  // namespace
}  // namespace oasys::sim
