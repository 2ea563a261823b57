// End-to-end integration: synthesize -> build netlist -> simulate -> the
// measured performance agrees with the plan's predictions within the bands
// a first-order design flow can promise (this is the paper's SPICE
// verification loop, Table 2).
#include <gtest/gtest.h>

#include "netlist/spice_writer.h"
#include "spice/dc.h"
#include "spice/measure.h"
#include "spice/sim_options.h"
#include "spice/tran.h"
#include "synth/netlist_builder.h"
#include "synth/oasys.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"
#include "util/units.h"

namespace oasys::synth {
namespace {

using tech::Technology;

const Technology& tech5() {
  static const Technology t = tech::five_micron();
  return t;
}

const SynthesisResult& synth_for(const core::OpAmpSpec& spec) {
  static std::map<std::string, SynthesisResult> cache;
  auto it = cache.find(spec.name);
  if (it == cache.end()) {
    it = cache.emplace(spec.name, synthesize_opamp(tech5(), spec)).first;
  }
  return it->second;
}

const MeasuredOpAmp& measure_for(const core::OpAmpSpec& spec) {
  static std::map<std::string, MeasuredOpAmp> cache;
  auto it = cache.find(spec.name);
  if (it == cache.end()) {
    const SynthesisResult& r = synth_for(spec);
    if (!r.success()) {
      MeasuredOpAmp failed;
      failed.error = "synthesis failed for case " + spec.name;
      it = cache.emplace(spec.name, std::move(failed)).first;
    } else {
      it =
          cache.emplace(spec.name, measure_opamp(*r.best(), tech5())).first;
    }
  }
  return it->second;
}

// ---- netlist structure ---------------------------------------------------------

TEST(Netlist, BuildsForAllCases) {
  for (const auto& spec : paper_test_cases()) {
    const SynthesisResult& r = synth_for(spec);
    ASSERT_TRUE(r.success()) << spec.name;
    ckt::Circuit c;
    const BuiltOpAmp nodes = build_opamp(*r.best(), tech5(), c);
    EXPECT_GT(c.mosfets().size(), 4u) << spec.name;
    EXPECT_NE(nodes.out, ckt::kGround);
    // Every device in the design appears in the netlist.
    EXPECT_EQ(c.mosfets().size(), r.best()->devices.size()) << spec.name;
  }
}

TEST(Netlist, NoDanglingNodesInStandaloneDeck) {
  for (const auto& spec : paper_test_cases()) {
    const SynthesisResult& r = synth_for(spec);
    ASSERT_TRUE(r.success());
    ckt::Circuit c = build_standalone_opamp(*r.best(), tech5());
    EXPECT_TRUE(c.dangling_nodes().empty())
        << spec.name << ": "
        << (c.dangling_nodes().empty() ? "" : c.dangling_nodes()[0]);
  }
}

TEST(Netlist, SpiceDeckExports) {
  const SynthesisResult& r = synth_for(spec_case_a());
  ASSERT_TRUE(r.success());
  const ckt::Circuit c = build_standalone_opamp(*r.best(), tech5());
  const std::string deck = to_spice_deck(c, tech5());
  EXPECT_NE(deck.find("MM1"), std::string::npos);
  EXPECT_NE(deck.find(".MODEL"), std::string::npos);
}

// ---- simulation closes the loop ---------------------------------------------------

class MeasuredCase : public ::testing::TestWithParam<int> {
 protected:
  core::OpAmpSpec spec() const { return paper_test_cases()[GetParam()]; }
};

TEST_P(MeasuredCase, OperatingPointSaturatesSignalDevices) {
  const MeasuredOpAmp& m = measure_for(spec());
  ASSERT_TRUE(m.ok) << m.error;
  // The signal-path devices must sit in saturation at the nulled OP.
  for (const char* role : {"M1", "M2", "ML_out", "M5"}) {
    for (const auto& bad : m.non_saturated) {
      EXPECT_NE(bad, role) << "case " << spec().name;
    }
  }
}

TEST_P(MeasuredCase, GainWithinBandOfPrediction) {
  const SynthesisResult& r = synth_for(spec());
  const MeasuredOpAmp& m = measure_for(spec());
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_NEAR(m.perf.gain_db, r.best()->predicted.gain_db, 6.0)
      << "case " << spec().name;
}

TEST_P(MeasuredCase, GbwWithinBandOfPrediction) {
  const SynthesisResult& r = synth_for(spec());
  const MeasuredOpAmp& m = measure_for(spec());
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_GT(m.perf.gbw, 0.0);
  EXPECT_NEAR(m.perf.gbw / r.best()->predicted.gbw, 1.0, 0.40)
      << "case " << spec().name;
}

TEST_P(MeasuredCase, MeetsGainSpecInSimulation) {
  const MeasuredOpAmp& m = measure_for(spec());
  ASSERT_TRUE(m.ok);
  EXPECT_GE(m.perf.gain_db, spec().gain_min_db - 2.0)
      << "case " << spec().name;
}

TEST_P(MeasuredCase, PowerWithinBudget) {
  const MeasuredOpAmp& m = measure_for(spec());
  ASSERT_TRUE(m.ok);
  EXPECT_LE(m.perf.power, spec().power_max * 1.1) << spec().name;
  EXPECT_GT(m.perf.power, 0.0);
}

INSTANTIATE_TEST_SUITE_P(PaperCases, MeasuredCase,
                         ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           return std::string("case") +
                                  paper_test_cases()[info.param].name;
                         });

TEST(MeasuredOffset, OtaOffsetMatchesMirrorPrediction) {
  // Case A selects the one-stage OTA whose systematic offset comes from
  // the mirror Vds mismatch; the simulator must reproduce it within a
  // factor of ~2 (same physics, first-order estimate).
  const SynthesisResult& r = synth_for(spec_case_a());
  ASSERT_TRUE(r.success());
  ASSERT_EQ(r.best()->style, OpAmpStyle::kOneStageOta);
  const MeasuredOpAmp& m = measure_for(spec_case_a());
  ASSERT_TRUE(m.ok);
  EXPECT_GT(m.perf.offset, util::mv(0.5));
  EXPECT_LT(m.perf.offset, util::mv(25.0));
}

TEST(MeasuredOffset, TwoStageOffsetSmall) {
  const SynthesisResult& r = synth_for(spec_case_b());
  ASSERT_TRUE(r.success());
  const MeasuredOpAmp& m = measure_for(spec_case_b());
  ASSERT_TRUE(m.ok);
  EXPECT_LT(m.perf.offset, util::mv(3.0));
}

TEST(MeasuredSlew, MeetsSpecWithinBand) {
  const MeasuredOpAmp& m = measure_for(spec_case_a());
  ASSERT_TRUE(m.ok);
  EXPECT_GT(m.perf.slew, spec_case_a().slew_min * 0.7);
}

// measure_opamp's slew in its default engine against the fixed engine at a
// tenth of the input edge (dt = t_half/6000) on the very same stimulus,
// where the fixed result has converged.  The fixed grid at one step per
// edge (dt = t_half/600) over-reports slew by up to 39% on these cases,
// so this fails whenever the default engine is that grid.
TEST(MeasuredSlew, DefaultEngineMatchesFineFixedReference) {
  for (const Technology& t : {tech::five_micron(), tech::three_micron()}) {
    for (const core::OpAmpSpec& spec : paper_test_cases()) {
      const SynthesisResult r = synthesize_opamp(t, spec);
      ASSERT_TRUE(r.success()) << spec.name;
      const MeasuredOpAmp m = measure_opamp(*r.best(), t);
      ASSERT_TRUE(m.ok) << spec.name << ": " << m.error;

      const OpenLoopBench bench(*r.best(), t);
      const SlewBench sb = slew_bench(*r.best(), t, bench.vcm, m.perf.gbw,
                                      MeasureOptions{}.step_amplitude);
      sim::TranOptions fine = sb.tran;
      fine.mode = sim::TranMode::kFixed;
      fine.dt = sb.tran.dt / 10.0;
      const sim::OpResult op = sim::dc_operating_point(sb.circuit, t);
      ASSERT_TRUE(op.converged) << spec.name;
      const sim::TranResult tr = sim::transient(sb.circuit, t, op, fine);
      ASSERT_TRUE(tr.ok) << spec.name << ": " << tr.error;
      const auto slew = sim::slew_rate(tr, sim::MnaLayout(sb.circuit), sb.out);
      ASSERT_TRUE(slew.has_value()) << spec.name;
      const double want = std::min(slew->rising, slew->falling);
      EXPECT_NEAR(m.perf.slew / want, 1.0, 2e-2)
          << t.name << " case " << spec.name << ": measured " << m.perf.slew
          << " V/s vs fine fixed reference " << want << " V/s";
    }
  }
}

// The fixed engine stays the bitwise reference: --tran-mode fixed measures
// case B's slew to the last bit as it always has.  Moving the stimulus (its
// delay, edges or period) or the fixed grid changes this value.
TEST(MeasuredSlew, FixedEngineSlewIsPinnedBitwise) {
  const SynthesisResult& r = synth_for(spec_case_b());
  ASSERT_TRUE(r.success());
  const sim::TranMode saved = sim::tran_mode_default();
  sim::set_tran_mode_default(sim::TranMode::kFixed);
  const MeasuredOpAmp m = measure_opamp(*r.best(), tech5());
  sim::set_tran_mode_default(saved);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_EQ(m.perf.slew, 0x1.16c72b37722fap+21);  // 2283749.4020732613 V/s
}

TEST(MeasuredSwing, CaseBReachesLargeSwing) {
  const MeasuredOpAmp& m = measure_for(spec_case_b());
  ASSERT_TRUE(m.ok);
  EXPECT_GE(m.perf.swing_pos, 3.2);
  EXPECT_GE(m.perf.swing_neg, 3.2);
}

}  // namespace
}  // namespace oasys::synth

namespace oasys::synth {
namespace {

// Property sweep: synthesize across a spec grid and close every design
// through the simulator.  This is the tool's core contract — the plans'
// first-order predictions hold up in verification across the design space,
// not just on the three paper cases.
struct GridSpec {
  double gain_db;
  double gbw_mhz;
  double slew_v_us;
  double cl_pf;
};

class SynthesisGrid : public ::testing::TestWithParam<GridSpec> {};

TEST_P(SynthesisGrid, SimulationTracksPrediction) {
  const GridSpec& g = GetParam();
  core::OpAmpSpec spec;
  spec.name = "grid";
  spec.gain_min_db = g.gain_db;
  spec.gbw_min = util::mhz(g.gbw_mhz);
  spec.pm_min_deg = 45.0;
  spec.slew_min = util::v_per_us(g.slew_v_us);
  spec.cload = util::pf(g.cl_pf);
  spec.icmr_lo = -1.0;
  spec.icmr_hi = 1.0;

  const SynthesisResult r = synthesize_opamp(tech5(), spec);
  ASSERT_TRUE(r.success()) << "gain " << g.gain_db;
  MeasureOptions mo;
  mo.measure_icmr = false;  // keep the sweep fast
  mo.measure_slew = false;
  const MeasuredOpAmp m = measure_opamp(*r.best(), tech5(), mo);
  ASSERT_TRUE(m.ok) << m.error;

  EXPECT_NEAR(m.perf.gain_db, r.best()->predicted.gain_db, 7.0)
      << r.best()->style_name();
  EXPECT_NEAR(m.perf.gbw / r.best()->predicted.gbw, 1.0, 0.45)
      << r.best()->style_name();
  // The spec axes themselves hold in simulation (gain is a hard floor;
  // GBW gets the usual verification band).
  EXPECT_GE(m.perf.gain_db, spec.gain_min_db - 2.0);
  EXPECT_GE(m.perf.gbw, spec.gbw_min * 0.7);
  // Every signal-path device stays saturated.
  for (const char* role : {"M1", "M2", "M5"}) {
    for (const auto& bad : m.non_saturated) {
      EXPECT_NE(bad, role) << r.best()->style_name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SynthesisGrid,
    ::testing::Values(GridSpec{40.0, 0.5, 0.5, 20.0},
                      GridSpec{50.0, 1.0, 1.0, 10.0},
                      GridSpec{60.0, 2.0, 2.0, 10.0},
                      GridSpec{70.0, 1.0, 1.0, 5.0},
                      GridSpec{80.0, 3.0, 3.0, 5.0},
                      GridSpec{90.0, 2.0, 2.0, 10.0},
                      GridSpec{100.0, 4.0, 4.0, 5.0},
                      GridSpec{105.0, 1.0, 1.0, 5.0}),
    [](const auto& info) {
      return std::string("g") +
             std::to_string(static_cast<int>(info.param.gain_db)) + "c" +
             std::to_string(static_cast<int>(info.param.cl_pf));
    });

}  // namespace
}  // namespace oasys::synth
