// Cross-process and process-corner robustness: the same spec synthesized
// in a different technology, and nominal designs re-verified under
// slow/fast corner derating (the paper's Sec. 2.1 point that process
// spread dominates analog design).
#include <gtest/gtest.h>

#include "synth/oasys.h"
#include "synth/test_cases.h"
#include "synth/testbench.h"
#include "tech/builtin.h"
#include "util/units.h"

namespace oasys::synth {
namespace {

using tech::Corner;
using tech::Technology;

TEST(CornerModel, DeratingDirections) {
  const Technology tt = tech::five_micron();
  const Technology ss = tech::at_corner(tt, Corner::kSlow);
  const Technology ff = tech::at_corner(tt, Corner::kFast);
  EXPECT_LT(ss.nmos.kp, tt.nmos.kp);
  EXPECT_GT(ss.nmos.vt0, tt.nmos.vt0);
  EXPECT_GT(ff.pmos.kp, tt.pmos.kp);
  EXPECT_LT(ff.pmos.vt0, tt.pmos.vt0);
  EXPECT_EQ(ss.name, "cmos5-ss");
  EXPECT_EQ(ff.name, "cmos5-ff");
  // Typical passthrough.
  EXPECT_EQ(tech::at_corner(tt, Corner::kTypical).name, tt.name);
  EXPECT_FALSE(ss.validate().has_errors());
}

TEST(CrossProcess, CaseAPortsToThreeMicron) {
  // The framework reads everything from the technology description: the
  // same spec must synthesize in the 3 um process without code changes.
  const Technology t3 = tech::three_micron();
  const SynthesisResult r = synthesize_opamp(t3, spec_case_a());
  ASSERT_TRUE(r.success());
  const MeasuredOpAmp m = measure_opamp(*r.best(), t3);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_GE(m.perf.gain_db, spec_case_a().gain_min_db - 2.0);
  EXPECT_GE(m.perf.gbw, spec_case_a().gbw_min * 0.7);
}

TEST(CrossProcess, ThreeMicronIsSmaller) {
  const SynthesisResult r5 =
      synthesize_opamp(tech::five_micron(), spec_case_a());
  const SynthesisResult r3 =
      synthesize_opamp(tech::three_micron(), spec_case_a());
  ASSERT_TRUE(r5.success());
  ASSERT_TRUE(r3.success());
  EXPECT_LT(r3.best()->predicted.area, r5.best()->predicted.area);
}

class CornerCase : public ::testing::TestWithParam<Corner> {};

TEST_P(CornerCase, NominalDesignSurvivesCorner) {
  // Synthesize at typical; re-simulate the *same sized design* with the
  // corner-derated device parameters.  The design margins (15% on GBW and
  // slew) must absorb the corner spread for the key axes.
  const Technology tt = tech::five_micron();
  const Technology corner_tech = tech::at_corner(tt, GetParam());
  const core::OpAmpSpec spec = spec_case_b();
  const SynthesisResult r = synthesize_opamp(tt, spec);
  ASSERT_TRUE(r.success());

  MeasureOptions mo;
  mo.measure_icmr = false;
  const MeasuredOpAmp m = measure_opamp(*r.best(), corner_tech, mo);
  ASSERT_TRUE(m.ok) << m.error << " at corner "
                    << tech::to_string(GetParam());
  // Gain is lambda-dominated and barely moves; GBW tracks sqrt(KP).
  EXPECT_GE(m.perf.gain_db, spec.gain_min_db - 3.0);
  EXPECT_GE(m.perf.gbw, spec.gbw_min * 0.80);
  EXPECT_GT(m.perf.pm_deg, 35.0);
  // Bias currents shift with VGS across corners but stay bounded.
  EXPECT_LT(m.perf.power, spec.power_max);
}

INSTANTIATE_TEST_SUITE_P(Corners, CornerCase,
                         ::testing::Values(Corner::kSlow, Corner::kFast),
                         [](const auto& info) {
                           return std::string(tech::to_string(info.param));
                         });

}  // namespace
}  // namespace oasys::synth
