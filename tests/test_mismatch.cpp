// Random-mismatch analysis: the Monte-Carlo offset of synthesized op amps
// (yield::analyze_yield's offset statistics, over the same per-device
// area-law draws) matches the analytic area-law prediction, and both
// scale the right way with device area.
#include <gtest/gtest.h>

#include <cmath>

#include "synth/mismatch.h"
#include "synth/oasys.h"
#include "synth/test_cases.h"
#include "tech/builtin.h"
#include "util/units.h"
#include "yield/yield.h"

namespace oasys::synth {
namespace {

using tech::Technology;

const Technology& tech5() {
  static const Technology t = tech::five_micron();
  return t;
}

TEST(MismatchModel, SigmaVtAreaLaw) {
  const tech::MosParams& p = tech5().nmos;
  const double s1 = p.sigma_vt(util::um(10.0), util::um(10.0));
  const double s4 = p.sigma_vt(util::um(40.0), util::um(10.0));
  EXPECT_NEAR(s1, 30e-3 * 1e-6 / 1e-5, 1e-9);  // 3 mV at 100 um^2
  EXPECT_NEAR(s1 / s4, 2.0, 1e-9);             // 4x area -> half sigma
  EXPECT_DOUBLE_EQ(p.sigma_vt(0.0, 1.0), 0.0);
}

TEST(MismatchModel, PredictionCoversPairAndLoad) {
  const SynthesisResult r = synthesize_opamp(tech5(), spec_case_a());
  ASSERT_TRUE(r.success());
  const double sigma = predict_random_offset_sigma(*r.best(), tech5());
  // 5 um devices at these sizes: a few hundred uV to a few mV.
  EXPECT_GT(sigma, util::mv(0.05));
  EXPECT_LT(sigma, util::mv(5.0));
}

// The Monte-Carlo (signed) offset statistics of `samples` mismatch draws; ok
// needs at least three converged samples.
struct OffsetStats {
  bool ok = false;
  int converged = 0;
  yield::MetricStats offset;
};

OffsetStats monte_carlo_offset(const SynthesisResult& r, int samples,
                               std::uint64_t seed) {
  yield::YieldParams params;
  params.samples = samples;
  params.seed = seed;
  params.jobs = 1;
  const yield::YieldResult y = yield::analyze_yield(tech5(), r, params);
  OffsetStats out;
  out.ok = y.ok && y.samples_converged >= 3;
  out.converged = y.samples_converged;
  for (const yield::MetricStats& m : y.metrics) {
    if (m.name == "offset") out.offset = m;
  }
  return out;
}

TEST(MismatchMonteCarlo, MatchesPredictionWithinBand) {
  const SynthesisResult r = synthesize_opamp(tech5(), spec_case_a());
  ASSERT_TRUE(r.success());
  const double predicted = predict_random_offset_sigma(*r.best(), tech5());

  const OffsetStats mc = monte_carlo_offset(r, 60, 42);
  ASSERT_TRUE(mc.ok);
  EXPECT_GE(mc.converged, 50);
  // Sample sigma of 60 draws carries ~10% statistical error; the analytic
  // model additionally ignores tail/bias contributions: 2x band.
  EXPECT_GT(mc.offset.sigma, predicted * 0.5);
  EXPECT_LT(mc.offset.sigma, predicted * 2.0);
  // The mean recovers the systematic offset, whose magnitude the plan
  // predicts (the simulator's value sits about 2x above the first-order
  // prediction; see the integration tests).
  EXPECT_NEAR(std::abs(mc.offset.mean), r.best()->predicted.offset,
              std::max(2.0 * r.best()->predicted.offset, util::mv(5.0)));
}

TEST(MismatchMonteCarlo, Deterministic) {
  const SynthesisResult r = synthesize_opamp(tech5(), spec_case_a());
  ASSERT_TRUE(r.success());
  const OffsetStats a = monte_carlo_offset(r, 10, 7);
  const OffsetStats b = monte_carlo_offset(r, 10, 7);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_DOUBLE_EQ(a.offset.sigma, b.offset.sigma);
  EXPECT_DOUBLE_EQ(a.offset.mean, b.offset.mean);
}

TEST(MismatchMonteCarlo, InfeasibleDesignRejected) {
  // A synthesis that selected no design has nothing to perturb.
  EXPECT_FALSE(monte_carlo_offset(SynthesisResult{}, 10, 1).ok);
}

TEST(MismatchMonteCarlo, TwoStageAlsoConverges) {
  const SynthesisResult r = synthesize_opamp(tech5(), spec_case_b());
  ASSERT_TRUE(r.success());
  const OffsetStats mc = monte_carlo_offset(r, 20, 3);
  ASSERT_TRUE(mc.ok);
  // Random offset dominates the (near-zero) systematic offset of the
  // balanced two-stage design: the spread exceeds the mean's magnitude.
  EXPECT_GT(mc.offset.sigma, std::abs(mc.offset.mean) * 0.5);
  EXPECT_LT(mc.offset.sigma, util::mv(10.0));
}

}  // namespace
}  // namespace oasys::synth
