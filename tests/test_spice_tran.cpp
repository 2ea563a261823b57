#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.h"
#include "spice/measure.h"
#include "spice/tran.h"
#include "tech/builtin.h"
#include "util/units.h"

namespace oasys::sim {
namespace {

using ckt::Circuit;
using ckt::Waveform;
using tech::Technology;
using util::um;

const Technology& tech5() {
  static const Technology t = tech::five_micron();
  return t;
}

TEST(Tran, RcChargingCurve) {
  Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  const double r = 1e3;
  const double cap = 1e-9;
  const double tau = r * cap;
  c.add_vsource("V1", in, ckt::kGround,
                Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 2.0));
  c.add_resistor("R1", in, out, r);
  c.add_capacitor("C1", out, ckt::kGround, cap);

  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  TranOptions to;
  to.tstop = 5.0 * tau;
  to.dt = tau / 100.0;
  const TranResult tr = transient(c, tech5(), op, to);
  ASSERT_TRUE(tr.ok) << tr.error;
  MnaLayout layout(c);
  // v(t) = 1 - exp(-t/tau): check at 1, 2, 3 tau.
  for (int k = 1; k <= 3; ++k) {
    const double t_check = k * tau;
    std::size_t idx = 0;
    for (std::size_t i = 0; i < tr.time.size(); ++i) {
      if (std::abs(tr.time[i] - t_check) <
          std::abs(tr.time[idx] - t_check)) {
        idx = i;
      }
    }
    const double expected = 1.0 - std::exp(-tr.time[idx] / tau);
    EXPECT_NEAR(tr.voltage(layout, idx, out), expected, 2e-3) << k;
  }
}

TEST(Tran, BackwardEulerAlsoConverges) {
  Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add_vsource("V1", in, ckt::kGround,
                Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 2.0));
  c.add_resistor("R1", in, out, 1e3);
  c.add_capacitor("C1", out, ckt::kGround, 1e-9);
  const OpResult op = dc_operating_point(c, tech5());
  TranOptions to;
  to.tstop = 5e-6;
  to.dt = 1e-8;
  to.trapezoidal = false;
  to.mode = TranMode::kFixed;  // backward Euler is a fixed-step option
  const TranResult tr = transient(c, tech5(), op, to);
  ASSERT_TRUE(tr.ok);
  MnaLayout layout(c);
  EXPECT_NEAR(tr.voltage(layout, tr.time.size() - 1, out), 1.0, 1e-2);
}

TEST(Tran, SineSteadyState) {
  // RC well below the pole: output follows the input closely.
  Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add_vsource("V1", in, ckt::kGround, Waveform::sine(0.0, 1.0, 1e3));
  c.add_resistor("R1", in, out, 1e3);
  c.add_capacitor("C1", out, ckt::kGround, 1e-9);  // pole at 159 kHz
  const OpResult op = dc_operating_point(c, tech5());
  TranOptions to;
  to.tstop = 2e-3;  // two periods
  to.dt = 1e-6;
  const TranResult tr = transient(c, tech5(), op, to);
  ASSERT_TRUE(tr.ok);
  MnaLayout layout(c);
  // Peak of the output close to 1.
  double peak = 0.0;
  for (std::size_t i = tr.time.size() / 2; i < tr.time.size(); ++i) {
    peak = std::max(peak, tr.voltage(layout, i, out));
  }
  EXPECT_NEAR(peak, 1.0, 0.02);
}

TEST(Tran, MosSourceFollowerTracksStep) {
  const Technology& t = tech5();
  Circuit c;
  const auto vdd = c.node("vdd");
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add_vsource("VDD", vdd, ckt::kGround, Waveform::dc(5.0));
  c.add_vsource("VIN", in, ckt::kGround,
                Waveform::pulse(2.5, 3.5, 1e-7, 1e-8, 1e-8, 5e-6, 10e-6));
  c.add_mosfet("M1", vdd, in, out, ckt::kGround, mos::MosType::kNmos,
               um(100.0), um(5.0));
  c.add_resistor("RS", out, ckt::kGround, 20e3);
  c.add_capacitor("CLOAD", out, ckt::kGround, 1e-12);

  const OpResult op = dc_operating_point(c, t);
  ASSERT_TRUE(op.converged);
  TranOptions to;
  to.tstop = 4e-6;
  to.dt = 5e-9;
  const TranResult tr = transient(c, t, op, to);
  ASSERT_TRUE(tr.ok) << tr.error;
  MnaLayout layout(c);
  const double v_start = tr.voltage(layout, 0, out);
  const double v_end = tr.voltage(layout, tr.time.size() - 1, out);
  // The follower gain is gm/(gm + gmb + 1/RS) < 1 (body effect plus the
  // resistive load); the step must transfer with that attenuation.
  EXPECT_GT(v_end - v_start, 0.6);
  EXPECT_LT(v_end - v_start, 1.0);
}

TEST(Tran, SlewMeasurement) {
  // A current-limited source charging a cap: slew = I/C exactly.
  Circuit c;
  const auto out = c.node("out");
  c.add_isource("I1", ckt::kGround, out, Waveform::dc(1e-6));
  c.add_capacitor("C1", out, ckt::kGround, 1e-9);
  c.add_resistor("Rbig", out, ckt::kGround, 1e12);
  OpOptions oo;
  oo.try_gmin_stepping = false;
  oo.try_source_stepping = false;
  // Start from zero state rather than the (huge) DC solution.
  OpResult op;
  op.converged = true;
  op.solution.assign(MnaLayout(c).size(), 0.0);

  TranOptions to;
  to.tstop = 1e-4;
  to.dt = 1e-6;
  const TranResult tr = transient(c, tech5(), op, to);
  ASSERT_TRUE(tr.ok);
  MnaLayout layout(c);
  const auto slew = slew_rate(tr, layout, out);
  ASSERT_TRUE(slew.has_value());
  // 1000 V/s with a small first-step startup transient allowed.
  EXPECT_NEAR(slew->rising, 1e-6 / 1e-9, 50.0);
  EXPECT_NEAR(slew->falling, 0.0, 1.0);
}

TEST(Tran, SettlingTime) {
  Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  const double tau = 1e-6;
  c.add_vsource("V1", in, ckt::kGround,
                Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 2.0));
  c.add_resistor("R1", in, out, 1e3);
  c.add_capacitor("C1", out, ckt::kGround, tau / 1e3);
  const OpResult op = dc_operating_point(c, tech5());
  TranOptions to;
  to.tstop = 10.0 * tau;
  to.dt = tau / 50.0;
  const TranResult tr = transient(c, tech5(), op, to);
  ASSERT_TRUE(tr.ok);
  MnaLayout layout(c);
  const auto ts = settling_time(tr, layout, out, 1.0, 0.01);
  ASSERT_TRUE(ts.has_value());
  // 1% settling of a single pole: 4.6 tau.
  EXPECT_NEAR(*ts, 4.6 * tau, 0.5 * tau);
}

TEST(Tran, RejectsBadOptions) {
  Circuit c;
  c.add_resistor("R", c.node("a"), ckt::kGround, 1e3);
  const OpResult op = dc_operating_point(c, tech5());
  TranOptions to;
  to.tstop = 0.0;
  to.dt = 1e-9;
  EXPECT_FALSE(transient(c, tech5(), op, to).ok);
}

// ---- fixed-step final-step handling -----------------------------------

// The RC charging fixture shared by the final-step and adaptive tests.
void build_rc(Circuit* c, double r, double cap) {
  const auto in = c->node("in");
  const auto out = c->node("out");
  c->add_vsource("V1", in, ckt::kGround,
                 Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 2.0));
  c->add_resistor("R1", in, out, r);
  c->add_capacitor("C1", out, ckt::kGround, cap);
}

TEST(Tran, FixedStepLandsExactlyOnTstop) {
  // tstop deliberately NOT an integer multiple of dt: the final step must
  // shorten and land the last sample exactly on tstop (previously the
  // waveform ended one partial step short).
  Circuit c;
  build_rc(&c, 1e3, 1e-9);  // tau = 1 us
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  for (const double tstop : {5.05e-6, 4.999e-6, 1.1e-7}) {
    TranOptions to;
    to.tstop = tstop;
    to.dt = 3e-8;
    to.mode = TranMode::kFixed;
    const TranResult tr = transient(c, tech5(), op, to);
    ASSERT_TRUE(tr.ok) << tr.error;
    // Exact landing, not merely close: measurement windows clamp to
    // tstop, so the sample must exist at that very coordinate.
    EXPECT_EQ(tr.time.back(), tstop) << tstop;
    // Every step but the last is the configured dt; the last only
    // shrinks, never stretches.
    for (std::size_t i = 1; i + 1 < tr.time.size(); ++i) {
      EXPECT_NEAR(tr.time[i] - tr.time[i - 1], to.dt, 1e-18);
    }
    EXPECT_LE(tr.time.back() - tr.time[tr.time.size() - 2],
              to.dt + 1e-18);
  }
}

TEST(Tran, FixedStepFinalStepPinsSettlingMetric) {
  // Settling detection reads the tail of the waveform; with the final
  // sample exactly on tstop the measured settling time is stable against
  // awkward tstop/dt ratios.
  Circuit c;
  const double tau = 1e-6;
  build_rc(&c, 1e3, tau / 1e3);
  const OpResult op = dc_operating_point(c, tech5());
  MnaLayout layout(c);
  const auto out = c.node("out");
  for (const double tstop : {10.0 * tau, 10.37 * tau}) {
    TranOptions to;
    to.tstop = tstop;
    to.dt = tau / 50.0;
    to.mode = TranMode::kFixed;
    const TranResult tr = transient(c, tech5(), op, to);
    ASSERT_TRUE(tr.ok);
    const auto ts = settling_time(tr, layout, out, 1.0, 0.01);
    ASSERT_TRUE(ts.has_value());
    EXPECT_NEAR(*ts, 4.6 * tau, 0.5 * tau) << tstop;
  }
}

// ---- adaptive stepping -------------------------------------------------

TranOptions adaptive_options(double tstop, double dt) {
  TranOptions to;
  to.tstop = tstop;
  to.dt = dt;
  to.mode = TranMode::kAdaptive;
  return to;
}

TEST(Tran, AdaptiveMatchesFixedOnRcCharging) {
  Circuit c;
  const double tau = 1e-6;
  build_rc(&c, 1e3, 1e-9);
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  const TranResult tr =
      transient(c, tech5(), op, adaptive_options(5.0 * tau, tau / 100.0));
  ASSERT_TRUE(tr.ok) << tr.error;
  MnaLayout layout(c);
  const auto out = c.node("out");
  // Dense output against the analytic curve at arbitrary (non-sample)
  // coordinates: the default tolerances keep the local error near 1e-3,
  // so a 5e-3 envelope has margin without masking a broken controller.
  for (const double frac : {0.3, 0.9, 1.7, 2.6, 4.2}) {
    const double t = frac * tau;
    const double expected = 1.0 - std::exp(-t / tau);
    EXPECT_NEAR(tr.voltage_at(layout, out, t), expected, 5e-3) << frac;
  }
  EXPECT_EQ(tr.time.back(), 5.0 * tau);
}

TEST(Tran, AdaptiveTakesFarFewerSteps) {
  // The acceptance bar from the issue: >= 5x fewer transient steps than
  // the fixed reference on a smooth settling waveform, at equal quality
  // (quality is pinned by AdaptiveMatchesFixedOnRcCharging above).
  Circuit c;
  const double tau = 1e-6;
  build_rc(&c, 1e3, 1e-9);
  const OpResult op = dc_operating_point(c, tech5());
  // A 20-tau window models a real settling measurement: the interesting
  // dynamics occupy the first few tau and the rest is flat tail, which
  // is exactly where fixed stepping burns its samples.
  TranOptions fixed;
  fixed.tstop = 20.0 * tau;
  fixed.dt = tau / 100.0;
  fixed.mode = TranMode::kFixed;
  const TranResult ref = transient(c, tech5(), op, fixed);
  const TranResult adap =
      transient(c, tech5(), op, adaptive_options(20.0 * tau, tau / 100.0));
  ASSERT_TRUE(ref.ok);
  ASSERT_TRUE(adap.ok);
  EXPECT_GE(ref.time.size(), 5 * adap.time.size())
      << "fixed " << ref.time.size() << " samples vs adaptive "
      << adap.time.size();
}

TEST(Tran, AdaptiveIsBitwiseRepeatable) {
  Circuit c;
  build_rc(&c, 1e3, 1e-9);
  const OpResult op = dc_operating_point(c, tech5());
  const TranOptions to = adaptive_options(5e-6, 1e-8);
  const TranResult a = transient(c, tech5(), op, to);
  const TranResult b = transient(c, tech5(), op, to);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  // The controller is serial and deterministic: two runs of the same
  // problem agree to the last bit, not merely to tolerance.
  ASSERT_EQ(a.time.size(), b.time.size());
  for (std::size_t i = 0; i < a.time.size(); ++i) {
    EXPECT_EQ(a.time[i], b.time[i]) << i;
  }
  ASSERT_EQ(a.states.size(), b.states.size());
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    EXPECT_EQ(a.states[i], b.states[i]) << i;
  }
}

TEST(Tran, AdaptiveLandsExactlyOnTstop) {
  Circuit c;
  build_rc(&c, 1e3, 1e-9);
  const OpResult op = dc_operating_point(c, tech5());
  for (const double tstop : {5e-6, 5.137e-6}) {
    const TranResult tr =
        transient(c, tech5(), op, adaptive_options(tstop, 1e-8));
    ASSERT_TRUE(tr.ok) << tr.error;
    EXPECT_EQ(tr.time.back(), tstop);
  }
}

TEST(Tran, AdaptiveLandsOnSourceBreakpoints) {
  // Every corner of every source pulse inside (0, tstop] is an accepted
  // sample time, exactly: a periodic pulse with awkward edges (three
  // periods, the last cut off by tstop) plus a single delayed pulse.
  Circuit c;
  const auto in = c.node("in");
  const auto mid = c.node("mid");
  const auto out = c.node("out");
  const double delay = 0.37e-6, rise = 13e-9, fall = 29e-9, width = 1.1e-6,
               period = 2.3e-6;
  c.add_vsource("V1", in, ckt::kGround,
                Waveform::pulse(0.0, 1.0, delay, rise, fall, width, period));
  c.add_resistor("R1", in, mid, 1e3);
  c.add_capacitor("C1", mid, ckt::kGround, 1e-10);
  c.add_isource("I1", out, ckt::kGround,
                Waveform::pulse(0.0, 1e-3, 1.7e-6, 7e-9, 7e-9, 0.4e-6, 0.0));
  c.add_resistor("R2", mid, out, 1e3);
  c.add_capacitor("C2", out, ckt::kGround, 1e-10);
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);
  const double tstop = 6.0e-6;
  const TranResult tr =
      transient(c, tech5(), op, adaptive_options(tstop, 1e-8));
  ASSERT_TRUE(tr.ok) << tr.error;

  std::vector<double> corners;
  for (int k = 0; k < 3; ++k) {
    const double start = delay + k * period;
    for (const double off :
         {0.0, rise, rise + width, rise + width + fall}) {
      if (start + off <= tstop) corners.push_back(start + off);
    }
  }
  for (const double off : {0.0, 7e-9, 7e-9 + 0.4e-6, 7e-9 + 0.4e-6 + 7e-9}) {
    corners.push_back(1.7e-6 + off);
  }
  ASSERT_EQ(corners.size(), 14u);
  for (const double t : corners) {
    EXPECT_NE(std::find(tr.time.begin(), tr.time.end(), t), tr.time.end())
        << "no sample at the corner t=" << t;
  }
}

// The stiff comparator-style slew fixture: an RC with tau = 1 us whose
// input sits flat for 50 tau, then steps 0 -> 1 V in 1 ns.
void build_stiff_edge(Circuit* c) {
  const double tau = 1e-6;
  const auto in = c->node("in");
  const auto out = c->node("out");
  c->add_vsource("V1", in, ckt::kGround,
                 Waveform::pulse(0.0, 1.0, 50.0 * tau, 1e-9, 1e-9,
                                 100.0 * tau, 200.0 * tau));
  c->add_resistor("R1", in, out, 1e3);
  c->add_capacitor("C1", out, ckt::kGround, 1e-9);
}

TEST(Tran, AdaptiveRejectsAndRecoversOnSharpEdge) {
  // Stiff fixture: a long flat stretch (the controller grows the step to
  // dt_max) ending in a near-instant edge.  Hitting the edge with a huge
  // step must *reject* — shrink, retry, converge — and the deterministic
  // counters must show it happened.
  Circuit c;
  const double tau = 1e-6;
  build_stiff_edge(&c);
  const auto out = c.node("out");
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);

  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  const TranResult tr =
      transient(c, tech5(), op, adaptive_options(100.0 * tau, tau / 10.0));
  ASSERT_TRUE(tr.ok) << tr.error;
  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();

  auto counter = [](const obs::MetricsSnapshot& s, const char* name) {
    const obs::MetricEntry* e = s.find(name);
    return e != nullptr ? e->counter : 0u;
  };
  EXPECT_GT(counter(after, "tran.adaptive.rejects"),
            counter(before, "tran.adaptive.rejects"))
      << "the sharp edge never forced a step rejection";
  EXPECT_GT(counter(after, "tran.adaptive.steps"),
            counter(before, "tran.adaptive.steps"));
  const obs::MetricEntry* min_dt = after.find("tran.adaptive.min_dt");
  ASSERT_NE(min_dt, nullptr);
  EXPECT_GT(min_dt->gauge, 0.0);
  EXPECT_TRUE(min_dt->deterministic);

  // The edge must be resolved, not stepped over: the output transitions
  // to ~1 V after the edge and the curve around the edge is sampled
  // finely (some step well below the flat-region dt_max).
  MnaLayout layout(c);
  EXPECT_NEAR(tr.voltage_at(layout, out, 60.0 * tau), 1.0, 5e-3);
  EXPECT_NEAR(tr.voltage_at(layout, out, 45.0 * tau), 0.0, 5e-3);
  double min_step = 1e9;
  for (std::size_t i = 1; i < tr.time.size(); ++i) {
    min_step = std::min(min_step, tr.time[i] - tr.time[i - 1]);
  }
  EXPECT_LT(min_step, tau / 10.0);
}

TEST(Tran, AdaptiveBeatsFixedOnStiffEdgeAtReferenceAccuracy) {
  // The stiff-edge gate: the same comparator-style slew fixture run fixed
  // at tau/10 and adaptive.  Adaptive must take >= 5x fewer steps, reject
  // at the edge, and still land every waveform metric within 5% of a
  // converged tau/100 fixed reference (not of the tau/10 run, which
  // under-resolves the edge itself).
  Circuit c;
  const double tau = 1e-6;
  build_stiff_edge(&c);
  const auto out = c.node("out");
  const OpResult op = dc_operating_point(c, tech5());
  ASSERT_TRUE(op.converged);

  TranOptions fixed;
  fixed.tstop = 100.0 * tau;
  fixed.dt = tau / 10.0;
  fixed.mode = TranMode::kFixed;
  TranOptions reference = fixed;
  reference.dt = tau / 100.0;
  const TranResult fix = transient(c, tech5(), op, fixed);
  const TranResult ref = transient(c, tech5(), op, reference);
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  const TranResult adap =
      transient(c, tech5(), op, adaptive_options(fixed.tstop, fixed.dt));
  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
  ASSERT_TRUE(fix.ok) << fix.error;
  ASSERT_TRUE(ref.ok) << ref.error;
  ASSERT_TRUE(adap.ok) << adap.error;

  EXPECT_GE(fix.time.size() - 1, 5 * (adap.time.size() - 1))
      << "fixed " << fix.time.size() - 1 << " steps vs adaptive "
      << adap.time.size() - 1;

  MnaLayout layout(c);
  auto metrics = [&](const TranResult& tr) {
    const auto slew = slew_rate(tr, layout, out);
    return std::vector<double>{slew.has_value() ? slew->rising : 0.0,
                               tr.voltage_at(layout, out, 60.0 * tau),
                               tr.voltage_at(layout, out, fixed.tstop)};
  };
  const std::vector<double> want = metrics(ref);
  const std::vector<double> got = metrics(adap);
  const char* names[] = {"rising slew", "v(60 tau)", "v(tstop)"};
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_GT(std::abs(want[i]), 0.0) << names[i];
    EXPECT_LE(std::abs(got[i] - want[i]) / std::abs(want[i]), 0.05)
        << names[i] << ": adaptive " << got[i] << " vs reference "
        << want[i];
  }

  auto counter = [](const obs::MetricsSnapshot& s, const char* name) {
    const obs::MetricEntry* e = s.find(name);
    return e != nullptr ? e->counter : 0u;
  };
  EXPECT_GT(counter(after, "tran.adaptive.rejects"),
            counter(before, "tran.adaptive.rejects"));
}

TEST(Tran, AdaptiveHonorsExplicitTolerances) {
  // A looser rtol must not take *more* steps than a tighter one.
  Circuit c;
  build_rc(&c, 1e3, 1e-9);
  const OpResult op = dc_operating_point(c, tech5());
  TranOptions loose = adaptive_options(5e-6, 1e-8);
  loose.rtol = 1e-2;
  loose.atol = 1e-5;
  TranOptions tight = adaptive_options(5e-6, 1e-8);
  tight.rtol = 1e-5;
  tight.atol = 1e-8;
  const TranResult lr = transient(c, tech5(), op, loose);
  const TranResult tr = transient(c, tech5(), op, tight);
  ASSERT_TRUE(lr.ok);
  ASSERT_TRUE(tr.ok);
  EXPECT_LE(lr.time.size(), tr.time.size());
  EXPECT_GT(tr.time.size(), 2u);
}

TEST(Tran, DenseOutputInterpolatesBetweenSamples) {
  Circuit c;
  build_rc(&c, 1e3, 1e-9);
  const OpResult op = dc_operating_point(c, tech5());
  TranOptions to;
  to.tstop = 5e-6;
  to.dt = 1e-7;
  const TranResult tr = transient(c, tech5(), op, to);
  ASSERT_TRUE(tr.ok);
  MnaLayout layout(c);
  const auto out = c.node("out");
  // At a sample coordinate voltage_at equals the sample; between samples
  // it lies between the bracketing values.
  EXPECT_EQ(tr.voltage_at(layout, out, tr.time[10]),
            tr.voltage(layout, 10, out));
  const double mid = 0.5 * (tr.time[10] + tr.time[11]);
  const double v = tr.voltage_at(layout, out, mid);
  const double lo = std::min(tr.voltage(layout, 10, out),
                             tr.voltage(layout, 11, out));
  const double hi = std::max(tr.voltage(layout, 10, out),
                             tr.voltage(layout, 11, out));
  EXPECT_GE(v, lo);
  EXPECT_LE(v, hi);
}

TEST(Tran, TranModeParsingAndResolution) {
  TranMode m = TranMode::kDefault;
  EXPECT_TRUE(parse_tran_mode("fixed", &m));
  EXPECT_EQ(m, TranMode::kFixed);
  EXPECT_TRUE(parse_tran_mode("adaptive", &m));
  EXPECT_EQ(m, TranMode::kAdaptive);
  EXPECT_FALSE(parse_tran_mode("banana", &m));
  EXPECT_STREQ(to_string(TranMode::kAdaptive), "adaptive");

  // Explicit selection resolves as itself; kDefault resolves to the
  // process default; restoring the default brings back adaptive (the
  // built-in default; fixed stays selectable as the reference).
  const TranMode saved = tran_mode_default();
  set_tran_mode_default(TranMode::kFixed);
  EXPECT_EQ(resolve_tran_mode(TranMode::kDefault), TranMode::kFixed);
  EXPECT_EQ(resolve_tran_mode(TranMode::kAdaptive), TranMode::kAdaptive);
  set_tran_mode_default(TranMode::kDefault);
  EXPECT_EQ(resolve_tran_mode(TranMode::kDefault), TranMode::kAdaptive);
  set_tran_mode_default(saved);

  // Tolerance defaults: settable, and a non-positive component restores
  // that component's initial value.
  const TranTolerance initial = tran_tolerance_default();
  set_tran_tolerance_default(1e-4, 1e-7);
  EXPECT_DOUBLE_EQ(tran_tolerance_default().rtol, 1e-4);
  EXPECT_DOUBLE_EQ(tran_tolerance_default().atol, 1e-7);
  set_tran_tolerance_default(0.0, 0.0);
  EXPECT_DOUBLE_EQ(tran_tolerance_default().rtol, initial.rtol);
  EXPECT_DOUBLE_EQ(tran_tolerance_default().atol, initial.atol);
}

TEST(Tran, AdaptiveRespectsProcessDefaultMode) {
  // opts.mode == kDefault defers to the process default, which is how
  // the CLI's --tran-mode reaches every measurement in the process.
  Circuit c;
  build_rc(&c, 1e3, 1e-9);
  const OpResult op = dc_operating_point(c, tech5());
  TranOptions to;
  to.tstop = 5e-6;
  to.dt = 1e-8;  // 500 fixed steps

  const TranMode saved = tran_mode_default();
  set_tran_mode_default(TranMode::kAdaptive);
  const TranResult adap = transient(c, tech5(), op, to);
  set_tran_mode_default(TranMode::kFixed);
  const TranResult fixed = transient(c, tech5(), op, to);
  set_tran_mode_default(saved);

  ASSERT_TRUE(adap.ok);
  ASSERT_TRUE(fixed.ok);
  EXPECT_LT(adap.time.size(), fixed.time.size());
}

}  // namespace
}  // namespace oasys::sim
