#include "synth/test_cases.h"

#include "util/units.h"

namespace oasys::synth {

using namespace util;  // unit helpers

core::OpAmpSpec spec_case_a() {
  return {
      .name = "A",
      .gain_min_db = 45.0,
      .gbw_min = mhz(1.0),
      .pm_min_deg = 45.0,
      .slew_min = v_per_us(1.0),
      .cload = pf(10.0),
      .swing_pos = 1.0,
      .swing_neg = 1.0,
      .offset_max = mv(20.0),
      .icmr_lo = -2.0,
      .icmr_hi = 2.0,
      .power_max = mw(5.0),
  };
}

core::OpAmpSpec spec_case_b() {
  return {
      .name = "B",
      .gain_min_db = 70.0,
      .gbw_min = mhz(2.0),
      .pm_min_deg = 45.0,
      .slew_min = v_per_us(2.0),
      .cload = pf(10.0),
      .swing_pos = 3.5,
      .swing_neg = 3.5,
      .offset_max = mv(2.0),
      .icmr_lo = -2.0,
      .icmr_hi = 2.0,
      .power_max = mw(10.0),
  };
}

core::OpAmpSpec spec_case_c() {
  return {
      .name = "C",
      .gain_min_db = 100.0,
      .gbw_min = mhz(5.0),
      .pm_min_deg = 45.0,
      .slew_min = v_per_us(5.0),
      .cload = pf(5.0),
      .swing_pos = 2.5,
      .swing_neg = 2.5,
      .offset_max = mv(1.0),
      .icmr_lo = -1.5,
      .icmr_hi = 1.5,
      .power_max = mw(15.0),
  };
}

std::vector<core::OpAmpSpec> paper_test_cases() {
  return {spec_case_a(), spec_case_b(), spec_case_c()};
}

}  // namespace oasys::synth
