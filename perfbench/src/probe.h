// sim_probe: times the numeric kernels on one design's real testbench
// system, so the traced run can put a computed share beside the spans.
#pragma once

#include <cstddef>

#include "synth/opamp_design.h"
#include "tech/technology.h"

namespace perfbench {

struct ProbeResult {
  bool ok = false;
  std::size_t mna_size = 0;
  std::size_t devices = 0;
  // Median microseconds per call.
  double eval_us = 0.0;               // NonlinearSystem::eval (J and f)
  double lu_factor_real_us = 0.0;     // lu_factor_in_place, DC Jacobian
  double lu_solve_real_us = 0.0;      // lu_solve_in_place, DC Jacobian
  double lu_factor_complex_us = 0.0;  // lu_factor_in_place, G + jwC
  double lu_solve_complex_us = 0.0;   // lu_solve_in_place, G + jwC
};

// Builds the open-loop bench of `design` (supplies, inputs at the common-
// mode midpoint, the spec load — the fixture yield and the offset search
// use), solves its operating point, and times each kernel on that
// Jacobian.
ProbeResult probe_design(const oasys::synth::OpAmpDesign& design,
                         const oasys::tech::Technology& t);

}  // namespace perfbench
