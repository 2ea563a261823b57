// Random-mismatch (matching) analysis.
//
// The paper's Section 2.1 singles out matching as the process constraint
// that dominates analog design ("a particular design style ... may require
// components with precisely matched electrical characteristics").  This
// module predicts it for synthesized op amps: the one-sigma random input
// offset from the classic area law sigma(VT) = AVT/sqrt(W*L), referred
// through the first stage (pair directly, load mirror scaled by gm3/gm1).
// The Monte-Carlo measurement it is checked against is yield's
// (yield::analyze_yield, offset statistics).
#pragma once

#include "synth/opamp_design.h"
#include "tech/technology.h"

namespace oasys::synth {

// Analytic one-sigma random input offset [V] (first-stage devices only;
// later stages are attenuated by the first-stage gain).
double predict_random_offset_sigma(const OpAmpDesign& design,
                                   const tech::Technology& t);

}  // namespace oasys::synth
