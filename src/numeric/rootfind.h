// Scalar root finding and minimization.
//
// Used by the measurement layer (e.g. finding the input offset voltage that
// centers an op amp's output) and by design equations that have no closed
// form (e.g. solving for an overdrive voltage under a headroom constraint).
#pragma once

#include <functional>
#include <optional>
#include <utility>

namespace oasys::num {

struct RootOptions {
  double xtol = 1e-12;     // absolute tolerance on the root location
  double ftol = 0.0;       // |f| below this counts as converged
  int max_iterations = 200;
};

// Bisection on [lo, hi].  Requires f(lo) and f(hi) to have opposite signs
// (or one of them to be ~0); returns nullopt otherwise or on non-finite f.
std::optional<double> bisect(const std::function<double(double)>& f,
                             double lo, double hi,
                             const RootOptions& opts = {});

// Expands [lo, hi] geometrically about its center until f changes sign or
// `max_expansions` is hit; returns the bracketing interval if found.
std::optional<std::pair<double, double>> bracket_root(
    const std::function<double(double)>& f, double lo, double hi,
    int max_expansions = 40);

// Golden-section minimization of a unimodal f on [lo, hi].
double golden_minimize(const std::function<double(double)>& f, double lo,
                       double hi, double xtol = 1e-9);

}  // namespace oasys::num
