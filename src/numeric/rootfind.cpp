#include "numeric/rootfind.h"

#include <cmath>
#include <utility>

namespace oasys::num {

namespace {
bool finite(double x) { return std::isfinite(x); }
}  // namespace

std::optional<double> bisect(const std::function<double(double)>& f,
                             double lo, double hi, const RootOptions& opts) {
  if (!(lo <= hi)) std::swap(lo, hi);
  double flo = f(lo);
  double fhi = f(hi);
  if (!finite(flo) || !finite(fhi)) return std::nullopt;
  if (std::abs(flo) <= opts.ftol) return lo;
  if (std::abs(fhi) <= opts.ftol) return hi;
  if (flo * fhi > 0.0) return std::nullopt;
  for (int i = 0; i < opts.max_iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (!finite(fmid)) return std::nullopt;
    if (std::abs(fmid) <= opts.ftol || (hi - lo) * 0.5 < opts.xtol) {
      return mid;
    }
    if (flo * fmid <= 0.0) {
      hi = mid;
      fhi = fmid;
    } else {
      lo = mid;
      flo = fmid;
    }
  }
  return 0.5 * (lo + hi);
}

std::optional<std::pair<double, double>> bracket_root(
    const std::function<double(double)>& f, double lo, double hi,
    int max_expansions) {
  if (!(lo <= hi)) std::swap(lo, hi);
  double flo = f(lo);
  double fhi = f(hi);
  for (int i = 0; i < max_expansions; ++i) {
    if (finite(flo) && finite(fhi) && flo * fhi <= 0.0) {
      return std::make_pair(lo, hi);
    }
    const double center = 0.5 * (lo + hi);
    const double half = std::max(0.75 * (hi - lo), 1e-12);
    lo = center - half * 2.0;
    hi = center + half * 2.0;
    flo = f(lo);
    fhi = f(hi);
  }
  return std::nullopt;
}

double golden_minimize(const std::function<double(double)>& f, double lo,
                       double hi, double xtol) {
  if (!(lo <= hi)) std::swap(lo, hi);
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  while (b - a > xtol) {
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    }
  }
  return 0.5 * (a + b);
}

}  // namespace oasys::num
