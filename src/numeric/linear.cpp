#include "numeric/linear.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace oasys::num {

namespace {

double magnitude(double x) { return std::abs(x); }
double magnitude(const std::complex<double>& x) { return std::abs(x); }

}  // namespace

template <typename T>
void lu_factor_in_place(Matrix<T>* a, LuFactors<T>* f) {
  if (a->rows() != a->cols()) {
    throw std::invalid_argument("lu_factor: matrix must be square");
  }
  const std::size_t n = a->rows();
  // Adopt the caller's storage; `*a` gets the factorization's previous
  // buffer back (same size in steady state), ready for refilling.
  std::swap(f->lu, *a);
  Matrix<T>& lu = f->lu;
  f->pivots.resize(n);
  f->singular = false;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: pick the largest |a(i,k)| for i >= k.
    std::size_t pivot_row = k;
    double best = magnitude(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = magnitude(lu(i, k));
      if (m > best) {
        best = m;
        pivot_row = i;
      }
    }
    if (best == 0.0 || !std::isfinite(best)) {
      f->singular = true;
      for (std::size_t i = k; i < n; ++i) f->pivots[i] = i;
      return;
    }
    f->pivots[k] = pivot_row;
    if (pivot_row != k) {
      T* rk = lu.row(k);
      T* rp = lu.row(pivot_row);
      for (std::size_t c = 0; c < n; ++c) std::swap(rk[c], rp[c]);
    }
    const T pivot = lu(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      T* ri = lu.row(i);
      const T* rk = lu.row(k);
      const T factor = ri[k] / pivot;
      ri[k] = factor;  // store L entry in place
      if (factor != T{}) {
        for (std::size_t c = k + 1; c < n; ++c) ri[c] -= factor * rk[c];
      }
    }
  }
}

template <typename T>
void lu_solve_in_place(const LuFactors<T>& f, std::vector<T>* b) {
  if (f.singular) {
    throw SingularMatrixError("lu_solve: factorization is singular");
  }
  const std::size_t n = f.lu.rows();
  if (b->size() != n) {
    throw std::invalid_argument("lu_solve: rhs size mismatch");
  }
  T* x = b->data();
  // Replay the recorded row swaps: x <- Pb, no scratch needed.
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t p = f.pivots[k];
    if (p != k) std::swap(x[k], x[p]);
  }
  // Forward substitution in place (L has unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    const T* ri = f.lu.row(i);
    T acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= ri[j] * x[j];
    x[i] = acc;
  }
  // Back substitution in place.
  for (std::size_t ii = n; ii-- > 0;) {
    const T* ri = f.lu.row(ii);
    T acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= ri[j] * x[j];
    x[ii] = acc / ri[ii];
  }
}

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

double max_abs(const std::vector<std::complex<double>>& v) {
  double m = 0.0;
  for (const auto& x : v) m = std::max(m, std::abs(x));
  return m;
}

template void lu_factor_in_place(Matrix<double>*, LuFactors<double>*);
template void lu_factor_in_place(Matrix<std::complex<double>>*,
                                 LuFactors<std::complex<double>>*);
template void lu_solve_in_place(const LuFactors<double>&,
                                std::vector<double>*);
template void lu_solve_in_place(const LuFactors<std::complex<double>>&,
                                std::vector<std::complex<double>>*);

}  // namespace oasys::num
