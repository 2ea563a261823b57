#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>

#include "numeric/interpolate.h"
#include "numeric/linear.h"
#include "numeric/matrix.h"
#include "numeric/rootfind.h"

namespace oasys::num {
namespace {

// ---- matrix ----------------------------------------------------------------

TEST(Matrix, BasicAccess) {
  RealMatrix m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = -4.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 2), -4.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(Matrix, OutOfRangeThrows) {
  RealMatrix m(2, 2);
  EXPECT_THROW(m(2, 0), std::out_of_range);
  EXPECT_THROW(m(0, 2), std::out_of_range);
}

TEST(Matrix, Identity) {
  const auto id = RealMatrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, Multiply) {
  RealMatrix m(2, 2);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 3.0;
  m(1, 1) = 4.0;
  const auto y = m.multiply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  EXPECT_THROW(m.multiply({1.0}), std::invalid_argument);
}

// ---- LU ---------------------------------------------------------------------

// Factors a copy of `a` with the in-place kernel.
template <typename T>
LuFactors<T> factor(Matrix<T> a) {
  LuFactors<T> f;
  lu_factor_in_place(&a, &f);
  return f;
}

// Solves a x = b with the in-place kernels; the factorization must not be
// singular.
template <typename T>
std::vector<T> solve(const Matrix<T>& a, std::vector<T> b) {
  const LuFactors<T> f = factor(a);
  EXPECT_FALSE(f.singular);
  lu_solve_in_place(f, &b);
  return b;
}

TEST(Lu, SolvesSmallSystem) {
  RealMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const auto x = solve(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the initial diagonal forces a row swap.
  RealMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const auto x = solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
  RealMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  const auto f = factor(a);
  EXPECT_TRUE(f.singular);
  std::vector<double> b = {1.0, 1.0};
  EXPECT_THROW(lu_solve_in_place(f, &b), SingularMatrixError);
  // SingularMatrixError remains catchable as the historical base type.
  EXPECT_THROW(lu_solve_in_place(f, &b), std::runtime_error);
}

TEST(Lu, DetectsSingularComplex) {
  using C = std::complex<double>;
  ComplexMatrix a(2, 2);
  a(0, 0) = C(1.0, 1.0);
  a(0, 1) = C(2.0, 2.0);
  a(1, 0) = C(2.0, 2.0);
  a(1, 1) = C(4.0, 4.0);  // row 1 = 2 * row 0
  const auto f = factor(a);
  EXPECT_TRUE(f.singular);
  std::vector<C> b = {C(1.0, 0.0), C(1.0, 0.0)};
  EXPECT_THROW(lu_solve_in_place(f, &b), SingularMatrixError);
}

TEST(Lu, RhsSizeMismatchStaysInvalidArgument) {
  // Size mismatch is a caller bug, not a numerical condition; it keeps the
  // std::invalid_argument contract and is never conflated with
  // singularity.
  RealMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  const auto f = factor(a);
  ASSERT_FALSE(f.singular);
  std::vector<double> b = {1.0};
  EXPECT_THROW(lu_solve_in_place(f, &b), std::invalid_argument);
}

TEST(Lu, RandomRoundTrip) {
  // One factors object reused across systems of varying size: the
  // steady-state hot path.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  LuFactors<double> f;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 12);
    RealMatrix a(n, n);
    std::vector<double> x_true(n);
    for (std::size_t r = 0; r < n; ++r) {
      x_true[r] = u(rng);
      for (std::size_t c = 0; c < n; ++c) a(r, c) = u(rng);
      a(r, r) += 4.0;  // keep well conditioned
    }
    std::vector<double> x = a.multiply(x_true);
    lu_factor_in_place(&a, &f);
    ASSERT_FALSE(f.singular);
    lu_solve_in_place(f, &x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Lu, ComplexSolve) {
  using C = std::complex<double>;
  ComplexMatrix a(2, 2);
  a(0, 0) = C(1.0, 1.0);
  a(0, 1) = C(0.0, -1.0);
  a(1, 0) = C(2.0, 0.0);
  a(1, 1) = C(1.0, 0.0);
  const std::vector<C> x_true = {C(1.0, -1.0), C(0.5, 2.0)};
  const auto x = solve(a, a.multiply(x_true));
  EXPECT_NEAR(std::abs(x[0] - x_true[0]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - x_true[1]), 0.0, 1e-12);
}

TEST(Lu, NonSquareThrows) {
  RealMatrix a(2, 3);
  EXPECT_THROW(factor(a), std::invalid_argument);
}

TEST(Lu, MaxAbs) {
  EXPECT_DOUBLE_EQ(max_abs(std::vector<double>{1.0, -3.0, 2.0}), 3.0);
  EXPECT_DOUBLE_EQ(max_abs(std::vector<double>{}), 0.0);
}

// ---- in-place LU -----------------------------------------------------------

TEST(LuInPlace, SingularIsFlaggedAndSolveThrows) {
  RealMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  LuFactors<double> f;
  lu_factor_in_place(&a, &f);
  EXPECT_TRUE(f.singular);
  std::vector<double> b = {1.0, 1.0};
  EXPECT_THROW(lu_solve_in_place(f, &b), SingularMatrixError);
}

TEST(LuInPlace, NonSquareThrows) {
  RealMatrix a(2, 3);
  LuFactors<double> f;
  EXPECT_THROW(lu_factor_in_place(&a, &f), std::invalid_argument);
}

TEST(LuInPlace, RhsSizeMismatchThrows) {
  RealMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  LuFactors<double> f;
  lu_factor_in_place(&a, &f);
  ASSERT_FALSE(f.singular);
  std::vector<double> b = {1.0};
  EXPECT_THROW(lu_solve_in_place(f, &b), std::invalid_argument);
}

TEST(LuInPlace, StorageAdoptionRoundTrip) {
  // lu_factor_in_place swaps the caller's matrix with the factors' buffer:
  // after the first call the caller holds an empty matrix, after the second
  // the previous factor storage — so a refill-and-refactor loop settles
  // into recycling the same two buffers.
  LuFactors<double> f;
  RealMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  lu_factor_in_place(&a, &f);
  EXPECT_EQ(a.rows(), 0u);  // adopted f's initial (empty) buffer
  std::vector<double> x = {5.0, 10.0};
  lu_solve_in_place(f, &x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);

  a = RealMatrix(2, 2);  // the caller-side "refill before next call" guard
  a(0, 0) = 1.0;
  a(1, 1) = 4.0;
  lu_factor_in_place(&a, &f);
  EXPECT_EQ(a.rows(), 2u);  // got the first call's factor buffer back
  x = {3.0, 8.0};
  lu_solve_in_place(f, &x);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

// ---- root finding ---------------------------------------------------------------

TEST(RootFind, BisectSimple) {
  const auto r = bisect([](double x) { return x * x - 4.0; }, 0.0, 10.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, 2.0, 1e-9);
}

TEST(RootFind, BisectNoSignChange) {
  EXPECT_FALSE(bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0)
                   .has_value());
}

TEST(RootFind, BisectEndpointRoot) {
  RootOptions o;
  o.ftol = 1e-15;
  const auto r = bisect([](double x) { return x; }, 0.0, 1.0, o);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 0.0);
}

TEST(RootFind, BracketExpands) {
  const auto b =
      bracket_root([](double x) { return x - 50.0; }, -1.0, 1.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_LE(b->first, 50.0);
  EXPECT_GE(b->second, 50.0);
}

TEST(RootFind, BracketGivesUp) {
  EXPECT_FALSE(bracket_root([](double) { return 1.0; }, -1.0, 1.0, 5)
                   .has_value());
}

TEST(RootFind, GoldenMinimize) {
  const double x =
      golden_minimize([](double v) { return (v - 1.5) * (v - 1.5); }, -10.0,
                      10.0, 1e-10);
  EXPECT_NEAR(x, 1.5, 1e-7);
}

// ---- interpolation ------------------------------------------------------------------

TEST(Interp, LinearInterior) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> ys = {0.0, 10.0, 40.0};
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 1.5), 25.0);
}

TEST(Interp, LinearClampsOutside) {
  const std::vector<double> xs = {0.0, 1.0};
  const std::vector<double> ys = {3.0, 7.0};
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, -1.0), 3.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 2.0), 7.0);
}

TEST(Interp, SizeMismatchThrows) {
  EXPECT_THROW(interp_linear({1.0}, {}, 0.5), std::invalid_argument);
  EXPECT_THROW(interp_linear({}, {}, 0.5), std::invalid_argument);
}

TEST(Interp, SemilogIsLinearInDecades) {
  const std::vector<double> xs = {1.0, 10.0, 100.0};
  const std::vector<double> ys = {0.0, -20.0, -40.0};
  // Halfway in log space between 1 and 10 is sqrt(10).
  EXPECT_NEAR(interp_semilogx(xs, ys, std::sqrt(10.0)), -10.0, 1e-9);
  EXPECT_THROW(interp_semilogx({0.0, 1.0}, {1.0, 2.0}, 0.5),
               std::invalid_argument);
}

TEST(Interp, FirstCrossing) {
  const std::vector<double> xs = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> ys = {10.0, 6.0, 2.0, -2.0};
  const auto c = first_crossing(xs, ys, 4.0);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(*c, 1.5, 1e-12);
  const auto zero = first_crossing(xs, ys, 0.0);
  ASSERT_TRUE(zero.has_value());
  EXPECT_NEAR(*zero, 2.5, 1e-12);
  EXPECT_FALSE(first_crossing(xs, ys, 100.0).has_value());
}

TEST(Interp, LogspaceEndpointsAndMonotone) {
  const auto v = logspace(1.0, 1e6, 7);
  ASSERT_EQ(v.size(), 7u);
  EXPECT_NEAR(v.front(), 1.0, 1e-12);
  EXPECT_NEAR(v.back(), 1e6, 1e-6);
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_GT(v[i], v[i - 1]);
  EXPECT_NEAR(v[1] / v[0], 10.0, 1e-9);
  EXPECT_THROW(logspace(0.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(logspace(1.0, 2.0, 1), std::invalid_argument);
}

TEST(Interp, Linspace) {
  const auto v = linspace(-1.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v[0], -1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
  EXPECT_DOUBLE_EQ(v[4], 1.0);
}

}  // namespace
}  // namespace oasys::num
