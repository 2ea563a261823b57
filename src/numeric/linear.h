// Dense LU factorization with partial pivoting and linear solves.
//
// This is the single linear-algebra kernel behind every circuit analysis:
// Newton iterations (DC, transient) factor a real Jacobian; AC analysis
// factors a complex MNA matrix per frequency point.
//
// Both kernels work in place — lu_factor_in_place / lu_solve_in_place
// reuse the caller's matrix storage, pivot record, and RHS buffer,
// so a hot loop (Newton iteration, per-frequency solve) performs zero heap
// allocations in steady state.
#pragma once

#include <complex>
#include <stdexcept>
#include <vector>

#include "numeric/matrix.h"

namespace oasys::num {

// Thrown by lu_solve_in_place on a singular factorization.  Derives from
// std::runtime_error, which singular solves historically threw.
class SingularMatrixError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Result of an in-place LU factorization (PA = LU).
template <typename T>
struct LuFactors {
  Matrix<T> lu;  // combined L (unit diagonal) and U
  // The row permutation as an in-order swap sequence (LAPACK ipiv style):
  // elimination step k exchanged rows k and pivots[k].  lu_solve_in_place
  // replays these swaps to permute the RHS without scratch storage.
  std::vector<std::size_t> pivots;
  bool singular = false;
};

// Factors the matrix held in `*a`, reusing `f`'s storage (matrix buffer and
// pivot record); allocation-free once `f` has been used for a system
// of the same size.  On return `f->lu` owns the factored storage and `*a`
// holds `f`'s previous (unspecified) buffer — refill it before the next
// call.  Never throws on singularity — callers must check f->singular.
// Throws std::invalid_argument if `*a` is not square.
template <typename T>
void lu_factor_in_place(Matrix<T>* a, LuFactors<T>* f);

// Solves LU x = Pb in place: `*b` holds the RHS on entry and the solution
// on return, with no allocation.  Throws SingularMatrixError if the
// factorization was singular and std::invalid_argument on size mismatch.
template <typename T>
void lu_solve_in_place(const LuFactors<T>& f, std::vector<T>* b);

// Max norm of a vector.
double max_abs(const std::vector<double>& v);
double max_abs(const std::vector<std::complex<double>>& v);

extern template void lu_factor_in_place(Matrix<double>*, LuFactors<double>*);
extern template void lu_factor_in_place(Matrix<std::complex<double>>*,
                                        LuFactors<std::complex<double>>*);
extern template void lu_solve_in_place(const LuFactors<double>&,
                                       std::vector<double>*);
extern template void lu_solve_in_place(
    const LuFactors<std::complex<double>>&,
    std::vector<std::complex<double>>*);

}  // namespace oasys::num
