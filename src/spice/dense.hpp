#pragma once
// Small dense LU with partial pivoting.  Used for tiny systems (single
// blocks, device characterisation) and as a cross-check for the sparse path.
// It has no batched form: BatchNewtonSolver (DESIGN.md §12) sends lanes at
// or below MnaSystem::kDenseThreshold unknowns to the scalar solve.

#include <cstddef>
#include <vector>

namespace mda::spice {

class DenseLu {
 public:
  /// Factor the n-by-n row-major matrix `a` (copied).  Returns false if
  /// singular.  Reuses internal buffers across calls — factoring repeatedly
  /// at the same dimension allocates nothing.
  bool factor(int n, const std::vector<double>& a);

  /// Solve in place.
  void solve(std::vector<double>& b);

  [[nodiscard]] int dimension() const { return n_; }

 private:
  int n_ = 0;
  std::vector<double> lu_;   ///< Row-major combined LU factors.
  std::vector<int> perm_;    ///< Row permutation.
  std::vector<double> y_;    ///< Forward-substitution workspace.
};

}  // namespace mda::spice
