#pragma once
// Small dense LU with partial pivoting: the reference the sparse LU is
// cross-checked against in tests.  No simulation path uses it; MnaSystem
// solves every system with SparseLu (DESIGN.md §10).

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
