#include "spice/dense.hpp"

#include <cmath>
#include <utility>

namespace mda::spice {

bool DenseLu::factor(int n, const std::vector<double>& a) {
  n_ = n;
  lu_ = a;
  perm_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm_[static_cast<std::size_t>(i)] = i;
  auto at = [&](int r, int c) -> double& {
    return lu_[static_cast<std::size_t>(r) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(c)];
  };
  for (int k = 0; k < n; ++k) {
    int pivot = k;
    double best = std::abs(at(k, k));
    for (int r = k + 1; r < n; ++r) {
      const double v = std::abs(at(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) return false;
    if (pivot != k) {
      for (int c = 0; c < n; ++c) std::swap(at(k, c), at(pivot, c));
      std::swap(perm_[static_cast<std::size_t>(k)],
                perm_[static_cast<std::size_t>(pivot)]);
    }
    const double inv = 1.0 / at(k, k);
    for (int r = k + 1; r < n; ++r) {
      const double f = at(r, k) * inv;
      at(r, k) = f;
      if (f == 0.0) continue;
      for (int c = k + 1; c < n; ++c) at(r, c) -= f * at(k, c);
    }
  }
  return true;
}

void DenseLu::solve(std::vector<double>& b) {
  const int n = n_;
  y_.resize(static_cast<std::size_t>(n));
  std::vector<double>& y = y_;
  auto at = [&](int r, int c) -> double {
    return lu_[static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(c)];
  };
  for (int i = 0; i < n; ++i) {
    double acc = b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
    for (int j = 0; j < i; ++j) acc -= at(i, j) * y[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = acc;
  }
  for (int i = n - 1; i >= 0; --i) {
    double acc = y[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < n; ++j) {
      acc -= at(i, j) * b[static_cast<std::size_t>(j)];
    }
    b[static_cast<std::size_t>(i)] = acc / at(i, i);
  }
}

}  // namespace mda::spice
