#include "spice/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mda::spice {

CscMatrix CscMatrix::from_triplets(int n, const std::vector<int>& rows,
                                   const std::vector<int>& cols,
                                   const std::vector<double>& vals) {
  if (rows.size() != cols.size() || rows.size() != vals.size()) {
    throw std::invalid_argument("from_triplets: size mismatch");
  }
  CscMatrix m;
  m.n = n;
  m.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  const std::size_t nnz_in = vals.size();
  // Count entries per column.
  for (std::size_t k = 0; k < nnz_in; ++k) {
    ++m.col_ptr[static_cast<std::size_t>(cols[k]) + 1];
  }
  for (int c = 0; c < n; ++c) {
    m.col_ptr[static_cast<std::size_t>(c) + 1] +=
        m.col_ptr[static_cast<std::size_t>(c)];
  }
  m.row_idx.resize(nnz_in);
  m.values.resize(nnz_in);
  std::vector<int> next(m.col_ptr.begin(), m.col_ptr.end() - 1);
  for (std::size_t k = 0; k < nnz_in; ++k) {
    const int c = cols[k];
    const int dst = next[static_cast<std::size_t>(c)]++;
    m.row_idx[static_cast<std::size_t>(dst)] = rows[k];
    m.values[static_cast<std::size_t>(dst)] = vals[k];
  }
  // Sort each column by row and sum duplicates in place.
  std::vector<int> order;
  CscMatrix out;
  out.n = n;
  out.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  out.row_idx.reserve(nnz_in);
  out.values.reserve(nnz_in);
  for (int c = 0; c < n; ++c) {
    const int begin = m.col_ptr[static_cast<std::size_t>(c)];
    const int end = m.col_ptr[static_cast<std::size_t>(c) + 1];
    order.resize(static_cast<std::size_t>(end - begin));
    for (int k = begin; k < end; ++k) {
      order[static_cast<std::size_t>(k - begin)] = k;
    }
    std::sort(order.begin(), order.end(), [&](int x, int y) {
      return m.row_idx[static_cast<std::size_t>(x)] <
             m.row_idx[static_cast<std::size_t>(y)];
    });
    int last_row = -1;
    for (int k : order) {
      const int r = m.row_idx[static_cast<std::size_t>(k)];
      const double v = m.values[static_cast<std::size_t>(k)];
      if (r == last_row) {
        out.values.back() += v;
      } else {
        out.row_idx.push_back(r);
        out.values.push_back(v);
        last_row = r;
      }
    }
    out.col_ptr[static_cast<std::size_t>(c) + 1] =
        static_cast<int>(out.row_idx.size());
  }
  return out;
}

void CscMatrix::multiply(const std::vector<double>& x,
                         std::vector<double>& y) const {
  y.assign(static_cast<std::size_t>(n), 0.0);
  for (int c = 0; c < n; ++c) {
    const double xc = x[static_cast<std::size_t>(c)];
    if (xc == 0.0) continue;
    for (int k = col_ptr[static_cast<std::size_t>(c)];
         k < col_ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      y[static_cast<std::size_t>(row_idx[static_cast<std::size_t>(k)])] +=
          values[static_cast<std::size_t>(k)] * xc;
    }
  }
}

void SparseLu::reset() {
  factored_ = false;
  a_nnz_ = 0;
  n_ = 0;
  pivot_mem_.clear();
  ++factor_epoch_;
}

bool SparseLu::factor(const CscMatrix& a) {
  n_ = a.n;
  const int n = n_;
  factored_ = false;
  ++factor_epoch_;  // the structure below is rebuilt from scratch
  a_nnz_ = static_cast<int>(a.values.size());
  l_colptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  u_colptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  l_rowidx_.clear();
  l_values_.clear();
  u_rowidx_.clear();
  u_values_.clear();
  perm_.assign(static_cast<std::size_t>(n), -1);
  pinv_.assign(static_cast<std::size_t>(n), -1);
  eptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  eorder_.clear();
  eorder_.reserve(static_cast<std::size_t>(a_nnz_));

  // Dense work vector (values by original row index) and visit marks.
  work_.assign(static_cast<std::size_t>(n), 0.0);
  mark_.assign(static_cast<std::size_t>(n), -1);
  std::vector<double>& work = work_;
  std::vector<int>& mark = mark_;
  std::vector<int> pattern;      // reach set, in reverse topological order
  std::vector<int> stack_node;   // DFS stacks
  std::vector<int> stack_edge;
  pattern.reserve(static_cast<std::size_t>(n));

  for (int j = 0; j < n; ++j) {
    // --- Symbolic: reachability of A(:,j) through the L structure. ---
    pattern.clear();
    for (int k = a.col_ptr[static_cast<std::size_t>(j)];
         k < a.col_ptr[static_cast<std::size_t>(j) + 1]; ++k) {
      int r = a.row_idx[static_cast<std::size_t>(k)];
      if (mark[static_cast<std::size_t>(r)] == j) continue;
      // Depth-first search from r following columns of L already computed.
      stack_node.clear();
      stack_edge.clear();
      stack_node.push_back(r);
      const int piv0 = pinv_[static_cast<std::size_t>(r)];
      stack_edge.push_back(piv0 >= 0 ? l_colptr_[static_cast<std::size_t>(piv0)]
                                     : -1);
      mark[static_cast<std::size_t>(r)] = j;
      while (!stack_node.empty()) {
        const int node = stack_node.back();
        int& edge = stack_edge.back();
        const int piv = pinv_[static_cast<std::size_t>(node)];
        bool descended = false;
        if (piv >= 0) {
          const int end = l_colptr_[static_cast<std::size_t>(piv) + 1];
          while (edge < end) {
            const int child = l_rowidx_[static_cast<std::size_t>(edge)];
            ++edge;
            if (mark[static_cast<std::size_t>(child)] != j) {
              mark[static_cast<std::size_t>(child)] = j;
              stack_node.push_back(child);
              const int cpiv = pinv_[static_cast<std::size_t>(child)];
              stack_edge.push_back(
                  cpiv >= 0 ? l_colptr_[static_cast<std::size_t>(cpiv)] : -1);
              descended = true;
              break;
            }
          }
        }
        if (!descended) {
          pattern.push_back(node);  // post-order => reverse topological
          stack_node.pop_back();
          stack_edge.pop_back();
        }
      }
    }
    // Record the processing (topological) order so refactor() can replay the
    // numeric sweep with the exact same arithmetic sequence.
    for (auto it = pattern.rbegin(); it != pattern.rend(); ++it) {
      eorder_.push_back(*it);
    }
    eptr_[static_cast<std::size_t>(j) + 1] = static_cast<int>(eorder_.size());

    // --- Numeric: sparse triangular solve x = L \ A(:,j). ---
    for (int r : pattern) work[static_cast<std::size_t>(r)] = 0.0;
    for (int k = a.col_ptr[static_cast<std::size_t>(j)];
         k < a.col_ptr[static_cast<std::size_t>(j) + 1]; ++k) {
      work[static_cast<std::size_t>(a.row_idx[static_cast<std::size_t>(k)])] =
          a.values[static_cast<std::size_t>(k)];
    }
    // Process in topological order (reverse of post-order list).
    for (auto it = pattern.rbegin(); it != pattern.rend(); ++it) {
      const int r = *it;
      const int piv = pinv_[static_cast<std::size_t>(r)];
      if (piv < 0) continue;  // row not yet pivotal: stays in L part
      const double xr = work[static_cast<std::size_t>(r)];
      if (xr == 0.0) continue;
      for (int k = l_colptr_[static_cast<std::size_t>(piv)];
           k < l_colptr_[static_cast<std::size_t>(piv) + 1]; ++k) {
        work[static_cast<std::size_t>(l_rowidx_[static_cast<std::size_t>(k)])] -=
            l_values_[static_cast<std::size_t>(k)] * xr;
      }
    }

    // --- Pivot: partial pivoting with sticky pivot memory. ---
    // Plain magnitude pivoting picks an excellent (low-fill) pivot sequence
    // under DC operating-point values, but transient values — dominated by
    // huge C/dt companion conductances — steer the argmax towards a
    // catastrophically filled ordering (20x worse on large arrays), and its
    // winner races between near-tied rows as Newton values drift by ULPs.
    // So a repivoting factor() prefers the pivot the *previous* successful
    // factor() chose for this column whenever that row is still available
    // and within threshold_pivot_ratio of the magnitude winner (the
    // SuperLU/SPICE threshold-pivoting rule); only genuinely degraded
    // columns fall back to the argmax.  Fill stays at the quality of the
    // first factorisation and pivots become stable across Newton value
    // drift, which is what makes refactor() reuse pay off.
    int pivot_row = -1;
    double max_abs = 0.0;
    for (int r : pattern) {
      if (pinv_[static_cast<std::size_t>(r)] >= 0) continue;
      const double v = std::abs(work[static_cast<std::size_t>(r)]);
      if (v > max_abs) {
        max_abs = v;
        pivot_row = r;
      }
    }
    if (pivot_row < 0 || max_abs < 1e-300) return false;  // singular
    if (static_cast<int>(pivot_mem_.size()) == n) {
      const int prev = pivot_mem_[static_cast<std::size_t>(j)];
      if (prev >= 0 && prev != pivot_row &&
          mark[static_cast<std::size_t>(prev)] == j &&
          pinv_[static_cast<std::size_t>(prev)] < 0 &&
          std::abs(work[static_cast<std::size_t>(prev)]) >=
              threshold_pivot_ratio * max_abs) {
        pivot_row = prev;
      }
    }
    perm_[static_cast<std::size_t>(j)] = pivot_row;
    pinv_[static_cast<std::size_t>(pivot_row)] = j;
    const double pivot_val = work[static_cast<std::size_t>(pivot_row)];

    // --- Store U(:,j) (pivotal rows) and L(:,j) (non-pivotal / pivot_row). ---
    // Exact zeros are stored too: the L/U structure must depend only on the
    // A pattern and the pivot sequence (never on values) so that refactor()
    // always finds a slot for every entry of the replayed sweep.  A stored
    // 0.0 only ever contributes `x -= 0.0 * y` updates downstream, which
    // leave every nonzero bit pattern untouched.
    for (auto it = pattern.rbegin(); it != pattern.rend(); ++it) {
      const int r = *it;
      const double v = work[static_cast<std::size_t>(r)];
      const int piv = pinv_[static_cast<std::size_t>(r)];
      if (r == pivot_row) continue;
      if (piv >= 0 && piv < j) {
        u_rowidx_.push_back(piv);
        u_values_.push_back(v);
      } else {
        l_rowidx_.push_back(r);
        l_values_.push_back(v / pivot_val);
      }
    }
    // Diagonal of U last in the column (handy for back-substitution).
    u_rowidx_.push_back(j);
    u_values_.push_back(pivot_val);
    l_colptr_[static_cast<std::size_t>(j) + 1] =
        static_cast<int>(l_rowidx_.size());
    u_colptr_[static_cast<std::size_t>(j) + 1] =
        static_cast<int>(u_rowidx_.size());
  }
  factored_ = true;
  pivot_mem_ = perm_;
  return true;
}

bool SparseLu::refactor(const CscMatrix& a) { return refactor_impl(a, false); }

bool SparseLu::refactor_cold_exact(const CscMatrix& a) {
  return refactor_impl(a, true);
}

bool SparseLu::refactor_impl(const CscMatrix& a, bool cold_exact) {
  if (!factored_ || a.n != n_ ||
      static_cast<int>(a.values.size()) != a_nnz_) {
    return false;
  }
  const int n = n_;
  // Any early return below leaves partially overwritten L/U values; mark the
  // factorisation stale so a full factor() is required before solving.
  factored_ = false;
  std::vector<double>& work = work_;

  for (int j = 0; j < n; ++j) {
    const int s0 = eptr_[static_cast<std::size_t>(j)];
    const int s1 = eptr_[static_cast<std::size_t>(j) + 1];
    // Load A(:,j) over a zeroed reach set.
    for (int s = s0; s < s1; ++s) {
      work[static_cast<std::size_t>(eorder_[static_cast<std::size_t>(s)])] =
          0.0;
    }
    for (int k = a.col_ptr[static_cast<std::size_t>(j)];
         k < a.col_ptr[static_cast<std::size_t>(j) + 1]; ++k) {
      work[static_cast<std::size_t>(a.row_idx[static_cast<std::size_t>(k)])] =
          a.values[static_cast<std::size_t>(k)];
    }
    // Replay the elimination in the recorded topological order.  A row is
    // pivotal "at time j" exactly when its final pivot position is < j.
    for (int s = s0; s < s1; ++s) {
      const int r = eorder_[static_cast<std::size_t>(s)];
      const int piv = pinv_[static_cast<std::size_t>(r)];
      if (piv >= j) continue;
      const double xr = work[static_cast<std::size_t>(r)];
      if (xr == 0.0) continue;
      for (int k = l_colptr_[static_cast<std::size_t>(piv)];
           k < l_colptr_[static_cast<std::size_t>(piv) + 1]; ++k) {
        work[static_cast<std::size_t>(l_rowidx_[static_cast<std::size_t>(k)])] -=
            l_values_[static_cast<std::size_t>(k)] * xr;
      }
    }

    // Inherited pivot guard, two severities: the relative threshold rejects
    // a numerically degraded pivot (KLU semantics, the default); bit-exact
    // mode additionally demands that factor()'s exact candidate scan (same
    // post-order traversal, strict >) would land on the cached pivot row
    // again, so the replay provably repeats a fresh factor()'s arithmetic.
    const int prow = perm_[static_cast<std::size_t>(j)];
    const double pivot_val = work[static_cast<std::size_t>(prow)];
    const double pivot_abs = std::abs(pivot_val);
    if (cold_exact) {
      // Cold-equivalence guard: rerun factor()'s pivot scan exactly — its
      // post-order traversal (the reverse of the stored topological tape)
      // with strict >, over the rows not yet pivotal at time j — and demand
      // it lands on the inherited pivot row.  An empty pivot memory plays
      // no part in that scan, so success means a cold factor() would have
      // chosen these very pivots and therefore run this very arithmetic.
      int argmax_row = -1;
      double max_abs = 0.0;
      for (int s = s1 - 1; s >= s0; --s) {
        const int r = eorder_[static_cast<std::size_t>(s)];
        if (pinv_[static_cast<std::size_t>(r)] < j) continue;
        const double v = std::abs(work[static_cast<std::size_t>(r)]);
        if (v > max_abs) {
          max_abs = v;
          argmax_row = r;
        }
      }
      if (argmax_row != prow || max_abs < 1e-300) {
        return false;  // a cold factor() would pivot differently
      }
    } else {
      double cand_abs = 0.0;
      for (int s = s0; s < s1; ++s) {
        const int r = eorder_[static_cast<std::size_t>(s)];
        if (pinv_[static_cast<std::size_t>(r)] < j) continue;  // already pivotal
        const double v = std::abs(work[static_cast<std::size_t>(r)]);
        if (v > cand_abs) cand_abs = v;
      }
      // Degradation guard.  In bit-exact mode the bar is threshold_pivot_ratio
      // itself: a fresh factor() prefers this very pivot (its pivot memory)
      // exactly as long as it clears that ratio, so passing the guard means
      // the replay repeats a fresh factor()'s arithmetic bit for bit.  The
      // default bar is the looser KLU-style pivot_degradation_tol: the column
      // stays numerically sound even though a repivoting factor() would have
      // switched to the magnitude winner.
      const double bar =
          bit_exact_ ? threshold_pivot_ratio : pivot_degradation_tol;
      if (pivot_abs < 1e-300 || pivot_abs < bar * cand_abs) {
        return false;  // pivot degraded
      }
    }

    // Write the new values into the cached slots (same order factor() stored
    // them).  Storage is exhaustive — factor() keeps exact zeros — so every
    // replayed entry has a slot; a mismatch means the cached structure is
    // stale and the caller must repivot.
    int lk = l_colptr_[static_cast<std::size_t>(j)];
    int uk = u_colptr_[static_cast<std::size_t>(j)];
    const int lend = l_colptr_[static_cast<std::size_t>(j) + 1];
    const int uend = u_colptr_[static_cast<std::size_t>(j) + 1] - 1;  // diag
    for (int s = s0; s < s1; ++s) {
      const int r = eorder_[static_cast<std::size_t>(s)];
      if (r == prow) continue;
      const int piv = pinv_[static_cast<std::size_t>(r)];
      const double v = work[static_cast<std::size_t>(r)];
      if (piv < j) {
        if (uk >= uend || u_rowidx_[static_cast<std::size_t>(uk)] != piv) {
          return false;
        }
        u_values_[static_cast<std::size_t>(uk++)] = v;
      } else {
        if (lk >= lend || l_rowidx_[static_cast<std::size_t>(lk)] != r) {
          return false;
        }
        l_values_[static_cast<std::size_t>(lk++)] = v / pivot_val;
      }
    }
    if (lk != lend || uk != uend) return false;
    u_values_[static_cast<std::size_t>(uend)] = pivot_val;
  }
  factored_ = true;
  return true;
}

void SparseLu::solve(std::vector<double>& b) {
  const int n = n_;
  // Forward solve L y = P b, where rows of L are in original indices and the
  // pivotal order is perm_.  y is indexed by pivot position.
  solve_y_.resize(static_cast<std::size_t>(n));
  std::vector<double>& y = solve_y_;
  // Work in "original row" space: w starts as b; eliminate in pivot order.
  solve_w_.assign(b.begin(), b.end());
  std::vector<double>& w = solve_w_;
  for (int j = 0; j < n; ++j) {
    const int prow = perm_[static_cast<std::size_t>(j)];
    const double yj = w[static_cast<std::size_t>(prow)];
    y[static_cast<std::size_t>(j)] = yj;
    if (yj == 0.0) continue;
    for (int k = l_colptr_[static_cast<std::size_t>(j)];
         k < l_colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      w[static_cast<std::size_t>(l_rowidx_[static_cast<std::size_t>(k)])] -=
          l_values_[static_cast<std::size_t>(k)] * yj;
    }
  }
  // Backward solve U x = y (U stored columnwise with diagonal last).
  std::vector<double>& x = b;
  x.assign(static_cast<std::size_t>(n), 0.0);
  for (int j = n - 1; j >= 0; --j) {
    const int last = u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    const double diag = u_values_[static_cast<std::size_t>(last)];
    const double xj = y[static_cast<std::size_t>(j)] / diag;
    x[static_cast<std::size_t>(j)] = xj;
    if (xj == 0.0) continue;
    for (int k = u_colptr_[static_cast<std::size_t>(j)]; k < last; ++k) {
      y[static_cast<std::size_t>(u_rowidx_[static_cast<std::size_t>(k)])] -=
          u_values_[static_cast<std::size_t>(k)] * xj;
    }
  }
}

// ---------------------------------------------------------------------------
// BatchedSparseLu
//
// One refactor body and one solve body replay SparseLu::refactor_impl(
// cold_exact=false) and SparseLu::solve per lane, with the shared index
// streams hoisted out of the lane dimension.  They are written once over
// W-lane GCC vectors and instantiated at W = 4 inside a target("avx2")
// wrapper and at W = 8 inside a target("avx512f") one.  The bit-identity
// argument (DESIGN.md §12) rests on three invariants the body maintains:
//  * lanes never mix — every operation is elementwise over the lane axis;
//  * each lane's arithmetic sequence (order of loads, subtractions,
//    multiplies, divides) equals the scalar solver's.  The library builds
//    with -ffp-contract=off, because GCC would otherwise fuse the vector
//    mul+sub into an FMA wherever the target has one (AVX-512 does);
//  * value-dependent scalar control flow is replicated per lane: the
//    `x == 0.0` elimination/substitution skips become == blends, the
//    pivot-candidate scan's `v > cand` (which skips NaNs) becomes a > blend,
//    and the guard's `<` comparisons stay false on a NaN pivot exactly as
//    they do in the scalar code.
// A guard failure only clears ok[lane]; the lane keeps computing (garbage)
// so siblings are unperturbed, and the caller reruns it through the scalar
// fallback path.
// ---------------------------------------------------------------------------

bool BatchedSparseLu::structure_equal(const SparseLu& x, const SparseLu& y) {
  return x.factored_ && y.factored_ && x.n_ == y.n_ && x.a_nnz_ == y.a_nnz_ &&
         x.perm_ == y.perm_ && x.l_colptr_ == y.l_colptr_ &&
         x.l_rowidx_ == y.l_rowidx_ && x.u_colptr_ == y.u_colptr_ &&
         x.u_rowidx_ == y.u_rowidx_ && x.eptr_ == y.eptr_ &&
         x.eorder_ == y.eorder_;
}

bool BatchedSparseLu::holds_structure_of(const SparseLu& ref,
                                         const CscMatrix& a) const {
  return ref.factored_ && n_ == ref.n_ && a_nnz_ == ref.a_nnz_ &&
         bit_exact_ == ref.bit_exact_ && perm_ == ref.perm_ &&
         l_colptr_ == ref.l_colptr_ && l_rowidx_ == ref.l_rowidx_ &&
         u_colptr_ == ref.u_colptr_ && u_rowidx_ == ref.u_rowidx_ &&
         eptr_ == ref.eptr_ && eorder_ == ref.eorder_ &&
         a_colptr_ == a.col_ptr && a_rowidx_ == a.row_idx;
}

bool BatchedSparseLu::adopt(const SparseLu& ref, const CscMatrix& a,
                            std::size_t lanes) {
  if (!ref.factored_ || a.n != ref.n_ ||
      static_cast<int>(a.values.size()) != ref.a_nnz_ || lanes == 0) {
    return false;
  }
  n_ = ref.n_;
  a_nnz_ = ref.a_nnz_;
  bit_exact_ = ref.bit_exact_;
  lanes_ = lanes;
  stride_ = batch::padded_lanes(lanes);
  l_colptr_ = ref.l_colptr_;
  l_rowidx_ = ref.l_rowidx_;
  u_colptr_ = ref.u_colptr_;
  u_rowidx_ = ref.u_rowidx_;
  perm_ = ref.perm_;
  pinv_ = ref.pinv_;
  eptr_ = ref.eptr_;
  eorder_ = ref.eorder_;
  a_colptr_ = a.col_ptr;
  a_rowidx_ = a.row_idx;
  const auto n = static_cast<std::size_t>(n_);
  av_.resize(static_cast<std::size_t>(a_nnz_), lanes);
  lv_.resize(ref.l_values_.size(), lanes);
  uv_.resize(ref.u_values_.size(), lanes);
  work_.resize(n, lanes);
  b_.resize(n, lanes);
  y_.resize(n, lanes);
  w_.resize(n, lanes);
  return true;
}

void BatchedSparseLu::resize_lanes(std::size_t lanes) {
  lanes_ = lanes;
  const std::size_t s = batch::padded_lanes(lanes);
  if (s == stride_) return;  // same padded stride: buffers already fit
  stride_ = s;
  const auto n = static_cast<std::size_t>(n_);
  av_.resize(static_cast<std::size_t>(a_nnz_), lanes);
  lv_.resize(static_cast<std::size_t>(l_colptr_.back()), lanes);
  uv_.resize(static_cast<std::size_t>(u_colptr_.back()), lanes);
  work_.resize(n, lanes);
  b_.resize(n, lanes);
  y_.resize(n, lanes);
  w_.resize(n, lanes);
}

void BatchedSparseLu::load_lane_values(std::size_t lane, const CscMatrix& a) {
  double* dst = av_.data() + lane;
  for (std::size_t k = 0; k < a.values.size(); ++k) {
    dst[k * stride_] = a.values[k];
  }
}

void BatchedSparseLu::load_lane_rhs(std::size_t lane,
                                    const std::vector<double>& b) {
  double* dst = b_.data() + lane;
  for (std::size_t i = 0; i < b.size(); ++i) {
    dst[i * stride_] = b[i];
  }
}

void BatchedSparseLu::store_lane_solution(std::size_t lane,
                                          std::vector<double>& x) const {
  x.resize(static_cast<std::size_t>(n_));
  const double* src = b_.data() + lane;
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = src[i * stride_];
  }
}

void BatchedSparseLu::refactor(unsigned char* ok) {
#if defined(__x86_64__)
  if (stride_ % 8 == 0 && batch::avx512_available()) {
    refactor_avx512(ok);
    return;
  }
  if (batch::avx2_available()) {
    refactor_avx2(ok);
    return;
  }
#endif
  std::fill(ok, ok + lanes_, 0);  // no vector kernel: every lane runs scalar
}

void BatchedSparseLu::solve() {
#if defined(__x86_64__)
  if (stride_ % 8 == 0 && batch::avx512_available()) {
    solve_avx512();
  } else if (batch::avx2_available()) {
    solve_avx2();
  }
#endif
}

#if defined(__x86_64__)

namespace {

/// W doubles as one GCC vector, unaligned and alias-safe so a block of an
/// SoA row is read and written in place.
template <std::size_t W>
using Lanes [[gnu::vector_size(W * sizeof(double)),
              gnu::aligned(sizeof(double)), gnu::may_alias]] = double;
/// Result of comparing two Lanes: all ones in a lane where true.
template <std::size_t W>
using LaneMask [[gnu::vector_size(W * sizeof(double))]] = long long;

template <std::size_t W>
[[gnu::always_inline]] inline Lanes<W>& lanes_at(double* p) {
  return *reinterpret_cast<Lanes<W>*>(p);
}

template <std::size_t W>
[[gnu::always_inline]] inline const Lanes<W>& lanes_at(const double* p) {
  return *reinterpret_cast<const Lanes<W>*>(p);
}

/// One bit per lane in one instruction (a loop over the lanes compiles to
/// a chain of lane extracts).  Only valid once inlined into a wrapper whose
/// target enables the builtin.
template <std::size_t W>
[[gnu::always_inline]] inline unsigned lane_bits(const LaneMask<W>& m) {
  if constexpr (W == 4) {
    return static_cast<unsigned>(
        __builtin_ia32_movmskpd256(reinterpret_cast<__v4df>(m)));
  } else {
    static_assert(W == 8);
    return __builtin_ia32_ptestmq512(m, m, 0xFF);
  }
}

template <std::size_t W>
inline constexpr unsigned kAllLanes = (1u << W) - 1;

/// The column update shared by elimination and both substitutions: row
/// idx[k] of `dst` -= row k of `vals` times the multiplier row `x`, for k in
/// [k0, k1).  Block-outer, k-inner: the multiplier and its zero mask are
/// loop-invariant over the column, so they are hoisted per block.  Lanes
/// whose multiplier is zero keep their value (the scalar `x == 0.0` skip;
/// == is false on NaN there too), and an all-zero block is skipped outright.
template <std::size_t W>
[[gnu::always_inline]] inline void column_update(batch::SoaBuffer& dst,
                                                 const std::vector<int>& idx,
                                                 const batch::SoaBuffer& vals,
                                                 int k0, int k1,
                                                 const double* x) {
  for (std::size_t v = 0; v < dst.stride(); v += W) {
    const Lanes<W> xv = lanes_at<W>(x + v);
    const LaneMask<W> skip = xv == 0.0;
    if (lane_bits<W>(skip) == kAllLanes<W>) continue;
    for (int k = k0; k < k1; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      Lanes<W>& d =
          lanes_at<W>(dst.row(static_cast<std::size_t>(idx[ku])) + v);
      // Separate mul and sub, as in the scalar solver.
      d = skip ? d : d - lanes_at<W>(vals.row(ku) + v) * xv;
    }
  }
}

}  // namespace

template <std::size_t W>
[[gnu::always_inline]] inline void BatchedSparseLu::refactor_lanes(
    unsigned char* ok) {
  const std::size_t S = stride_;
  const double bar = bit_exact_ ? SparseLu::threshold_pivot_ratio
                                : SparseLu::pivot_degradation_tol;
  const long long abs_bits = 0x7fffffffffffffffLL;
  std::fill(ok, ok + lanes_, 1);
  for (int j = 0; j < n_; ++j) {
    const int s0 = eptr_[static_cast<std::size_t>(j)];
    const int s1 = eptr_[static_cast<std::size_t>(j) + 1];
    for (int s = s0; s < s1; ++s) {
      double* wr = work_.row(
          static_cast<std::size_t>(eorder_[static_cast<std::size_t>(s)]));
      for (std::size_t v = 0; v < S; v += W) lanes_at<W>(wr + v) = Lanes<W>{};
    }
    for (int k = a_colptr_[static_cast<std::size_t>(j)];
         k < a_colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      double* wr = work_.row(
          static_cast<std::size_t>(a_rowidx_[static_cast<std::size_t>(k)]));
      const double* avk = av_.row(static_cast<std::size_t>(k));
      for (std::size_t v = 0; v < S; v += W) {
        lanes_at<W>(wr + v) = lanes_at<W>(avk + v);
      }
    }
    for (int s = s0; s < s1; ++s) {
      const int r = eorder_[static_cast<std::size_t>(s)];
      const int piv = pinv_[static_cast<std::size_t>(r)];
      if (piv >= j) continue;
      column_update<W>(work_, l_rowidx_, lv_,
                       l_colptr_[static_cast<std::size_t>(piv)],
                       l_colptr_[static_cast<std::size_t>(piv) + 1],
                       work_.row(static_cast<std::size_t>(r)));
    }
    const int prow = perm_[static_cast<std::size_t>(j)];
    const double* pv = work_.row(static_cast<std::size_t>(prow));
    for (std::size_t v = 0; v < S; v += W) {
      const auto pabs = reinterpret_cast<Lanes<W>>(
          reinterpret_cast<LaneMask<W>>(lanes_at<W>(pv + v)) & abs_bits);
      Lanes<W> cand{};
      for (int s = s0; s < s1; ++s) {
        const int r = eorder_[static_cast<std::size_t>(s)];
        if (pinv_[static_cast<std::size_t>(r)] < j) continue;
        const auto wa = reinterpret_cast<Lanes<W>>(
            reinterpret_cast<LaneMask<W>>(
                lanes_at<W>(work_.row(static_cast<std::size_t>(r)) + v)) &
            abs_bits);
        // Strict >: false on NaN, exactly like the scalar scan.
        cand = wa > cand ? wa : cand;
      }
      // < is false on a NaN pivot, matching scalar `NaN < x == false`.
      const unsigned fail =
          lane_bits<W>(pabs < 1e-300) | lane_bits<W>(pabs < bar * cand);
      for (std::size_t bit = 0; bit < W; ++bit) {
        const std::size_t lane = v + bit;
        if (lane < lanes_ && ((fail >> bit) & 1u) != 0) ok[lane] = 0;
      }
    }
    int lk = l_colptr_[static_cast<std::size_t>(j)];
    int uk = u_colptr_[static_cast<std::size_t>(j)];
    const int uend = u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    for (int s = s0; s < s1; ++s) {
      const int r = eorder_[static_cast<std::size_t>(s)];
      if (r == prow) continue;
      const int piv = pinv_[static_cast<std::size_t>(r)];
      const double* wr = work_.row(static_cast<std::size_t>(r));
      if (piv < j) {
        double* u = uv_.row(static_cast<std::size_t>(uk++));
        for (std::size_t v = 0; v < S; v += W) {
          lanes_at<W>(u + v) = lanes_at<W>(wr + v);
        }
      } else {
        double* lvr = lv_.row(static_cast<std::size_t>(lk++));
        for (std::size_t v = 0; v < S; v += W) {
          lanes_at<W>(lvr + v) = lanes_at<W>(wr + v) / lanes_at<W>(pv + v);
        }
      }
    }
    double* ud = uv_.row(static_cast<std::size_t>(uend));
    for (std::size_t v = 0; v < S; v += W) {
      lanes_at<W>(ud + v) = lanes_at<W>(pv + v);
    }
  }
}

template <std::size_t W>
[[gnu::always_inline]] inline void BatchedSparseLu::solve_lanes() {
  const std::size_t S = stride_;
  std::copy(b_.data(), b_.data() + static_cast<std::size_t>(n_) * S,
            w_.data());
  for (int j = 0; j < n_; ++j) {
    const double* wj =
        w_.row(static_cast<std::size_t>(perm_[static_cast<std::size_t>(j)]));
    double* yj = y_.row(static_cast<std::size_t>(j));
    for (std::size_t v = 0; v < S; v += W) {
      lanes_at<W>(yj + v) = lanes_at<W>(wj + v);
    }
    column_update<W>(w_, l_rowidx_, lv_, l_colptr_[static_cast<std::size_t>(j)],
                     l_colptr_[static_cast<std::size_t>(j) + 1], yj);
  }
  for (int j = n_ - 1; j >= 0; --j) {
    const int last = u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    const double* diag = uv_.row(static_cast<std::size_t>(last));
    const double* yj = y_.row(static_cast<std::size_t>(j));
    double* xj = b_.row(static_cast<std::size_t>(j));
    for (std::size_t v = 0; v < S; v += W) {
      lanes_at<W>(xj + v) = lanes_at<W>(yj + v) / lanes_at<W>(diag + v);
    }
    column_update<W>(y_, u_rowidx_, uv_, u_colptr_[static_cast<std::size_t>(j)],
                     last, xj);
  }
}

__attribute__((target("avx2"))) void BatchedSparseLu::refactor_avx2(
    unsigned char* ok) {
  refactor_lanes<4>(ok);
}

__attribute__((target("avx2"))) void BatchedSparseLu::solve_avx2() {
  solve_lanes<4>();
}

__attribute__((target("avx512f"))) void BatchedSparseLu::refactor_avx512(
    unsigned char* ok) {
  refactor_lanes<8>(ok);
}

__attribute__((target("avx512f"))) void BatchedSparseLu::solve_avx512() {
  solve_lanes<8>();
}

#endif  // defined(__x86_64__)

}  // namespace mda::spice
