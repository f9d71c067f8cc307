#pragma once
// Newton-Raphson solver over one MNA solve point (DC operating point or one
// transient timestep), with per-iteration voltage damping and gmin / source
// stepping fallbacks for hard nonlinear cases.  The Newton update exists
// once (NewtonSolver::advance): the scalar iterate() and the lockstep
// BatchNewtonSolver both step through it and differ only in how each
// iteration's linear solve is carried out.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "spice/mna.hpp"

namespace mda::spice {

struct NewtonResult {
  bool converged = false;
  /// Linearised solves spent on this solve point, including every homotopy
  /// stage (gmin / source stepping) when fallbacks were needed — the number
  /// the fault watchdog budgets against (DESIGN.md §9).
  int iterations = 0;
  double max_delta = 0.0;  ///< Largest unknown change at the last iteration.
  /// True when the plain iteration failed and a gmin / source stepping
  /// homotopy produced (or attempted) the result.
  bool used_fallback = false;
};

class NewtonSolver {
 public:
  explicit NewtonSolver(MnaSystem& mna) : mna_(&mna) {}

  /// Solve at the given time point starting from `x` (updated in place).
  /// `t`/`dt`/`dc` describe the point; devices read companion state
  /// themselves.  Applies gmin stepping, then source stepping, if the plain
  /// iteration fails.
  NewtonResult solve(std::vector<double>& x, double t, double dt, bool dc,
                     Integration method = Integration::BackwardEuler);

 private:
  friend class BatchNewtonSolver;

  /// Newton progress through one solve point.
  struct Progress {
    int it = 0;
    double step_limit = 0.0;  ///< Voltage damping limit [V].
    NewtonResult result;
  };

  /// One Newton iteration after its linearised solve (`solved` false: the
  /// system was singular): step-limit schedule, damped update of `x`
  /// towards `x_new`, convergence test.  Returns true once the solve point
  /// is finished — converged, singular or out of iterations — with
  /// p.result final.  iterate() and BatchNewtonSolver::solve share it.
  bool advance(Progress& p, std::vector<double>& x,
               const std::vector<double>& x_new, bool solved) const;

  NewtonResult iterate(std::vector<double>& x, double t, double dt, bool dc,
                       Integration method, double gmin_extra,
                       double source_scale);

  /// The homotopy tail of solve(): gmin stepping then source stepping,
  /// entered with the failed plain-iteration result.  Split out so the
  /// batched driver can hand a lane whose lockstep plain iteration failed to
  /// the exact serial fallback sequence.
  NewtonResult fallback_solve(std::vector<double>& x, double t, double dt,
                              bool dc, Integration method, NewtonResult res);

  MnaSystem* mna_;
  std::vector<double> x_new_;  ///< Reused linearised-solve output buffer.
};

/// One lane of a lockstep batched Newton solve (DESIGN.md §12).
struct NewtonLane {
  MnaSystem* mna = nullptr;
  NewtonSolver* newton = nullptr;  ///< Scalar path for fallbacks/evictions.
  std::vector<double>* x = nullptr;  ///< Iterate, updated in place.
  double t = 0.0;
  double dt = 0.0;
  bool dc = false;
  Integration method = Integration::BackwardEuler;
  bool active = true;        ///< Cleared by the caller to skip a lane.
  NewtonResult result;       ///< Filled per lane by BatchNewtonSolver.
};

/// Lockstep Newton driver over B lanes that share one circuit structure
/// (DESIGN.md §12).  Each round assembles every active lane (full stamp on
/// the first iteration, partial restamp after), routes structure-matched
/// refactor-ready lanes through the batched SoA LU kernel, and applies the
/// scalar Newton update (NewtonSolver::advance) per lane.  Lanes retire as
/// they converge without perturbing the others; irregular events — first
/// factor of a query, stream re-entry, pattern rebuild, structure mismatch,
/// pivot-guard failure, singular matrix, homotopy fallback — evict the
/// affected lane to the genuine scalar code path for that step.
///
/// Contract: for every lane, the final x, the NewtonResult, and all solver
/// metrics (mda.spice.*) are bit-identical to calling
/// lane.newton->solve(*lane.x, t, dt, dc, method) serially.
class BatchNewtonSolver {
 public:
  /// Solve every active lane's Newton point.
  void solve(std::span<NewtonLane> lanes);

 private:
  struct LaneState {
    NewtonSolver::Progress progress;
    bool pending = false;   ///< Still in the plain lockstep loop.
    bool fallback = false;  ///< Plain iteration failed; run scalar homotopy.
  };
  /// Cross-lane structure verification memo, keyed on the epoch counters so
  /// the O(nnz) compares rerun only after a pattern rebuild or re-factor.
  /// A lane is compared against up to a handful of class representatives per
  /// round (see classes_), so each lane keeps a small ring of results.
  struct LaneMemo {
    const MnaSystem* ref = nullptr;
    std::uint64_t mna_epoch = 0;
    std::uint64_t lu_epoch = 0;
    std::uint64_t ref_mna_epoch = 0;
    std::uint64_t ref_lu_epoch = 0;
    bool equal = false;
  };
  static constexpr std::size_t kLaneMemoWays = 4;
  struct LaneMemoSet {
    LaneMemo way[kLaneMemoWays];
    std::size_t next = 0;
  };

  /// One adopted structure class: SoA solver buffers plus the identity of
  /// the structure they hold.  Value streams steer threshold pivoting, so
  /// concurrent lanes can settle into a few distinct pivot orders; each
  /// class is batched independently and pool entries are reused round to
  /// round (matched by reference identity or structural equality), evicting
  /// the least recently used when the pool is full.
  struct SparseBatch {
    BatchedSparseLu lu;
    const MnaSystem* ref = nullptr;
    std::uint64_t mna_epoch = 0;
    std::uint64_t lu_epoch = 0;
    std::size_t lanes = 0;
    std::uint64_t last_used = 0;
  };
  static constexpr std::size_t kMaxSparsePool = 8;

  /// Assemble + linear-solve one round for every pending lane; fills
  /// solve_ok_ and x_new_ per lane.
  void solve_round(std::span<NewtonLane> lanes);
  bool lane_structure_matches(std::size_t i, const NewtonLane& lane,
                              const MnaSystem& ref);
  /// Pool entry holding (or adoptable for) `ref`'s structure: an entry whose
  /// memoized identity matches is returned directly; otherwise one whose
  /// buffers already hold a structurally equal factorisation is retagged; as
  /// a last resort the LRU entry is re-adopted.  Returns nullptr when
  /// adoption fails (no factorisation / fingerprint mismatch).
  SparseBatch* acquire_sparse_batch(const MnaSystem& ref, std::size_t lanes);

  std::vector<LaneState> state_;
  std::vector<LaneMemoSet> memo_;
  std::vector<std::vector<double>> x_new_;
  std::vector<unsigned char> solve_ok_;
  std::vector<unsigned char> batch_ok_;
  std::vector<std::size_t> group_;   ///< Lane indices routed to batched LU.
  std::vector<std::size_t> scalar_;  ///< Lane indices evicted to scalar.
  /// Structure classes of the current round: classes_[0..num_classes_) each
  /// hold the lanes of one distinct LU structure (buffers reused).
  std::vector<std::vector<std::size_t>> classes_;
  std::size_t num_classes_ = 0;
  std::vector<SparseBatch> spool_;
  std::uint64_t spool_clock_ = 0;
};

}  // namespace mda::spice
