#pragma once
// Fundamental identifiers and tolerances shared across the circuit simulator.

namespace mda::spice {

/// Circuit node identifier.  `kGround` is the reference node and is never an
/// MNA unknown; all other nodes are dense indices [0, N).
using NodeId = int;
inline constexpr NodeId kGround = -1;

/// Simulator tolerances (SPICE-like defaults, tuned for the millivolt-scale
/// signals used by the accelerator).
struct Tolerances {
  double reltol = 1e-6;       ///< Relative Newton convergence tolerance.
  double vntol = 1e-9;        ///< Absolute tolerance on node voltages [V].
  double abstol = 1e-12;      ///< Absolute tolerance on branch currents [A].
  double gmin = 1e-12;        ///< Minimum conductance to ground per node [S].
  int max_newton_iters = 400; ///< Iteration cap per solve (1 at least).
  double v_step_limit = 0.5;  ///< Max per-iteration voltage update [V].
  /// Reuse the previous LU pivot order via SparseLu::refactor() on
  /// fixed-pattern Newton iterations (DESIGN.md §10).  Disable to force a
  /// full repivoting factorisation every linearised solve (reference mode
  /// for bit-identity tests and benches).
  bool allow_lu_refactor = true;
  /// Strict refactor guard: raise the refactor bail bar from
  /// SparseLu::pivot_degradation_tol to SparseLu::threshold_pivot_ratio —
  /// the exact ratio at which a repivoting factor() would abandon the
  /// inherited pivot.  A refactor that clears the higher bar therefore
  /// replays precisely the pivots a fresh factor() would choose, so results
  /// are bit-identical to factoring from scratch every solve (DESIGN.md
  /// §10).  Default off: keep the inherited pivot down to
  /// pivot_degradation_tol of the best candidate (KLU semantics).
  bool lu_refactor_bit_exact = false;
};

}  // namespace mda::spice
