#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace mda::spice {
namespace {

using Probes = std::vector<std::pair<NodeId, std::string>>;

/// Wall time per run() call, and per run_transient_lockstep() call (the
/// lanes share one wall clock).
const obs::Histogram& run_time() {
  static const obs::Histogram h("mda.spice.transient_time_s");
  return h;
}

/// Commit device state at an accepted solution (capacitor charges, op-amp
/// lag states): the DC operating point and every accepted step.
void commit_devices(Netlist& netlist, const std::vector<double>& x, double t,
                    double dt, bool dc, Integration method) {
  StampContext ctx;
  ctx.t = t;
  ctx.dt = dt;
  ctx.dc = dc;
  ctx.method = method;
  ctx.x = &x;
  for (auto& dev : netlist.devices()) dev->accept_step(ctx);
}

/// One transient run's adaptive timeline.  TransientSimulator::run and
/// run_transient_lockstep both drive it — propose() a step, solve it at
/// (t + dt, dt, method), hand the Newton result to advance() — so the step
/// policy exists once and a lockstep lane follows the serial timeline.
struct Timeline {
  Timeline(Netlist& netlist_in, const Probes& probes_in,
           const TransientParams& params_in)
      : netlist(&netlist_in), probes(&probes_in), params(&params_in),
        dt(params_in.dt_init) {
    static const obs::Counter runs("mda.spice.transient_runs");
    runs.add();
    result.traces.reserve(probes->size());
    for (const auto& [node, name] : *probes) {
      result.traces.push_back(Trace{node, name, {}, {}});
    }
  }

  /// Begin at t = 0 from `x`; a horizon already reached ends the run here.
  void start() {
    record();
    if (!(t < params->t_stop)) finish();
  }
  void fail_dc() {
    result.error = "DC operating point failed to converge";
    done = true;
  }

  void propose() {
    dt = std::min(dt, params->t_stop - t);
    x_prev = x;
    // Standard practice: damp the t=0 source discontinuity with one
    // backward-Euler step before switching to the requested method —
    // trapezoidal companions otherwise ring on the step edge.
    method = result.steps == 0 ? Integration::BackwardEuler : params->method;
  }

  /// Accept or reject the proposed step given its Newton result.
  void advance(const NewtonResult& r) {
    static const obs::Counter steps_total("mda.spice.transient_steps");
    static const obs::Counter rejects("mda.spice.transient_rejects");
    static const obs::Counter steady_exits("mda.spice.transient_steady_exits");
    const TransientParams& p = *params;
    result.total_newton_iterations += r.iterations;
    if (r.used_fallback) ++result.fallback_steps;
    if (!r.converged) {
      rejects.add();
      x = x_prev;
      dt *= p.shrink;
      if (dt < p.dt_min) {
        result.error = "timestep underflow at t=" + std::to_string(t);
        result.t_end = t;
        done = true;
      }
      return;
    }
    t += dt;
    ++result.steps;
    steps_total.add();
    commit_devices(*netlist, x, t, dt, /*dc=*/false, method);
    record();

    // Early termination when the whole circuit is quiescent.
    if (p.steady_tol > 0.0 && dt >= p.dt_max * 0.999) {
      double max_delta = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        max_delta = std::max(max_delta, std::abs(x[i] - x_prev[i]));
      }
      steady_streak = max_delta < p.steady_tol ? steady_streak + 1 : 0;
      if (steady_streak >= p.steady_count) {
        util::log_debug() << "steady state reached at t=" << t;
        steady_exits.add();
        finish();
        return;
      }
    }
    // Adaptive growth: quick *direct* Newton convergence means the step was
    // easy.  A fallback-recovered step was a near-failure whatever its
    // iteration count says — growing dt right after one invites the next
    // reject, so require a plain solve.
    if (r.iterations <= 4 && !r.used_fallback) {
      dt = std::min(dt * p.grow, p.dt_max);
    }
    if (!(t < p.t_stop)) finish();
  }

  void record() {
    for (std::size_t i = 0; i < probes->size(); ++i) {
      const NodeId node = (*probes)[i].first;
      result.traces[i].t.push_back(t);
      result.traces[i].v.push_back(
          node == kGround ? 0.0 : x[static_cast<std::size_t>(node)]);
    }
  }
  void finish() {
    result.ok = true;
    result.t_end = t;
    result.final_x = std::move(x);
    done = true;
  }

  Netlist* netlist;
  const Probes* probes;
  const TransientParams* params;
  /// The solution: the initial (or DC) point before start(), then the
  /// Newton iterate of each proposed step.
  std::vector<double> x;
  std::vector<double> x_prev;
  double t = 0.0;
  double dt;
  Integration method = Integration::BackwardEuler;  ///< Of the proposed step.
  int steady_streak = 0;
  bool done = false;
  TransientResult result;
};

}  // namespace

const Trace& TransientResult::trace(const std::string& name) const {
  for (const auto& tr : traces) {
    if (tr.name == name) return tr;
  }
  throw std::out_of_range("no trace named '" + name + "'");
}

TransientSimulator::TransientSimulator(Netlist& netlist, Tolerances tol)
    : netlist_(&netlist), mna_(netlist, tol), newton_(mna_) {}

std::size_t TransientSimulator::probe(NodeId node, std::string name) {
  probes_.emplace_back(node, std::move(name));
  return probes_.size() - 1;
}

void TransientSimulator::reset(std::vector<double>& x) {
  for (auto& dev : netlist_->devices()) dev->reset_state();
  x.assign(static_cast<std::size_t>(mna_.num_unknowns()), 0.0);
}

std::vector<double> TransientSimulator::dc_operating_point() {
  std::vector<double> x;
  reset(x);
  if (!newton_.solve(x, 0.0, 0.0, /*dc=*/true).converged) return {};
  // Commit at the operating point so the transient starts from consistent
  // initial conditions.
  commit_devices(*netlist_, x, 0.0, 0.0, /*dc=*/true,
                 Integration::BackwardEuler);
  return x;
}

TransientResult TransientSimulator::run(const TransientParams& params) {
  const obs::ScopedTimer timer(run_time());
  Timeline tl(*netlist_, probes_, params);
  if (params.run_dc_first) {
    tl.x = dc_operating_point();
    if (tl.x.empty()) {
      tl.fail_dc();
      return std::move(tl.result);
    }
  } else {
    reset(tl.x);
  }
  tl.start();
  while (!tl.done) {
    tl.propose();
    tl.advance(
        newton_.solve(tl.x, tl.t + tl.dt, tl.dt, /*dc=*/false, tl.method));
  }
  return std::move(tl.result);
}

std::vector<TransientResult> run_transient_lockstep(
    std::span<TransientSimulator* const> sims,
    std::span<const TransientParams> params) {
  static const obs::Counter lockstep_runs("mda.spice.batch_lockstep_runs");
  static const obs::Counter lockstep_lanes("mda.spice.batch_lockstep_lanes");
  const obs::ScopedTimer timer(run_time());

  const std::size_t nlanes = sims.size();
  if (nlanes == 0) return {};
  lockstep_runs.add();
  lockstep_lanes.add(nlanes);

  // Reserved up front: nl[i].x points into tl[i].
  std::vector<Timeline> tl;
  tl.reserve(nlanes);
  std::vector<NewtonLane> nl(nlanes);
  BatchNewtonSolver batch;

  // DC operating points in lockstep: dc_operating_point() per lane.
  for (std::size_t i = 0; i < nlanes; ++i) {
    TransientSimulator& sim = *sims[i];
    Timeline& lane = tl.emplace_back(*sim.netlist_, sim.probes_, params[i]);
    sim.reset(lane.x);
    nl[i].mna = &sim.mna_;
    nl[i].newton = &sim.newton_;
    nl[i].x = &lane.x;
    nl[i].dc = true;
    nl[i].active = params[i].run_dc_first;
  }
  batch.solve(std::span<NewtonLane>(nl));
  for (std::size_t i = 0; i < nlanes; ++i) {
    if (params[i].run_dc_first) {
      if (!nl[i].result.converged) {
        tl[i].fail_dc();
        continue;
      }
      commit_devices(*sims[i]->netlist_, tl[i].x, 0.0, 0.0, /*dc=*/true,
                     Integration::BackwardEuler);
    }
    tl[i].start();
  }

  // Each round solves one proposed step per live lane.  Lanes drift to
  // their own (t, dt) immediately; the batch only aligns which *round* a
  // solve happens in.
  for (;;) {
    bool any_live = false;
    for (std::size_t i = 0; i < nlanes; ++i) {
      nl[i].active = !tl[i].done;
      if (!nl[i].active) continue;
      any_live = true;
      tl[i].propose();
      nl[i].t = tl[i].t + tl[i].dt;
      nl[i].dt = tl[i].dt;
      nl[i].dc = false;
      nl[i].method = tl[i].method;
    }
    if (!any_live) break;
    batch.solve(std::span<NewtonLane>(nl));
    for (std::size_t i = 0; i < nlanes; ++i) {
      if (nl[i].active) tl[i].advance(nl[i].result);
    }
  }

  std::vector<TransientResult> results;
  results.reserve(nlanes);
  for (Timeline& lane : tl) results.push_back(std::move(lane.result));
  return results;
}

}  // namespace mda::spice
