// Microbenchmarks of the simulation substrate (google-benchmark): sparse LU
// factorisation, nonlinear DC solves of single PEs, wavefront cell
// throughput, and the digital reference distances used as the CPU baseline.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "core/accelerator.hpp"
#include "core/array_builder.hpp"
#include "core/backend.hpp"
#include "distance/registry.hpp"
#include "obs/snapshot.hpp"
#include "spice/sparse.hpp"
#include "spice/transient.hpp"
#include "util/rng.hpp"

using namespace mda;

namespace {

void BM_SparseLuFactor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  std::vector<int> rows, cols;
  std::vector<double> vals;
  for (int i = 0; i < n; ++i) {
    double diag = 1.0;
    for (int k = 0; k < 5; ++k) {
      const int j = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
      if (j == i) continue;
      const double v = rng.uniform(-1.0, 1.0);
      rows.push_back(i);
      cols.push_back(j);
      vals.push_back(v);
      diag += std::abs(v);
    }
    rows.push_back(i);
    cols.push_back(i);
    vals.push_back(diag);
  }
  const spice::CscMatrix a = spice::CscMatrix::from_triplets(n, rows, cols, vals);
  for (auto _ : state) {
    spice::SparseLu lu;
    benchmark::DoNotOptimize(lu.factor(a));
  }
}
BENCHMARK(BM_SparseLuFactor)->Arg(100)->Arg(1000)->Arg(5000);

void BM_WavefrontDistance(benchmark::State& state) {
  const auto kind = static_cast<dist::DistanceKind>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  util::Rng rng(2);
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  for (double& v : q) v = rng.uniform(-1.5, 1.5);
  core::AcceleratorConfig config;
  core::DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.3;
  const core::EncodedInputs enc = core::encode_inputs(config, spec, p, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::eval_wavefront(config, spec, enc));
  }
}
BENCHMARK(BM_WavefrontDistance)
    ->Args({static_cast<long>(dist::DistanceKind::Dtw), 10})
    ->Args({static_cast<long>(dist::DistanceKind::Lcs), 10})
    ->Args({static_cast<long>(dist::DistanceKind::Manhattan), 32})
    ->Unit(benchmark::kMillisecond);

void BM_BehavioralDistance(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  for (double& v : q) v = rng.uniform(-1.5, 1.5);
  core::AcceleratorConfig config;
  core::DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  const core::EncodedInputs enc = core::encode_inputs(config, spec, p, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::eval_behavioral(config, spec, enc));
  }
}
BENCHMARK(BM_BehavioralDistance)->Arg(40)->Arg(128);

void BM_ReferenceDistance(benchmark::State& state) {
  const auto kind = static_cast<dist::DistanceKind>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  util::Rng rng(4);
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  for (double& v : q) v = rng.uniform(-1.5, 1.5);
  dist::DistanceParams params;
  params.threshold = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::compute(kind, p, q, params));
  }
}
BENCHMARK(BM_ReferenceDistance)
    ->Args({static_cast<long>(dist::DistanceKind::Dtw), 40})
    ->Args({static_cast<long>(dist::DistanceKind::Lcs), 40})
    ->Args({static_cast<long>(dist::DistanceKind::Edit), 40})
    ->Args({static_cast<long>(dist::DistanceKind::Hausdorff), 40})
    ->Args({static_cast<long>(dist::DistanceKind::Hamming), 40})
    ->Args({static_cast<long>(dist::DistanceKind::Manhattan), 40});

// ---------------------------------------------------------------------------
// --json=<path>: a fixed solver scenario instead of google-benchmark.
//
// Runs the same Newton-dominated matrix-structure transient (20x20 DTW array,
// ~12k unknowns) under three solver modes and emits a machine-readable
// comparison (see BENCH_solver.json for the committed baseline):
//  * repivot_every_solve — allow_lu_refactor=false, the reference mode that
//    pays a full pivoting factorisation on every linearised solve;
//  * refactor            — the default KLU-semantics fast path;
//  * refactor_bit_exact  — the strict mode whose probe traces must match the
//    reference bit for bit (checked here and reported in the JSON).

struct JsonRun {
  double seconds = 0.0;
  spice::TransientResult result;
  std::uint64_t factors = 0, refactors = 0, fallbacks = 0, pattern_builds = 0,
                newton_iters = 0;
};

std::uint64_t counter_of(const obs::MetricsSnapshot& snap,
                         const std::string& name) {
  const obs::MetricValue* m = snap.find(name);
  return m ? m->count : 0;
}

JsonRun run_json_scenario(bool allow_refactor, bool bit_exact,
                          int* num_unknowns) {
  using namespace mda::core;
  const std::size_t n = 20;
  util::Rng rng(31 + static_cast<std::uint64_t>(dist::DistanceKind::Dtw));
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  for (double& v : q) v = rng.uniform(-1.5, 1.5);

  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  spec.threshold = 0.3;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  AcceleratorConfig cfg = config;
  cfg.vstep = enc.vstep_eff;
  ArrayCircuit array = build_array(cfg, spec, n, n);
  array.set_step_inputs(enc.p_volts, enc.q_volts, 0.0);

  spice::Tolerances tol;
  tol.allow_lu_refactor = allow_refactor;
  tol.lu_refactor_bit_exact = bit_exact;
  spice::TransientSimulator sim(*array.net, tol);
  sim.probe(array.out, "out");
  if (num_unknowns) *num_unknowns = sim.mna().num_unknowns();
  spice::TransientParams params;
  params.t_stop = 5e-10;

  JsonRun run;
  const obs::MetricsSnapshot before = obs::MetricsSnapshot::capture();
  const auto t0 = std::chrono::steady_clock::now();
  run.result = sim.run(params);
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const obs::MetricsSnapshot after = obs::MetricsSnapshot::capture();
  auto delta = [&](const char* name) {
    return counter_of(after, name) - counter_of(before, name);
  };
  run.factors = delta("mda.spice.sparse_lu_factors");
  run.refactors = delta("mda.spice.sparse_lu_refactors");
  run.fallbacks = delta("mda.spice.refactor_fallbacks");
  run.pattern_builds = delta("mda.spice.mna_pattern_builds");
  run.newton_iters = delta("mda.spice.newton_iterations");
  return run;
}

void emit_json_mode(bench::JsonWriter& w, const char* name, const JsonRun& r) {
  w.begin_object(name);
  w.field("seconds", r.seconds);
  w.field("ok", r.result.ok);
  w.field("steps", r.result.steps);
  w.field("newton_iterations", r.newton_iters);
  w.field("sparse_lu_factors", r.factors);
  w.field("sparse_lu_refactors", r.refactors);
  w.field("refactor_fallbacks", r.fallbacks);
  w.field("mna_pattern_builds", r.pattern_builds);
  w.end();
}

bool traces_bit_identical(const spice::TransientResult& a,
                          const spice::TransientResult& b) {
  const spice::Trace& ta = a.trace("out");
  const spice::Trace& tb = b.trace("out");
  if (ta.t.size() != tb.t.size()) return false;
  for (std::size_t i = 0; i < ta.t.size(); ++i) {
    if (ta.t[i] != tb.t[i] || ta.v[i] != tb.v[i]) return false;
  }
  return true;
}

int run_json_bench(const std::string& path) {
  int unknowns = 0;
  std::fprintf(stderr, "[bench_solver] repivot-every-solve reference...\n");
  const JsonRun ref = run_json_scenario(/*allow_refactor=*/false,
                                        /*bit_exact=*/false, &unknowns);
  std::fprintf(stderr, "[bench_solver] refactor fast path (default)...\n");
  const JsonRun fast = run_json_scenario(/*allow_refactor=*/true,
                                         /*bit_exact=*/false, nullptr);
  std::fprintf(stderr, "[bench_solver] refactor fast path (bit-exact)...\n");
  const JsonRun exact = run_json_scenario(/*allow_refactor=*/true,
                                          /*bit_exact=*/true, nullptr);
  if (!ref.result.ok || !fast.result.ok || !exact.result.ok) {
    std::fprintf(stderr, "[bench_solver] transient failed: %s\n",
                 (!ref.result.ok ? ref.result.error
                                 : !fast.result.ok ? fast.result.error
                                                   : exact.result.error)
                     .c_str());
    return 1;
  }
  const bool identical = traces_bit_identical(ref.result, exact.result);
  const double speedup = fast.seconds > 0.0 ? ref.seconds / fast.seconds : 0.0;

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[bench_solver] cannot open %s\n", path.c_str());
    return 1;
  }
  bench::JsonWriter w(out);
  w.begin_object();
  w.field("bench", "solver_refactor");
  w.begin_object("scenario");
  w.field("kind", "dtw");
  w.field("rows", 20);
  w.field("cols", 20);
  w.field("t_stop", 5e-10);
  w.field("num_unknowns", unknowns);
  w.end();
  w.begin_object("modes");
  emit_json_mode(w, "repivot_every_solve", ref);
  emit_json_mode(w, "refactor", fast);
  emit_json_mode(w, "refactor_bit_exact", exact);
  w.end();
  w.field("speedup_refactor_vs_repivot", speedup);
  w.field("bit_exact_traces_identical", identical);
  w.end();
  out.close();
  std::fprintf(stderr,
               "[bench_solver] wrote %s (speedup %.2fx, bit-identical %s)\n",
               path.c_str(), speedup, identical ? "yes" : "no");
  return identical ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      return run_json_bench(arg.substr(7));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
