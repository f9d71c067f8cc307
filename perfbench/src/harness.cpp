// Repository benchmark harness: runs one named workload against the public
// entry points of the library and prints one JSON record on stdout.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --out-dir <dir>
//                     --nominal-rps <r> --high-rps <r> --limit-ms <ms>
//
// Workloads (perfbench/workloads.json says why each exists):
//   serve-zipf         open-loop Poisson/Zipf FullSpice load over loopback
//                      into an in-process serve::Server
//   batch-shared       offline BatchEngine::try_compute_batch, DTW + MD
//   batch-divergent    the same harness over LCS, EdD, HauD
//   profile-wavefront  mining::matrix_profile DTW self-join, Wavefront
//
// --trace 0 measures the end-to-end metrics with no benchmark spans.
// --trace 1 runs the measured pass twice, untraced then traced (half the
// seconds each), reports the per-layer metrics from the traced pass and the
// tracing overhead from the difference, and writes the spans as Chrome
// trace-event JSON under --out-dir.
//
// Correctness gates run outside the timed window; any mismatch fails the
// record and counts in `failed`.  perfbench/run.py builds this program,
// adds the host envelope and prints the result line.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/batch_engine.hpp"
#include "core/query.hpp"
#include "data/normalize.hpp"
#include "data/synthetic.hpp"
#include "distance/registry.hpp"
#include "mining/matrix_profile.hpp"
#include "obs/snapshot.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spice/batch_state.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

using namespace mda;
using perfbench::now_s;
using perfbench::Tracer;
using Scope = perfbench::Tracer::Scope;

namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string num(double v);

// ------------------------------------------------------------- options --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  double nominal_rps = 0.0;
  double high_rps = 0.0;
  double limit_ms = 0.0;
  std::size_t threads = 1;  ///< nproc: engine threads and client threads.
};

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Options parse(int argc, char** argv) {
  Options o;
  o.threads = nproc();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--out-dir") o.out_dir = v;
    else if (k == "--nominal-rps") o.nominal_rps = std::stod(v);
    else if (k == "--high-rps") o.high_rps = std::stod(v);
    else if (k == "--limit-ms") o.limit_ms = std::stod(v);
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

/// splitmix64 finaliser: independent stream seeds from (seed, stream).
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------ obs registry --

/// Deltas of the process-global mda.* registry over one pass.
class ObsWindow {
 public:
  ObsWindow() : before_(obs::MetricsSnapshot::capture()) {}
  void close() { after_ = obs::MetricsSnapshot::capture(); }
  [[nodiscard]] double count(const std::string& name) const {
    return get(after_, name, false) - get(before_, name, false);
  }
  [[nodiscard]] double sum(const std::string& name) const {
    return get(after_, name, true) - get(before_, name, true);
  }

 private:
  static double get(const obs::MetricsSnapshot& s, const std::string& name,
                    bool want_sum) {
    const obs::MetricValue* m = s.find(name);
    if (m == nullptr) return 0.0;
    return want_sum ? m->sum : static_cast<double>(m->count);
  }
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

// ------------------------------------------------------------- record --

struct Metric {
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  ///< What the value summarises.
  std::string stat;             ///< How the value derives from them.
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Everything one invocation reports.
struct Record {
  std::map<std::string, Metric> metrics;  ///< Result-line metric set.
  /// Report-only figures for the human table (NaN = withheld / n.a.).
  std::vector<std::pair<std::string, Metric>> report;
  std::map<std::string, double> layer_detail;  ///< Per-kind and raw times.
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, perfbench::LayerTime> layers;
  std::string trace_file;
  /// max_qps phases: rate, tail ms, requests, failed, backlog growing.
  std::vector<std::vector<double>> search;

  void set(const std::string& name, const std::string& unit, double value,
           std::vector<double> samples = {}, std::string stat = "value") {
    if (samples.empty()) samples.push_back(value);
    metrics[name] = Metric{unit, value, std::move(samples), std::move(stat)};
  }
  void show(const std::string& name, const std::string& unit, double value,
            std::string stat = "value") {
    report.emplace_back(name, Metric{unit, value, {}, std::move(stat)});
  }
  void check(const std::string& name, bool ok, std::string detail) {
    checks.push_back({name, ok, std::move(detail)});
  }
};

/// Time-bounded loops run whole units of work: start another while the
/// run would end nearer the budget with it than without it.
bool another_unit(double t0, std::uint64_t done, double budget_s) {
  const double elapsed = now_s() - t0;
  return done == 0 || elapsed + 0.5 * elapsed / double(done) < budget_s;
}

/// Tail latency by the percentile rule: (value, percentile label).
std::pair<double, std::string> tail(const std::vector<double>& v) {
  const auto p = perfbench::supported_percentile(v.size());
  if (!p) return {kNaN, "withheld"};
  char label[32];
  std::snprintf(label, sizeof label, "p%g", *p);
  return {perfbench::percentile(v, *p), label};
}

/// bench.gen_lag_ms.p99: how late the load generator issued work (open
/// loop: send time past due; offline: bench time between calls), at the
/// supported tail, or the maximum when the sample supports no percentile.
void gen_lag(Record& rec, const std::vector<double>& lag_ms) {
  auto [v, label] = tail(lag_ms);
  if (std::isnan(v)) {
    v = lag_ms.empty() ? 0.0 : *std::max_element(lag_ms.begin(), lag_ms.end());
    label = "max";
  }
  rec.set("bench.gen_lag_ms.p99", "ms", v, lag_ms, label);
}

double p50(const std::vector<double>& v) {
  return perfbench::reported_percentile(v, 50.0).value_or(kNaN);
}

/// p50_ms / tail_ms metrics plus the reported p50 / p99 figures.
void latency_metrics(Record& rec, const std::vector<double>& lat_ms,
                     const std::string& suffix, bool gate_it) {
  const auto [t, label] = tail(lat_ms);
  if (gate_it) {
    rec.set("p50_ms", "ms", p50(lat_ms), lat_ms, "p50");
    rec.set("tail_ms", "ms", t, lat_ms, label);
  }
  rec.show("p50_ms" + suffix, "ms", p50(lat_ms),
           std::to_string(lat_ms.size()) + " samples");
  rec.show("p99_ms" + suffix, "ms",
           perfbench::reported_percentile(lat_ms, 99.0).value_or(kNaN),
           "tail here: " + label);
}

// ---------------------------------------------- error vs dist::compute --

/// Documented per-kind error envelope (tests/test_differential.cpp):
/// |analog - ref| <= rel * |ref| + abs.
struct Envelope {
  double rel;
  double abs;
};

Envelope envelope(dist::DistanceKind kind) {
  switch (kind) {
    case dist::DistanceKind::Dtw: return {0.08, 0.15};
    case dist::DistanceKind::Hausdorff: return {0.15, 0.08};
    case dist::DistanceKind::Lcs:
    case dist::DistanceKind::Edit:
    case dist::DistanceKind::Hamming: return {0.05, 1.0};
    case dist::DistanceKind::Manhattan: return {0.04, 0.15};
  }
  return {0.05, 0.15};
}

/// Accuracy tally against the independent digital reference.  The gated
/// rel_error_p50 is the median per-result |analog - digital| / |digital|;
/// the mean (rel_error_mean, mean |err| / mean |ref|) is
/// printed beside it.  The mean is dominated by rare one-count comparator
/// flips where |p - q| sits at the threshold, so over the few hundred
/// results of a run it spreads too widely between seeds to gate.
struct ErrorTally {
  double abs_err_sum = 0.0;
  double ref_sum = 0.0;
  std::vector<double> ratios;  ///< Results with a nonzero reference.
  std::size_t checked = 0;
  std::size_t outside = 0;  ///< Results outside the envelope.
  std::string first_outside;
  std::map<dist::DistanceKind, std::pair<double, double>> by_kind;

  /// One result; `uses` is how many operations returned it (an envelope
  /// violation fails each of them).
  void add(dist::DistanceKind kind, double analog, double ref,
           std::size_t uses = 1) {
    checked += uses;
    const double err = std::fabs(analog - ref);
    abs_err_sum += err;
    ref_sum += std::fabs(ref);
    by_kind[kind].first += err;
    by_kind[kind].second += std::fabs(ref);
    if (ref != 0.0) ratios.push_back(err / std::fabs(ref));
    const Envelope e = envelope(kind);
    if (err <= e.rel * std::fabs(ref) + e.abs) return;
    if (outside == 0) {
      first_outside = dist::kind_name(kind) + " analog " +
                      std::to_string(analog) + " vs " + std::to_string(ref);
    }
    outside += uses;
  }

  void report(Record& rec) const {
    rec.check("error_envelope", outside == 0,
              std::to_string(outside) + " of " + std::to_string(checked) +
                  " results outside the envelope " + first_outside);
    rec.failed += outside;
    rec.set("rel_error_p50", "ratio", perfbench::median(ratios), ratios,
            "median |err| / |ref|");
    for (const auto& [kind, sums] : by_kind) {
      rec.layer_detail["rel_error_mean." + dist::kind_name(kind)] =
          ratio(sums.first, sums.second);
    }
    rec.show("rel_error_mean", "ratio", ratio(abs_err_sum, ref_sum),
             std::to_string(checked) + " results, mean |err| / mean |ref|");
  }
};

volatile double reference_sink = 0.0;

/// Mean microseconds per dist::compute call over `calls` inputs.
double time_reference(Tracer& tracer, std::size_t calls,
                      const std::function<double(std::size_t)>& one) {
  if (calls == 0) return 0.0;
  Scope span(tracer, "distance.reference");
  double sum = 0.0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < calls; ++i) sum += one(i);
  const double us = (now_s() - t0) * 1e6 / static_cast<double>(calls);
  reference_sink = sum;  // keeps the calls observable
  return us;
}

// ------------------------------------------------------------ layers --

/// Share of Newton lane-rounds of the lockstep solver that ran batched:
/// batched lane solves over batched + evicted-to-scalar + fallback lanes.
double lockstep_round_share(const ObsWindow& w) {
  const double batched = w.count("mda.spice.batch_sparse_lanes") +
                         w.count("mda.spice.batch_dense_lanes");
  return ratio(batched, batched + w.count("mda.spice.batch_scalar_evictions") +
                            w.count("mda.spice.batch_fallback_lanes"));
}

/// Per-layer counters every workload reports (zero where a layer does not
/// run), as deltas over the traced pass.  `ops` normalises the per-query
/// spice counters.
void registry_layers(Record& rec, const ObsWindow& w, double ops) {
  const double hits = w.count("mda.cache.hits");
  rec.set("core.cache_hit_frac", "ratio",
          ratio(hits, hits + w.count("mda.cache.misses")));
  rec.set("core.cache_builds", "count", w.count("mda.cache.misses"));
  rec.set("core.wavefront_cell_solves_per_eval", "count",
          ratio(w.count("mda.backend.wavefront_cell_solves"),
                w.count("mda.backend.wavefront_evals")));
  rec.set("core.wavefront_cold_restarts", "count",
          w.count("mda.backend.wavefront_cold_restarts"));
  const double lock = w.count("mda.accel.lockstep_lanes");
  rec.set("core.lockstep_share", "ratio",
          ratio(lock, lock + w.count("mda.accel.lockstep_scalar_lanes")));
  rec.set("spice.newton_iters_per_query", "count",
          ratio(w.count("mda.spice.newton_iterations"), ops));
  rec.set("spice.transient_steps_per_query", "count",
          ratio(w.count("mda.spice.transient_steps"), ops));
  rec.set("spice.lu_factors_per_query", "count",
          ratio(w.count("mda.spice.sparse_lu_factors"), ops));
  rec.set("spice.lu_refactors_per_query", "count",
          ratio(w.count("mda.spice.sparse_lu_refactors"), ops));
  rec.set("spice.refactor_fallbacks", "count",
          w.count("mda.spice.refactor_fallbacks"));
  rec.set("spice.lu_stream_reuses", "count",
          w.count("mda.spice.lu_stream_reuses"));
  rec.set("spice.batch_rounds", "count", w.count("mda.spice.batch_rounds"));
  rec.set("spice.batch_scalar_evictions", "count",
          w.count("mda.spice.batch_scalar_evictions"));
  rec.set("spice.batch_dense_lanes", "count",
          w.count("mda.spice.batch_dense_lanes"));
  rec.set("spice.lockstep_useful_frac", "ratio", lockstep_round_share(w));
  // Layers the workload does not run read zero.
  const std::pair<const char*, const char*> workload_specific[] = {
      {"serve.collapsed_frac", "ratio"}, {"serve.requests_per_window", "count"},
      {"serve.solves_per_s", "1/s"},     {"serve.rejected_frac", "ratio"},
      {"mining.pruned_frac", "ratio"},   {"mining.evaluated_frac", "ratio"}};
  for (const auto& [name, unit] : workload_specific) {
    if (rec.metrics.count(name) == 0) rec.set(name, unit, 0.0);
  }
}

void finish_trace(const Options& o, Record& rec, const Tracer& tracer) {
  rec.layers = tracer.layer_times();
  rec.trace_file = o.out_dir + "/" + o.workload + "-seed" +
                   std::to_string(o.seed) + ".trace.json";
  if (!tracer.write_chrome_trace(rec.trace_file)) {
    rec.check("trace_written", false, "cannot write " + rec.trace_file);
  }
}

// -------------------------------------------------------- serve-zipf --

namespace serve_zipf {

// bench_serve's query universe: three FullSpice shard configurations, 28
// (P, Q) pairs each, Zipf 1.1 over configs, pairs and 64 tenants.
struct ShardConfig {
  dist::DistanceKind kind;
  double threshold;
};
constexpr ShardConfig kConfigs[] = {
    {dist::DistanceKind::Manhattan, 0.0},
    {dist::DistanceKind::Hamming, 0.25},
    {dist::DistanceKind::Hamming, 0.5},
};
constexpr std::size_t kNumConfigs = std::size(kConfigs);
constexpr std::size_t kPairs = 28;
constexpr std::size_t kTenants = 64;
constexpr std::size_t kLength = 4;
constexpr double kZipfS = 1.1;

using Pair = std::pair<std::vector<double>, std::vector<double>>;

std::vector<double> series(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<double> s(n);
  for (double& v : s) v = rng.uniform(-1.5, 1.5);
  return s;
}

struct Arrival {
  double due = 0.0;  ///< Scheduled send time, seconds from phase start.
  std::uint32_t config = 0;
  std::uint32_t pair = 0;
  std::uint64_t tenant = 0;
};

std::vector<Arrival> schedule(std::uint64_t seed, std::uint64_t phase,
                              double rate, double duration) {
  util::Rng rng(mix(seed, phase));
  const perfbench::Zipf zc(kNumConfigs, kZipfS);
  const perfbench::Zipf zp(kPairs, kZipfS);
  const perfbench::Zipf zt(kTenants, kZipfS);
  std::vector<Arrival> out;
  for (const double t : perfbench::poisson_arrivals(rng, rate, duration)) {
    Arrival a;
    a.due = t;
    a.config = static_cast<std::uint32_t>(zc.sample(rng));
    a.pair = static_cast<std::uint32_t>(zp.sample(rng));
    a.tenant = zt.sample(rng);
    out.push_back(a);
  }
  return out;
}

struct Phase {
  double rate = 0.0;
  double duration = 0.0;
  double wall = 0.0;
  std::vector<Arrival> arrivals;
  std::vector<double> done;  ///< Answer time from phase start; inf = none.
  std::vector<double> lag_ms;
  std::vector<double> send_us;
  std::vector<core::QueryResponse> replies;
  std::size_t ok = 0;

  [[nodiscard]] std::vector<double> latency_ms() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (replies[i].ok() && std::isfinite(done[i])) {
        out.push_back((done[i] - arrivals[i].due) * 1e3);
      }
    }
    return out;
  }
  [[nodiscard]] std::size_t failed() const { return arrivals.size() - ok; }
  /// Time-bounded loops run whole units of work: start another while the
/// run would end nearer the budget with it than without it.
bool another_unit(double t0, std::uint64_t done, double budget_s) {
  const double elapsed = now_s() - t0;
  return done == 0 || elapsed + 0.5 * elapsed / double(done) < budget_s;
}

/// Tail latency by the percentile rule over every request, a failed or
  /// refused one counting as +inf (it misses any limit).
  [[nodiscard]] double tail_ms() const {
    std::vector<double> lat = latency_ms();
    lat.resize(arrivals.size(), std::numeric_limits<double>::infinity());
    return tail(lat).first;
  }
  /// Ok answers per second in consecutive buckets of `bucket_s` over the
  /// phase's sending window, the first bucket (ramp-up) left out.
  [[nodiscard]] std::vector<double> answer_rates(double bucket_s) const {
    const auto buckets = static_cast<std::size_t>(duration / bucket_s);
    std::vector<double> count(buckets, 0.0);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (!replies[i].ok() || !(done[i] < duration)) continue;
      ++count[static_cast<std::size_t>(done[i] / bucket_s)];
    }
    std::vector<double> rates;
    for (std::size_t b = 1; b < buckets; ++b) rates.push_back(count[b] / bucket_s);
    return rates;
  }
  [[nodiscard]] bool backlog_growing() const {
    std::vector<double> due;
    for (const Arrival& a : arrivals) due.push_back(a.due);
    return perfbench::backlog_growing(due, done, duration);
  }
};

/// Back-to-back phases at the nominal rate (see run()).
constexpr std::size_t kNominalPhases = 5;
/// max_qps probe rates, as multiples of the high rate.
constexpr double kProbeFactors[] = {2.0, 3.0};
/// Saturation phase: requests kept in flight per connection (one coalesce
/// window), drawn from a schedule generated at kSaturationRps so it cannot
/// run out.
constexpr std::size_t kInFlight = 64;
constexpr double kRateBucketS = 0.5;
constexpr double kSaturationRps = 5000.0;

class Workload {
 public:
  explicit Workload(const Options& o) : opts_(o) {
    universe_.resize(kNumConfigs);
    for (std::size_t c = 0; c < kNumConfigs; ++c) {
      for (std::size_t j = 0; j < kPairs; ++j) {
        const std::uint64_t s = 9000 + 131 * c + 2 * j;
        universe_[c].push_back({series(s, kLength), series(s + 1, kLength)});
      }
    }
  }
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  ~Workload() { stop(); }

  /// Server start, connect, one request per shard config (shard creation,
  /// configure, FullSpice array build); returns seconds.  The server of
  /// the last call stays up for the measured phases.
  double setup() {
    stop();
    const double t0 = now_s();
    serve::ServeOptions so;
    so.accelerator.backend = core::Backend::FullSpice;
    server_ = std::make_unique<serve::Server>(so);
    server_->start();
    conns_.resize(std::max<std::size_t>(1, opts_.threads / 2));
    for (serve::Client& c : conns_) c.connect("127.0.0.1", server_->port());
    for (std::size_t c = 0; c < kNumConfigs; ++c) {
      const auto resp = conns_[0].call(request(c, 0, 0), c, 60000);
      if (!resp || !resp->ok()) throw std::runtime_error("serve warm-up failed");
    }
    return now_s() - t0;
  }

  /// One phase over nproc/2 connections, each with a sender and a receiver
  /// thread.  Open loop (window = 0): the sender sleeps until an arrival is
  /// due and sends it; latency counts from the due time.  Closed loop
  /// (window > 0): the sender keeps `window` requests in flight per
  /// connection and stops sending after `duration`; latency counts from
  /// the send.
  Phase run_phase(double rate, double duration, Tracer& tracer,
                  std::size_t window = 0) {
    Phase ph;
    ph.rate = rate;
    ph.duration = duration;
    ph.arrivals = schedule(opts_.seed, ++phase_id_, rate, duration);
    const std::size_t n = ph.arrivals.size();
    ph.done.assign(n, std::numeric_limits<double>::infinity());
    ph.replies.assign(n, core::QueryResponse{});
    ph.lag_ms.assign(n, 0.0);
    ph.send_us.assign(n, 0.0);
    const std::size_t nc = conns_.size();
    const std::uint64_t tag = phase_id_ << 32;
    struct Flow {
      std::atomic<std::size_t> sent{0};
      std::atomic<std::size_t> answered{0};  ///< Written under `m`.
      std::atomic<bool> done_sending{false};
      std::mutex m;
      std::condition_variable room;  ///< Closed loop: an answer arrived.
    };
    std::vector<Flow> flows(nc);
    const double t0 = now_s() + 0.005;
    const double give_up = t0 + duration + 30.0;
    // A client thread that throws (connection lost, undecodable response)
    // stops the phase; the first exception is rethrown after the join.
    std::atomic<bool> abort{false};
    std::mutex error_mutex;
    std::exception_ptr error;
    auto guarded = [&](std::function<void()> body) {
      return [&, body] {
        try {
          body();
        } catch (...) {
          const std::lock_guard<std::mutex> lk(error_mutex);
          if (!error) error = std::current_exception();
          abort = true;
        }
      };
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < nc; ++c) {
      threads.emplace_back(guarded([&, c] {
        Flow& f = flows[c];
        for (std::size_t i = c; i < n && !abort; i += nc) {
          Arrival& a = ph.arrivals[i];
          if (window > 0) {
            std::unique_lock<std::mutex> lk(f.m);
            while (f.sent - f.answered >= window && !abort &&
                   now_s() < give_up) {
              f.room.wait_for(lk, std::chrono::milliseconds(50));
            }
            lk.unlock();
            if (now_s() >= t0 + duration) break;
            a.due = now_s() - t0;
          }
          const double due = t0 + a.due;
          const double wait = due - now_s();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          const double s0 = now_s();
          ph.lag_ms[i] = (s0 - due) * 1e3;
          {
            Scope span(tracer, "serve.client_send", tag | i);
            conns_[c].send(request(a.config, a.pair, a.tenant), tag | i);
          }
          ph.send_us[i] = (now_s() - s0) * 1e6;
          ++f.sent;
        }
        f.done_sending = true;
      }));
      threads.emplace_back(guarded([&, c] {
        Flow& f = flows[c];
        while (!(f.done_sending && f.answered == f.sent) && !abort &&
               now_s() < give_up) {
          std::optional<core::QueryResponse> resp;
          {
            Scope span(tracer, "serve.client_recv");
            resp = conns_[c].recv(50);
          }
          if (!resp) continue;
          const double at = now_s();
          if ((resp->id >> 32) != phase_id_) continue;  // earlier phase
          const std::size_t i = resp->id & 0xffffffffull;
          if (i >= n || std::isfinite(ph.done[i])) continue;
          ph.done[i] = at - t0;
          ph.replies[i] = std::move(*resp);
          {
            const std::lock_guard<std::mutex> lk(f.m);
            ++f.answered;
          }
          f.room.notify_one();
        }
      }));
    }
    for (std::thread& t : threads) t.join();
    if (error) std::rethrow_exception(error);
    ph.wall = now_s() - t0;
    // A closed loop stops sending early: keep only the requests sent.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i / nc >= flows[i % nc].sent) continue;
      ph.arrivals[kept] = ph.arrivals[i];
      ph.done[kept] = ph.done[i];
      ph.replies[kept] = std::move(ph.replies[i]);
      ph.lag_ms[kept] = ph.lag_ms[i];
      ph.send_us[kept] = ph.send_us[i];
      ++kept;
    }
    ph.arrivals.resize(kept);
    ph.done.resize(kept);
    ph.replies.resize(kept);
    ph.lag_ms.resize(kept);
    ph.send_us.resize(kept);
    for (const auto& r : ph.replies) ph.ok += r.ok() ? 1 : 0;
    return ph;
  }

  /// max_qps: probes at fixed multiples of the high rate, then the
  /// limit crossing of a log-log fit of tail latency against rate over the
  /// nominal, high and probe phases (perfbench::max_sustainable_rate).
  double max_qps(const std::vector<const Phase*>& measured, double probe_s,
                 std::vector<Phase>& probes,
                 std::vector<std::vector<double>>& trail) {
    Tracer off(false);
    std::vector<const Phase*> all = measured;
    for (const double f : kProbeFactors) {
      probes.push_back(run_phase(f * opts_.high_rps, probe_s, off));
    }
    for (const Phase& p : probes) all.push_back(&p);
    std::vector<perfbench::RatePoint> pts;
    for (const Phase* p : all) {
      pts.push_back({p->rate, p->tail_ms(), p->backlog_growing()});
      trail.push_back({p->rate, p->tail_ms(), double(p->arrivals.size()),
                       double(p->failed()),
                       pts.back().backlog_growing ? 1.0 : 0.0});
    }
    return perfbench::max_sustainable_rate(pts, opts_.limit_ms);
  }

  [[nodiscard]] core::QueryRequest request(std::size_t c, std::size_t j,
                                           std::uint64_t tenant) const {
    core::QueryRequest req{universe_[c][j].first, universe_[c][j].second};
    req.kind = kConfigs[c].kind;
    req.threshold = kConfigs[c].threshold;
    req.tenant = tenant;
    return req;
  }

  static core::DistanceSpec spec(std::size_t c) {
    core::DistanceSpec s;
    s.kind = kConfigs[c].kind;
    s.threshold = kConfigs[c].threshold;
    return s;
  }

  void stop() {
    for (serve::Client& c : conns_) c.close();
    conns_.clear();
    if (server_) server_->stop();
  }

  [[nodiscard]] serve::ServerStats stats() const { return server_->stats(); }

  /// Gate + accuracy over the given phases: every Ok response must be
  /// bitwise equal to a direct try_compute on a fresh accelerator (one
  /// solve per unique (config, pair)), and within the error envelope of
  /// dist::compute.
  void gate(const std::vector<const Phase*>& phases, Record& rec,
            Tracer& tracer) const {
    std::vector<std::vector<core::ComputeResult>> direct(kNumConfigs);
    std::vector<std::vector<double>> digital(kNumConfigs);
    for (std::size_t c = 0; c < kNumConfigs; ++c) {
      core::AcceleratorConfig cfg;
      cfg.backend = core::Backend::FullSpice;
      core::Accelerator acc(cfg);
      acc.configure(spec(c));
      for (const Pair& pq : universe_[c]) {
        Scope span(tracer, "core.try_compute");
        const core::ComputeOutcome out = acc.try_compute(pq.first, pq.second);
        direct[c].push_back(out.ok() ? out.value() : core::ComputeResult{});
        digital[c].push_back(dist::compute(kConfigs[c].kind, pq.first,
                                           pq.second,
                                           spec(c).reference_params()));
      }
    }
    // Every response is checked bitwise; accuracy is tallied once per
    // distinct (config, pair) served, so the traffic mix of a seed does not
    // move it.
    std::size_t mismatches = 0, checked = 0;
    std::vector<std::vector<std::size_t>> uses(kNumConfigs,
                                               std::vector<std::size_t>(kPairs));
    for (const Phase* ph : phases) {
      for (std::size_t i = 0; i < ph->arrivals.size(); ++i) {
        const core::QueryResponse& r = ph->replies[i];
        if (!r.ok()) continue;
        const Arrival& a = ph->arrivals[i];
        ++checked;
        ++uses[a.config][a.pair];
        if (!core::bitwise_equal(r.result, direct[a.config][a.pair])) {
          ++mismatches;
        }
      }
    }
    ErrorTally err;
    for (std::size_t c = 0; c < kNumConfigs; ++c) {
      for (std::size_t j = 0; j < kPairs; ++j) {
        if (uses[c][j] > 0) {
          err.add(kConfigs[c].kind, direct[c][j].value, digital[c][j],
                  uses[c][j]);
        }
      }
    }
    rec.check("served_equals_direct", mismatches == 0,
              std::to_string(mismatches) + " of " + std::to_string(checked) +
                  " responses differ from a direct try_compute");
    rec.failed += mismatches;
    err.report(rec);
    rec.layer_detail["distance.reference_us"] = time_reference(
        tracer, kNumConfigs * kPairs, [&](std::size_t i) {
          const std::size_t c = i / kPairs, j = i % kPairs;
          return dist::compute(kConfigs[c].kind, universe_[c][j].first,
                               universe_[c][j].second, spec(c).reference_params());
        });
  }

 private:
  const Options& opts_;
  std::vector<std::vector<Pair>> universe_;
  std::unique_ptr<serve::Server> server_;
  std::vector<serve::Client> conns_;
  std::uint64_t phase_id_ = 0;
};

void run(const Options& o, Record& rec) {
  Tracer off(false);
  Tracer on(o.trace);  // traced pass and gate spans; records only if --trace 1
  Workload w(o);
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) setups.push_back(w.setup());
  rec.set("setup_s", "s", perfbench::median(setups), setups, "median");

  // Nominal and high phases are what attempted/failed count; max_qps
  // probes above capacity may be refused by design.
  std::vector<Phase> counted, probes;
  counted.reserve(kNominalPhases + 2);  // references into it stay valid
  const double S = o.seconds;
  if (!o.trace) {
    // The nominal load runs as kNominalPhases back-to-back phases: p50_ms
    // and tail_ms are medians of the per-phase figures, so one host stall
    // inflates at most one of them.  The reported p50/p99 pool them.
    for (std::size_t k = 0; k < kNominalPhases; ++k) {
      counted.push_back(w.run_phase(o.nominal_rps, 0.12 * S, off));
    }
    counted.push_back(w.run_phase(o.high_rps, 0.1 * S, off));
    // Saturation throughput: a closed loop keeping a coalesce window of
    // requests in flight per connection.
    counted.push_back(w.run_phase(kSaturationRps, 0.2 * S, off, kInFlight));
    const Phase& high = counted[kNominalPhases];
    const Phase& flood = counted.back();
    std::vector<const Phase*> fit{&high};
    std::vector<double> sub_p50, sub_tail, pooled;
    std::string label;
    for (std::size_t k = 0; k < kNominalPhases; ++k) {
      const std::vector<double> lat = counted[k].latency_ms();
      fit.push_back(&counted[k]);
      sub_p50.push_back(p50(lat));
      const auto [t, l] = tail(lat);
      sub_tail.push_back(t);
      label = l;
      pooled.insert(pooled.end(), lat.begin(), lat.end());
    }
    const double max_qps = w.max_qps(fit, 0.05 * S, probes, rec.search);
    rec.set("p50_ms", "ms", perfbench::median(sub_p50), sub_p50,
            "median of per-phase p50");
    rec.set("tail_ms", "ms", perfbench::median(sub_tail), sub_tail,
            "median of per-phase " + label);
    latency_metrics(rec, pooled, "", false);
    latency_metrics(rec, high.latency_ms(), ".high", false);
    const std::vector<double> rates = flood.answer_rates(kRateBucketS);
    rec.set("throughput_per_s", "1/s", perfbench::median(rates), rates,
            "closed loop, " + std::to_string(kInFlight) +
                " in flight per connection: median answers/s over " +
                num(kRateBucketS) + " s buckets");
    rec.show("max_qps", "req/s", max_qps,
             "fit over " + std::to_string(rec.search.size()) + " phases");
  } else {
    const double half = S / 2.0;
    counted.push_back(w.run_phase(o.nominal_rps, 0.6 * half, off));
    counted.push_back(w.run_phase(o.high_rps, 0.4 * half, off));
    const serve::ServerStats s0 = w.stats();
    ObsWindow win;
    counted.push_back(w.run_phase(o.nominal_rps, 0.6 * half, on));
    counted.push_back(w.run_phase(o.high_rps, 0.4 * half, on));
    win.close();
    const serve::ServerStats s1 = w.stats();
    const double wall = counted[2].wall + counted[3].wall;

    std::vector<double> lag, send, client_lat;
    for (std::size_t k = 2; k < 4; ++k) {
      const Phase& p = counted[k];
      lag.insert(lag.end(), p.lag_ms.begin(), p.lag_ms.end());
      send.insert(send.end(), p.send_us.begin(), p.send_us.end());
      const auto l = p.latency_ms();
      client_lat.insert(client_lat.end(), l.begin(), l.end());
    }
    const double requests = double(s1.requests - s0.requests);
    const double solves = double(s1.solves - s0.solves);
    gen_lag(rec, lag);
    rec.set("bench.trace_overhead_frac", "ratio",
            p50(counted[2].latency_ms()) / p50(counted[0].latency_ms()) - 1.0,
            {}, "traced/untraced nominal p50 - 1");
    rec.set("serve.collapsed_frac", "ratio",
            ratio(double(s1.collapsed - s0.collapsed), requests));
    rec.set("serve.requests_per_window", "count",
            ratio(win.count("mda.serve.requests"),
                  win.count("mda.serve.windows")));
    rec.set("serve.solves_per_s", "1/s", solves / wall);
    rec.set("serve.rejected_frac", "ratio",
            ratio(double(s1.rejected - s0.rejected), requests));
    rec.set("core.query_ms", "ms",
            1e3 * ratio(win.sum("mda.backend.fullspice_time_s"),
                        win.count("mda.backend.fullspice_time_s")),
            {}, "FullSpice backend time per solve");
    rec.set("core.fallbacks", "count", 0.0);
    for (std::size_t k = 2; k < 4; ++k) {
      for (const auto& r : counted[k].replies) {
        if (r.ok()) rec.metrics["core.fallbacks"].value += r.result.fallbacks;
      }
    }
    registry_layers(rec, win, solves);
    rec.layer_detail["serve.client_send_us.p50"] = p50(send);
    rec.layer_detail["serve.server_latency_ms.mean"] =
        1e3 * ratio(win.sum("mda.serve.request_latency_s"),
                    win.count("mda.serve.request_latency_s"));
    double sum = 0.0;
    for (const double v : client_lat) sum += v;
    rec.layer_detail["serve.client_latency_ms.mean"] =
        ratio(sum, double(client_lat.size()));
  }
  w.stop();

  std::vector<const Phase*> all;
  for (const Phase& p : counted) {
    all.push_back(&p);
    rec.attempted += p.arrivals.size();
    rec.failed += p.failed();
  }
  for (const Phase& p : probes) all.push_back(&p);
  w.gate(all, rec, on);
  if (o.trace) finish_trace(o, rec, on);
}

}  // namespace serve_zipf

// ------------------------------------------------------ batch-* --

namespace batch {

struct KindSpec {
  dist::DistanceKind kind;
  double threshold;
};

constexpr std::size_t kLength = 4;
/// One call holds kProbes kNN queries of kCandidates candidates each: one
/// lockstep group of the default width per probe, four groups per call, so
/// a call keeps nproc = 4 engine threads busy.
constexpr std::size_t kProbes = 4;
constexpr std::size_t kCandidates = 8;
/// Warm-up pair of setup(): fixed, so set-up cost does not depend on the
/// seed's data.
constexpr double kWarmP[kLength] = {0.9, -0.4, 0.2, -1.1};
constexpr double kWarmQ[kLength] = {-0.3, 0.8, -1.2, 0.5};
/// Queries per kind re-solved serially by the gate.
constexpr std::size_t kGatePerKind = 8;

/// One timed try_compute_batch call, one kind: query i compares pool
/// series probes[i] with cands[i].
struct Call {
  std::size_t kind = 0;
  std::vector<std::size_t> probes;
  std::vector<std::size_t> cands;
  double seconds = 0.0;
  std::vector<core::ComputeOutcome> out;
};

struct Pass {
  std::vector<Call> calls;
  std::vector<double> gaps_ms;  ///< Bench time between calls.
  double wall = 0.0;
  std::size_t queries = 0;
  /// Traced passes only, per kind: accelerator lanes admitted to
  /// lockstep and routed scalar; lockstep lane-round share per call.
  std::map<std::size_t, std::pair<double, double>> lockstep;
  std::map<std::size_t, std::vector<double>> round_share;
};

class Workload {
 public:
  Workload(const Options& o, std::vector<KindSpec> kinds)
      : opts_(o), kinds_(std::move(kinds)) {
    // UCR surrogates, z-normalised and resampled to the query length.
    const data::SurrogateKind sets[] = {data::SurrogateKind::Beef,
                                        data::SurrogateKind::Symbols,
                                        data::SurrogateKind::OsuLeaf};
    for (std::size_t s = 0; s < std::size(sets); ++s) {
      const data::Dataset ds =
          data::prepare(data::make_surrogate(sets[s], mix(o.seed, 100 + s)), kLength);
      sets_.push_back({pool_.size(), ds.items.size()});
      for (const auto& item : ds.items) pool_.push_back(item.values);
    }
  }

  [[nodiscard]] core::DistanceSpec spec(std::size_t k) const {
    core::DistanceSpec s;
    s.kind = kinds_[k].kind;
    s.threshold = kinds_[k].threshold;
    return s;
  }

  /// Fresh accelerators (own caches) + engine + one warm query per kind.
  double setup() {
    const double t0 = now_s();
    accs_.clear();
    core::AcceleratorConfig cfg;
    cfg.backend = core::Backend::FullSpice;
    for (std::size_t k = 0; k < kinds_.size(); ++k) {
      accs_.push_back(std::make_unique<core::Accelerator>(cfg));
      accs_.back()->configure(spec(k));
      if (!accs_.back()->try_compute(kWarmP, kWarmQ).ok()) {
        throw std::runtime_error("batch warm-up failed");
      }
    }
    core::BatchOptions bo;
    bo.num_threads = opts_.threads;
    engine_ = std::make_unique<core::BatchEngine>(bo);
    return now_s() - t0;
  }

  /// Calls until the budget is spent, cycling through the kinds; the
  /// kinds of one cycle (a unit) share their inputs.
  Pass measure(double budget_s, Tracer& tracer, std::uint64_t stream) {
    Pass pass;
    const double t0 = now_s();
    double last_end = t0;
    std::vector<std::size_t> probes, cands;
    for (std::uint64_t n = 0; another_unit(t0, n, budget_s); ++n) {
      const std::uint64_t u = n / kinds_.size();
      const std::size_t k = n % kinds_.size();
      Scope unit(tracer, "bench.unit", n);
      if (k == 0) {
        // Stratified by dataset: probes and candidates cycle through the
        // three datasets, so every run sees the same dataset mix however
        // few units fit in it.
        util::Rng rng(mix(opts_.seed, (stream << 32) | u));
        auto draw = [&](std::size_t set) {
          set %= sets_.size();
          return sets_[set].first + rng.index(sets_[set].second);
        };
        probes.clear();
        cands.clear();
        for (std::size_t g = 0; g < kProbes; ++g) {
          const std::size_t probe = draw(u * kProbes + g);
          for (std::size_t j = 0; j < kCandidates;) {
            const std::size_t c = draw(j);
            if (c == probe) continue;
            probes.push_back(probe);
            cands.push_back(c);
            ++j;
          }
        }
      }
      Call call;
      call.kind = k;
      call.probes = probes;
      call.cands = cands;
      std::vector<core::QueryRequest> queries;
      for (std::size_t i = 0; i < cands.size(); ++i) {
        queries.push_back({pool_[probes[i]], pool_[cands[i]]});
      }
      const double c0 = now_s();
      pass.gaps_ms.push_back((c0 - last_end) * 1e3);
      std::optional<ObsWindow> win;
      if (tracer.enabled()) win.emplace();
      {
        Scope span(tracer, "core.try_compute_batch", n);
        call.out = engine_->try_compute_batch(*accs_[k], queries);
      }
      last_end = now_s();
      if (win) {
        win->close();
        pass.lockstep[k].first += win->count("mda.accel.lockstep_lanes");
        pass.lockstep[k].second += win->count("mda.accel.lockstep_scalar_lanes");
        pass.round_share[k].push_back(lockstep_round_share(*win));
      }
      call.seconds = last_end - c0;
      pass.queries += queries.size();
      pass.calls.push_back(std::move(call));
    }
    pass.wall = now_s() - t0;
    return pass;
  }

  /// Gate: a seeded sample of kGatePerKind queries per kind re-solved on
  /// fresh accelerators through the width-1 scalar path must match the
  /// batched results bitwise; every result is checked against the error
  /// envelope of dist::compute.
  void gate(const std::vector<const Pass*>& passes, Record& rec,
            Tracer& tracer) const {
    ErrorTally err;
    struct Pick {
      const Call* call;
      std::size_t i;
    };
    std::vector<std::vector<Pick>> by_kind(kinds_.size());
    for (const Pass* p : passes) {
      for (const Call& call : p->calls) {
        const core::DistanceSpec s = spec(call.kind);
        for (std::size_t i = 0; i < call.cands.size(); ++i) {
          if (!call.out[i].ok()) continue;
          by_kind[call.kind].push_back({&call, i});
          err.add(s.kind, call.out[i].value().value,
                  dist::compute(s.kind, pool_[call.probes[i]],
                                pool_[call.cands[i]], s.reference_params()));
        }
      }
    }
    core::BatchOptions bo;
    bo.num_threads = opts_.threads;
    bo.solver_batch_width = 1;
    const core::BatchEngine scalar(bo);
    util::Rng rng(mix(opts_.seed, 0x6a7e));
    std::size_t mismatches = 0, checked = 0;
    for (std::size_t k = 0; k < kinds_.size(); ++k) {
      std::vector<Pick> picks;
      for (std::size_t n = 0; n < kGatePerKind && !by_kind[k].empty(); ++n) {
        picks.push_back(by_kind[k][rng.index(by_kind[k].size())]);
      }
      std::vector<core::QueryRequest> queries;
      for (const Pick& p : picks) {
        queries.push_back(
            {pool_[p.call->probes[p.i]], pool_[p.call->cands[p.i]]});
      }
      core::AcceleratorConfig cfg;
      cfg.backend = core::Backend::FullSpice;
      core::Accelerator fresh(cfg);
      fresh.configure(spec(k));
      std::vector<core::ComputeOutcome> want;
      {
        Scope span(tracer, "core.try_compute_batch.width1");
        want = scalar.try_compute_batch(fresh, queries);
      }
      for (std::size_t n = 0; n < picks.size(); ++n) {
        ++checked;
        if (!want[n].ok() ||
            !core::bitwise_equal(want[n].value(),
                                 picks[n].call->out[picks[n].i].value())) {
          ++mismatches;
        }
      }
    }
    rec.check("batch_equals_width1", mismatches == 0,
              std::to_string(mismatches) + " of " + std::to_string(checked) +
                  " sampled queries differ from a width-1 try_compute");
    rec.failed += mismatches;
    err.report(rec);
    // Reference timing over the first pass's inputs.
    std::vector<std::pair<std::size_t, std::size_t>> inputs;
    std::vector<std::size_t> kind_of;
    for (const Call& call : passes.front()->calls) {
      for (std::size_t i = 0; i < call.cands.size(); ++i) {
        inputs.push_back({call.probes[i], call.cands[i]});
        kind_of.push_back(call.kind);
      }
    }
    rec.layer_detail["distance.reference_us"] =
        time_reference(tracer, inputs.size(), [&](std::size_t i) {
          const core::DistanceSpec s = spec(kind_of[i]);
          return dist::compute(s.kind, pool_[inputs[i].first],
                               pool_[inputs[i].second], s.reference_params());
        });
  }

  [[nodiscard]] const std::vector<KindSpec>& kinds() const { return kinds_; }

 private:
  const Options& opts_;
  std::vector<KindSpec> kinds_;
  std::vector<std::vector<double>> pool_;
  std::vector<std::pair<std::size_t, std::size_t>> sets_;  ///< Offset, size.
  std::vector<std::unique_ptr<core::Accelerator>> accs_;
  std::unique_ptr<core::BatchEngine> engine_;
};

/// Per kind: seconds in try_compute_batch and queries answered.
std::vector<std::pair<double, double>> kind_costs(const Pass& p,
                                                  std::size_t kinds) {
  std::vector<std::pair<double, double>> cost(kinds);
  for (const Call& c : p.calls) {
    cost[c.kind].first += c.seconds;
    cost[c.kind].second += double(c.cands.size());
  }
  return cost;
}

/// Queries per second of an equal mix of the workload's kinds: mix size
/// over the sum of per-kind seconds per query, so a run that ends part-way
/// through a cycle of kinds is not biased toward the kinds it ran last.
double mix_throughput(const Pass& p, std::size_t kinds) {
  double s_per_query = 0.0;
  for (const auto& [s, q] : kind_costs(p, kinds)) s_per_query += ratio(s, q);
  return ratio(double(kinds), s_per_query);
}

/// kNN latency: every query of a call is answered when the call returns,
/// so each query contributes its call's wall time, per kind.  A probe's
/// answer under every kind of the workload takes the sum over kinds, which
/// is what p50_ms / tail_ms report (kinds differ by an order of magnitude,
/// so a percentile over the pooled kinds would sit on a mode boundary).
void latency_metrics(Record& rec, const Pass& p, std::size_t kinds) {
  std::vector<std::vector<double>> by_kind(kinds);
  for (const Call& c : p.calls) {
    by_kind[c.kind].insert(by_kind[c.kind].end(), c.cands.size(),
                           c.seconds * 1e3);
  }
  double med = 0.0, t = 0.0;
  std::string label;
  for (const auto& lat : by_kind) {
    med += p50(lat);
    const auto [v, l] = tail(lat);
    t += v;
    label = l;
  }
  rec.set("p50_ms", "ms", med, by_kind.front(), "sum over kinds of p50");
  rec.set("tail_ms", "ms", t, by_kind.front(), "sum over kinds of " + label);
  rec.show("p50_ms", "ms", med, "kNN query under every kind");
  rec.show("p99_ms", "ms", kNaN, "tail here: " + label + " per kind");
}

std::string kind_key(dist::DistanceKind k) {
  std::string s = dist::kind_name(k);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  return s;
}

void run(const Options& o, Record& rec, std::vector<KindSpec> kinds) {
  Tracer off(false);
  Tracer on(o.trace);  // traced pass and gate spans; records only if --trace 1
  Workload w(o, std::move(kinds));
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) setups.push_back(w.setup());
  rec.set("setup_s", "s", perfbench::median(setups), setups, "median");

  std::vector<Pass> passes;
  passes.reserve(2);
  if (!o.trace) {
    passes.push_back(w.measure(o.seconds, off, 0));
    const Pass& p = passes[0];
    latency_metrics(rec, p, w.kinds().size());
    std::vector<double> per_call;
    for (const Call& c : p.calls) per_call.push_back(c.cands.size() / c.seconds);
    const double qps = mix_throughput(p, w.kinds().size());
    rec.set("throughput_per_s", "1/s", qps, per_call, "equal-mix queries/s");
    rec.show("queries_per_s", "queries/s", qps);
  } else {
    passes.push_back(w.measure(o.seconds / 2.0, off, 0));
    ObsWindow win;
    passes.push_back(w.measure(o.seconds / 2.0, on, 1));
    win.close();
    const Pass& base = passes[0];
    const Pass& traced = passes[1];
    gen_lag(rec, traced.gaps_ms);
    const std::size_t nk = w.kinds().size();
    rec.set("bench.trace_overhead_frac", "ratio",
            mix_throughput(base, nk) / mix_throughput(traced, nk) - 1.0, {},
            "untraced/traced equal-mix queries/s - 1");
    double call_s = 0.0, fallbacks = 0.0;
    for (const Call& c : traced.calls) {
      call_s += c.seconds;
      for (const auto& out : c.out) {
        if (out.ok()) fallbacks += out.value().fallbacks;
      }
    }
    const auto per_kind = kind_costs(traced, nk);
    rec.set("core.query_ms", "ms", 1e3 * call_s / double(traced.queries), {},
            "try_compute_batch seconds per query");
    rec.set("core.fallbacks", "count", fallbacks);
    registry_layers(rec, win, double(traced.queries));
    for (std::size_t k = 0; k < nk; ++k) {
      rec.layer_detail["core.query_ms." + kind_key(w.kinds()[k].kind)] =
          1e3 * ratio(per_kind[k].first, per_kind[k].second);
    }
    for (const auto& [k, lanes] : traced.lockstep) {
      const std::string kind = kind_key(w.kinds()[k].kind);
      rec.layer_detail["core.lockstep_share." + kind] =
          ratio(lanes.first, lanes.first + lanes.second);
      rec.layer_detail["spice.lockstep_useful_frac." + kind] =
          perfbench::median(traced.round_share.at(k));
    }
  }

  std::vector<const Pass*> all;
  for (const Pass& p : passes) {
    all.push_back(&p);
    for (const Call& c : p.calls) {
      rec.attempted += c.out.size();
      for (const auto& out : c.out) rec.failed += out.ok() ? 0 : 1;
    }
  }
  w.gate(all, rec, on);
  if (o.trace) finish_trace(o, rec, on);
}

}  // namespace batch

// --------------------------------------------------- profile-wavefront --

namespace profile {

constexpr std::size_t kWindow = 16;
constexpr std::size_t kPoints = 48;

struct Call {
  data::Series series;
  mining::ProfileResult result;
  double seconds = 0.0;
};

struct Pass {
  std::vector<Call> calls;
  std::vector<double> gaps_ms;
  double wall = 0.0;
  std::size_t windows = 0;
};

class Workload {
 public:
  explicit Workload(const Options& o) : opts_(o) {
    spec_.kind = dist::DistanceKind::Dtw;
  }

  /// Synthetic ECG: 8x oversampled make_ecg resampled to kPoints, so a
  /// series spans about two beats.
  [[nodiscard]] data::Series series(std::uint64_t k) const {
    const data::Series raw =
        data::make_ecg(kPoints * 8, 1.25, false, mix(opts_.seed, 500 + k));
    return data::resample(raw, kPoints);
  }

  [[nodiscard]] mining::ProfileConfig config(
      const core::BatchEngine& engine) const {
    mining::ProfileConfig cfg;
    cfg.window = kWindow;
    cfg.kind = spec_.kind;
    cfg.accelerator = acc_.get();
    cfg.engine = &engine;
    return cfg;
  }

  /// Fresh Wavefront accelerator + engine + one warm DTW query (harness
  /// pool fill).
  double setup() {
    const double t0 = now_s();
    acc_ = std::make_unique<core::Accelerator>();
    acc_->configure(spec_);
    // Fixed warm-up input, so set-up cost does not depend on the seed.
    const data::Series s =
        data::resample(data::make_ecg(kPoints * 8, 1.25, false, 7), kPoints);
    const data::Series a = data::znormalize({s.data(), kWindow});
    const data::Series b = data::znormalize({s.data() + kWindow, kWindow});
    if (!acc_->try_compute(a, b).ok()) {
      throw std::runtime_error("profile warm-up failed");
    }
    core::BatchOptions bo;
    bo.num_threads = opts_.threads;
    engine_ = std::make_unique<core::BatchEngine>(bo);
    return now_s() - t0;
  }

  Pass measure(double budget_s, Tracer& tracer, std::uint64_t stream) {
    Pass pass;
    const double t0 = now_s();
    double last_end = t0;
    for (std::uint64_t k = 0; another_unit(t0, k, budget_s); ++k) {
      Scope unit(tracer, "bench.unit", k);
      Call call;
      call.series = series((stream << 32) | k);
      const mining::ProfileConfig cfg = config(*engine_);
      const double c0 = now_s();
      pass.gaps_ms.push_back((c0 - last_end) * 1e3);
      {
        Scope span(tracer, "mining.matrix_profile", k);
        call.result = mining::matrix_profile(call.series, cfg);
      }
      last_end = now_s();
      call.seconds = last_end - c0;
      pass.windows += call.result.profile.size();
      pass.calls.push_back(std::move(call));
    }
    pass.wall = now_s() - t0;
    return pass;
  }

  /// Gate: the first call and one seeded other call re-run at one engine
  /// thread must give bitwise-equal profiles and neighbours; every profile
  /// entry must sit within the DTW envelope of dist::compute on the same
  /// z-normalised windows.
  void gate(const std::vector<const Pass*>& passes, Record& rec,
            Tracer& tracer) const {
    core::BatchOptions bo;
    bo.num_threads = 1;
    const core::BatchEngine one(bo);
    std::vector<const Call*> calls;
    for (const Pass* p : passes) {
      for (const Call& c : p->calls) calls.push_back(&c);
    }
    util::Rng rng(mix(opts_.seed, 0x9a7e));
    std::vector<const Call*> picks{calls.front()};
    if (calls.size() > 1) picks.push_back(calls[1 + rng.index(calls.size() - 1)]);
    std::size_t mismatches = 0;
    for (const Call* c : picks) {
      mining::ProfileResult want;
      {
        Scope span(tracer, "mining.matrix_profile.one_thread");
        want = mining::matrix_profile(c->series, config(one));
      }
      const auto& got = c->result;
      const bool same =
          want.profile.size() == got.profile.size() &&
          std::memcmp(want.profile.data(), got.profile.data(),
                      got.profile.size() * sizeof(double)) == 0 &&
          want.neighbor == got.neighbor;
      if (!same) mismatches += got.profile.size();
    }
    rec.check("profile_equals_one_thread", mismatches == 0,
              std::to_string(picks.size()) + " calls re-run at one thread; " +
                  std::to_string(mismatches) + " windows differ");
    rec.failed += mismatches;

    ErrorTally err;
    std::vector<std::pair<data::Series, data::Series>> inputs;
    for (const Call* c : calls) {
      const auto& r = c->result;
      for (std::size_t i = 0; i < r.profile.size(); ++i) {
        if (r.neighbor[i] == mining::kNoNeighbor) continue;
        const std::size_t j = r.neighbor[i];
        data::Series a = data::znormalize({c->series.data() + r.starts[i], kWindow});
        data::Series b = data::znormalize({c->series.data() + r.starts[j], kWindow});
        err.add(spec_.kind, r.profile[i],
                dist::compute(spec_.kind, a, b, spec_.reference_params()));
        if (inputs.size() < 256) inputs.emplace_back(std::move(a), std::move(b));
      }
    }
    err.report(rec);
    rec.layer_detail["distance.reference_us"] =
        time_reference(tracer, inputs.size(), [&](std::size_t i) {
          return dist::compute(spec_.kind, inputs[i].first, inputs[i].second,
                               spec_.reference_params());
        });
  }

 private:
  const Options& opts_;
  core::DistanceSpec spec_;
  std::unique_ptr<core::Accelerator> acc_;
  std::unique_ptr<core::BatchEngine> engine_;
};

std::vector<double> latencies(const Pass& p) {
  std::vector<double> lat;
  for (const Call& c : p.calls) {
    lat.insert(lat.end(), c.result.profile.size(), c.seconds * 1e3);
  }
  return lat;
}

void run(const Options& o, Record& rec) {
  Tracer off(false);
  Tracer on(o.trace);  // traced pass and gate spans; records only if --trace 1
  Workload w(o);
  std::vector<double> setups;
  for (int i = 0; i < 9; ++i) setups.push_back(w.setup());
  rec.set("setup_s", "s", perfbench::median(setups), setups, "median");

  std::vector<Pass> passes;
  passes.reserve(2);
  if (!o.trace) {
    passes.push_back(w.measure(o.seconds, off, 0));
    const Pass& p = passes[0];
    latency_metrics(rec, latencies(p), "", true);
    std::vector<double> per_call;
    for (const Call& c : p.calls) {
      per_call.push_back(double(c.result.profile.size()) / c.seconds);
    }
    const double wps = double(p.windows) / p.wall;
    rec.set("throughput_per_s", "1/s", wps, per_call, "windows / wall");
    rec.show("windows_per_s", "windows/s", wps);
  } else {
    passes.push_back(w.measure(o.seconds / 2.0, off, 0));
    ObsWindow win;
    passes.push_back(w.measure(o.seconds / 2.0, on, 1));
    win.close();
    const Pass& base = passes[0];
    const Pass& traced = passes[1];
    gen_lag(rec, traced.gaps_ms);
    rec.set("bench.trace_overhead_frac", "ratio",
            (traced.wall / double(traced.windows)) /
                    (base.wall / double(base.windows)) - 1.0,
            {}, "traced/untraced seconds per window - 1");
    mining::ProfileStats st;
    double profile_s = 0.0;
    for (const Call& c : traced.calls) {
      profile_s += c.seconds;
      st.pairs += c.result.stats.pairs;
      st.pruned_lb_kim += c.result.stats.pruned_lb_kim;
      st.pruned_lb_keogh += c.result.stats.pruned_lb_keogh;
      st.abandoned += c.result.stats.abandoned;
      st.evaluated += c.result.stats.evaluated;
    }
    rec.set("mining.pruned_frac", "ratio",
            ratio(double(st.pruned_lb_kim + st.pruned_lb_keogh + st.abandoned),
                  double(st.pairs)));
    rec.set("mining.evaluated_frac", "ratio",
            ratio(double(st.evaluated), double(st.pairs)));
    rec.set("core.query_ms", "ms",
            1e3 * ratio(win.sum("mda.backend.wavefront_time_s"),
                        win.count("mda.backend.wavefront_time_s")),
            {}, "Wavefront backend time per evaluation");
    rec.set("core.fallbacks", "count", 0.0);
    registry_layers(rec, win, double(st.evaluated));
    rec.layer_detail["mining.profile_s"] = profile_s / double(traced.calls.size());
  }

  std::vector<const Pass*> all;
  for (const Pass& p : passes) {
    all.push_back(&p);
    rec.attempted += p.windows;
  }
  w.gate(all, rec, on);
  if (o.trace) finish_trace(o, rec, on);
}

}  // namespace profile

// ------------------------------------------------------------- output --

/// JSON number (null for NaN / inf), 9 significant digits.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string metric_json(const Metric& m) {
  const perfbench::Quartiles q = perfbench::quartiles(m.samples);
  return "{\"value\":" + num(m.value) + ",\"unit\":" + str(m.unit) +
         ",\"stat\":" + str(m.stat) +
         ",\"n\":" + std::to_string(m.samples.size()) + ",\"q1\":" + num(q.q1) +
         ",\"median\":" + num(q.median) + ",\"q3\":" + num(q.q3) + "}";
}

std::string flag(bool b) { return b ? "true" : "false"; }

void print(const Options& o, const Record& rec) {
  bool correct = true;
  for (const Check& c : rec.checks) correct = correct && c.ok;
  std::string j = "{\"workload\":" + str(o.workload) +
                  ",\"seed\":" + std::to_string(o.seed) +
                  ",\"trace\":" + (o.trace ? "1" : "0") +
                  ",\"threads\":" + std::to_string(o.threads) +
                  ",\"simd\":{\"avx512\":" + flag(spice::batch::use_avx512()) +
                  ",\"avx2\":" + flag(spice::batch::use_avx2()) +
                  ",\"force_scalar\":" + flag(spice::batch::force_scalar()) +
                  "},\"build\":{\"compiler\":" + str(PERFBENCH_COMPILER) +
                  ",\"flags\":" + str(PERFBENCH_FLAGS) +
                  ",\"build_type\":" + str(PERFBENCH_BUILD_TYPE) +
                  "},\"correct\":" + flag(correct) +
                  ",\"attempted\":" + std::to_string(rec.attempted) +
                  ",\"failed\":" + std::to_string(rec.failed) + ",\"checks\":[";
  for (std::size_t i = 0; i < rec.checks.size(); ++i) {
    const Check& c = rec.checks[i];
    j += std::string(i ? "," : "") + "{\"name\":" + str(c.name) +
         ",\"ok\":" + (c.ok ? "true" : "false") +
         ",\"detail\":" + str(c.detail) + "}";
  }
  j += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : rec.metrics) {
    j += std::string(first ? "" : ",") + str(name) + ":" + metric_json(m);
    first = false;
  }
  j += "},\"report\":[";
  for (std::size_t i = 0; i < rec.report.size(); ++i) {
    const auto& [name, m] = rec.report[i];
    j += std::string(i ? "," : "") + "{\"name\":" + str(name) +
         ",\"value\":" + num(m.value) + ",\"unit\":" + str(m.unit) +
         ",\"stat\":" + str(m.stat) + "}";
  }
  j += "],\"layer_detail\":{";
  first = true;
  for (const auto& [name, v] : rec.layer_detail) {
    j += std::string(first ? "" : ",") + str(name) + ":" + num(v);
    first = false;
  }
  j += "},\"layers\":{";
  first = true;
  for (const auto& [layer, t] : rec.layers) {
    j += std::string(first ? "" : ",") + str(layer) +
         ":{\"spans\":" + std::to_string(t.spans) +
         ",\"total_ms\":" + num(t.total_s * 1e3) +
         ",\"self_ms\":" + num(t.self_s * 1e3) + "}";
    first = false;
  }
  j += "},\"search\":[";
  for (std::size_t i = 0; i < rec.search.size(); ++i) {
    const auto& p = rec.search[i];
    j += std::string(i ? "," : "") + "{\"rate\":" + num(p[0]) +
         ",\"tail_ms\":" + num(p[1]) + ",\"requests\":" + num(p[2]) +
         ",\"failed\":" + num(p[3]) + ",\"backlog_growing\":" +
         (p[4] > 0.0 ? "true" : "false") + "}";
  }
  j += "],\"trace_file\":" + str(rec.trace_file) + "}";
  std::printf("%s\n", j.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    Record rec;
    if (o.workload == "serve-zipf") {
      serve_zipf::run(o, rec);
    } else if (o.workload == "batch-shared") {
      batch::run(o, rec, {{dist::DistanceKind::Dtw, 0.0},
                          {dist::DistanceKind::Manhattan, 0.0}});
    } else if (o.workload == "batch-divergent") {
      batch::run(o, rec, {{dist::DistanceKind::Lcs, 0.3},
                          {dist::DistanceKind::Edit, 0.3},
                          {dist::DistanceKind::Hausdorff, 0.3}});
    } else if (o.workload == "profile-wavefront") {
      profile::run(o, rec);
    } else {
      throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }
    if (!o.trace) {
      rec.set("ok_frac", "ratio",
              1.0 - ratio(double(rec.failed), double(rec.attempted)));
      rec.set("peak_rss_mb", "MB", peak_rss_mb());
      rec.show("failed_frac", "ratio", ratio(double(rec.failed), double(rec.attempted)));
      rec.show("peak_rss_mb", "MB", peak_rss_mb());
      rec.show("setup_s", "s", rec.metrics["setup_s"].value);
    } else {
      rec.set("distance.reference_us", "us", rec.layer_detail["distance.reference_us"]);
      rec.metrics.erase("rel_error_p50");
      rec.metrics.erase("setup_s");
    }
    print(o, rec);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
