// Cross-query instance cache (DESIGN.md §11): bit-identity of cached vs
// fresh-build wavefront results across all six kinds and thread counts
// {1, 2, 8}, including under an active FaultPlan; FullSpice staying out of
// the cache on its scalar and lockstep paths; cache bookkeeping (hits,
// eviction, checkout pooling); quantized weight keying; and the encode_inputs
// degenerate-input hardening that rides along in this change.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/accelerator.hpp"
#include "core/array_cache.hpp"
#include "core/backend.hpp"
#include "core/batch_engine.hpp"
#include "core/dc_harness.hpp"
#include "fault/campaign.hpp"
#include "fault/plan.hpp"
#include "util/rng.hpp"

using namespace mda;

namespace {

std::vector<double> series(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<double> s(n);
  for (double& v : s) v = rng.uniform(-1.5, 1.5);
  return s;
}

/// Full provenance comparison: results must match bit for bit, not within
/// a tolerance — the cache contract is "same arithmetic, same bits".
void expect_bitwise_equal(const core::ComputeResult& a,
                          const core::ComputeResult& b, const char* what) {
  EXPECT_EQ(std::memcmp(&a.value, &b.value, sizeof a.value), 0)
      << what << ": value " << a.value << " vs " << b.value;
  EXPECT_EQ(std::memcmp(&a.volts, &b.volts, sizeof a.volts), 0)
      << what << ": volts " << a.volts << " vs " << b.volts;
  EXPECT_EQ(a.newton_iterations, b.newton_iterations) << what;
  EXPECT_EQ(a.solver_fallbacks, b.solver_fallbacks) << what;
  EXPECT_EQ(a.quarantined_cells, b.quarantined_cells) << what;
  EXPECT_EQ(a.attempts, b.attempts) << what;
  EXPECT_EQ(a.backend_used, b.backend_used) << what;
  EXPECT_EQ(a.fault_detected, b.fault_detected) << what;
}

/// kNN-shaped stream (one probe P against many candidates Q_i) with the
/// backing storage owned alongside the BatchQuery spans.
struct Stream {
  std::vector<double> p;
  std::vector<std::vector<double>> candidates;
  std::vector<core::BatchQuery> queries;
};

Stream make_stream(dist::DistanceKind kind, std::size_t queries,
                   std::size_t length) {
  Stream s;
  s.p = series(1000 + static_cast<std::uint64_t>(kind), length);
  for (std::size_t i = 0; i < queries; ++i) {
    s.candidates.push_back(series(2000 + 17 * i, length));
  }
  for (const auto& q : s.candidates) s.queries.push_back({s.p, q});
  return s;
}

class CacheBitIdentity : public ::testing::TestWithParam<dist::DistanceKind> {};

TEST_P(CacheBitIdentity, WavefrontCachedEqualsFreshAtAnyThreadCount) {
  const dist::DistanceKind kind = GetParam();
  const std::size_t length = 5;
  const Stream stream = make_stream(kind, 6, length);
  const auto& queries = stream.queries;

  core::DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.3;

  // Reference: fresh build per query, serial, cache disabled.
  core::AcceleratorConfig fresh_cfg;
  fresh_cfg.backend = core::Backend::Wavefront;
  fresh_cfg.cache_capacity = 0;
  core::Accelerator fresh(fresh_cfg);
  fresh.configure(spec);
  std::vector<core::ComputeResult> want;
  for (const auto& q : queries) want.push_back(fresh.try_compute(q.p, q.q).unwrap());

  core::AcceleratorConfig cached_cfg;
  cached_cfg.backend = core::Backend::Wavefront;
  core::Accelerator cached(cached_cfg);
  cached.configure(spec);
  ASSERT_NE(cached.config().array_cache, nullptr);

  for (std::size_t threads : {1u, 2u, 8u}) {
    core::BatchOptions opts;
    opts.num_threads = threads;
    core::BatchEngine engine(opts);
    const std::vector<core::ComputeResult> got =
        engine.compute_batch(cached, queries);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_bitwise_equal(want[i], got[i],
                           dist::kind_name(kind).c_str());
    }
  }
  // Only the HamD/MD row arrays are cached; the matrix-PE and HauD
  // harnesses are built per evaluation and leave the cache untouched.
  const core::ArrayCache::Stats stats = cached.config().array_cache->stats();
  if (kind == dist::DistanceKind::Hamming ||
      kind == dist::DistanceKind::Manhattan) {
    EXPECT_GT(stats.hits, 0u);
  } else {
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSix, CacheBitIdentity,
                         ::testing::ValuesIn(dist::kAllKinds));

TEST(CacheBitIdentityFullSpice, BuildsPerEvaluationOutsideTheCache) {
  // FullSpice builds its array per evaluation: a default-cache accelerator
  // must leave the cache untouched on the scalar path and on the width-8
  // lockstep path, and agree bit for bit with a cache-less accelerator.
  for (const dist::DistanceKind kind :
       {dist::DistanceKind::Dtw, dist::DistanceKind::Manhattan}) {
    const Stream stream = make_stream(kind, 8, 3);
    const auto& queries = stream.queries;
    core::DistanceSpec spec;
    spec.kind = kind;
    const std::string name = dist::kind_name(kind);
    const char* what = name.c_str();

    core::AcceleratorConfig fresh_cfg;
    fresh_cfg.backend = core::Backend::FullSpice;
    fresh_cfg.cache_capacity = 0;
    core::Accelerator fresh(fresh_cfg);
    fresh.configure(spec);
    std::vector<core::ComputeResult> want;
    for (const auto& q : queries) {
      want.push_back(fresh.try_compute(q.p, q.q).unwrap());
    }

    core::AcceleratorConfig cached_cfg;
    cached_cfg.backend = core::Backend::FullSpice;
    core::Accelerator cached(cached_cfg);
    cached.configure(spec);
    ASSERT_NE(cached.config().array_cache, nullptr);
    auto expect_untouched = [&](const char* path) {
      const core::ArrayCache::Stats stats =
          cached.config().array_cache->stats();
      EXPECT_EQ(stats.hits, 0u) << what << " " << path;
      EXPECT_EQ(stats.misses, 0u) << what << " " << path;
      EXPECT_EQ(stats.entries, 0u) << what << " " << path;
    };

    expect_bitwise_equal(
        want[0], cached.try_compute(queries[0].p, queries[0].q).unwrap(),
        what);
    expect_untouched("scalar");

    core::BatchOptions opts;
    opts.num_threads = 1;
    opts.solver_batch_width = 8;
    core::BatchEngine engine(opts);
    const std::vector<core::ComputeOutcome> got =
        engine.try_compute_batch(cached, queries);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].ok()) << what << " " << i;
      expect_bitwise_equal(want[i], got[i].value(), what);
    }
    expect_untouched("lockstep");
  }
}

/// Outcome-level comparison: the same verdict, and on either side the same
/// bits of provenance.
void expect_same_outcome(const core::ComputeOutcome& a,
                         const core::ComputeOutcome& b, const char* what) {
  ASSERT_EQ(a.ok(), b.ok()) << what;
  if (a.ok()) {
    expect_bitwise_equal(a.value(), b.value(), what);
    return;
  }
  EXPECT_EQ(a.error().code, b.error().code) << what;
  EXPECT_EQ(a.error().message, b.error().message) << what;
  EXPECT_EQ(a.error().backend, b.error().backend) << what;
  EXPECT_EQ(a.error().newton_iterations, b.error().newton_iterations) << what;
  EXPECT_EQ(a.error().attempts, b.error().attempts) << what;
}

TEST(CacheBitIdentityFaults, CachedEqualsFreshUnderActivePlan) {
  // DTW: cell faults + DAC offsets + drift with the retry/re-tune path on,
  // through harnesses built per evaluation.  MD: a -0.13 V readback ADC
  // offset (seed 3) that trips the envelope on the stream's low-output
  // queries, so each of them re-leases the cached row array on its retry
  // attempt.  The row array is fault-plan-invariant, so caching must not
  // change a single bit of the recovery provenance either.
  fault::FaultConfig dtw_faults;
  dtw_faults.seed = 99;
  dtw_faults.cell_rate = 0.05;
  dtw_faults.dac_rate = 0.05;
  dtw_faults.drift_rate = 0.02;
  fault::FaultConfig md_faults;
  md_faults.seed = 3;
  md_faults.adc_rate = 1.0;
  md_faults.adc_offset_v = 0.13;
  const std::pair<dist::DistanceKind, fault::FaultConfig> cases[] = {
      {dist::DistanceKind::Dtw, dtw_faults},
      {dist::DistanceKind::Manhattan, md_faults}};

  for (const auto& [kind, fc] : cases) {
    const std::string name = "faulty " + dist::kind_name(kind);
    const char* what = name.c_str();
    core::DistanceSpec spec;
    spec.kind = kind;
    const Stream stream = make_stream(kind, 5, 5);
    const auto& queries = stream.queries;

    core::AcceleratorConfig fresh_cfg;
    fresh_cfg.backend = core::Backend::Wavefront;
    fresh_cfg.cache_capacity = 0;
    fresh_cfg.faults = std::make_shared<const fault::FaultPlan>(fc);
    core::Accelerator fresh(fresh_cfg);
    fresh.configure(spec);
    std::vector<core::ComputeOutcome> want;
    int retried = 0;
    for (const auto& q : queries) {
      want.push_back(fresh.try_compute(q.p, q.q));
      const int attempts = want.back().ok() ? want.back().value().attempts
                                            : want.back().error().attempts;
      if (attempts > 1) ++retried;
    }
    if (kind == dist::DistanceKind::Manhattan) {
      EXPECT_GT(retried, 0) << "the MD plan must reach the retry path";
    }

    core::AcceleratorConfig cached_cfg = fresh_cfg;
    cached_cfg.cache_capacity = 8;
    core::Accelerator cached(cached_cfg);
    cached.configure(spec);
    for (std::size_t threads : {1u, 2u, 8u}) {
      core::BatchOptions opts;
      opts.num_threads = threads;
      core::BatchEngine engine(opts);
      const auto got = engine.try_compute_batch(cached, queries);
      ASSERT_EQ(got.size(), want.size()) << what;
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same_outcome(want[i], got[i], what);
      }
    }
    if (kind == dist::DistanceKind::Manhattan) {
      EXPECT_GT(cached.config().array_cache->stats().hits, 0u) << what;
    }
  }
}

TEST(CacheBitIdentityFaults, CampaignDeterministicAcrossThreads) {
  fault::CampaignConfig cfg;
  cfg.spec.kind = dist::DistanceKind::Lcs;
  cfg.spec.threshold = 0.3;
  cfg.backend = core::Backend::Wavefront;
  cfg.queries = 8;
  cfg.length = 5;
  cfg.seed = 7;
  cfg.faults.seed = 7;
  cfg.faults.cell_rate = 0.05;
  cfg.faults.drift_rate = 0.05;

  std::vector<fault::CampaignReport> reports;
  for (std::size_t threads : {1u, 2u, 8u}) {
    cfg.threads = threads;
    reports.push_back(fault::run_campaign(cfg));
  }
  for (std::size_t r = 1; r < reports.size(); ++r) {
    ASSERT_EQ(reports[r].outcomes.size(), reports[0].outcomes.size());
    for (std::size_t i = 0; i < reports[0].outcomes.size(); ++i) {
      const auto& a = reports[0].outcomes[i];
      const auto& b = reports[r].outcomes[i];
      EXPECT_EQ(a.ok, b.ok) << i;
      EXPECT_EQ(std::memcmp(&a.value, &b.value, sizeof a.value), 0) << i;
      EXPECT_EQ(a.attempts, b.attempts) << i;
      EXPECT_EQ(a.quarantined_cells, b.quarantined_cells) << i;
    }
  }
}

TEST(ArrayCacheMechanics, EvictionAndStats) {
  auto cache = std::make_shared<core::ArrayCache>(1);
  core::InstanceKey k1{1, 1}, k2{2, 2};
  auto build = [] { return std::make_unique<core::ArrayCache::Instance>(); };
  { const auto l = core::ArrayCache::checkout(cache, k1, build); }
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().entries, 1u);
  { const auto l = core::ArrayCache::checkout(cache, k1, build); }
  EXPECT_EQ(cache->stats().hits, 1u);
  // Second key evicts the first (capacity 1)...
  { const auto l = core::ArrayCache::checkout(cache, k2, build); }
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_EQ(cache->stats().entries, 1u);
  // ...so the first misses again.
  { const auto l = core::ArrayCache::checkout(cache, k1, build); }
  EXPECT_EQ(cache->stats().misses, 3u);
}

TEST(ArrayCacheMechanics, ConcurrentCheckoutsGrowThePool) {
  auto cache = std::make_shared<core::ArrayCache>(4);
  core::InstanceKey k{5, 5};
  auto build = [] { return std::make_unique<core::ArrayCache::Instance>(); };
  {
    const auto a = core::ArrayCache::checkout(cache, k, build);
    const auto b = core::ArrayCache::checkout(cache, k, build);  // pool empty
    EXPECT_NE(a.get(), b.get());
  }
  EXPECT_EQ(cache->stats().misses, 2u);
  // Both returned: the next two checkouts are hits.
  {
    const auto a = core::ArrayCache::checkout(cache, k, build);
    const auto b = core::ArrayCache::checkout(cache, k, build);
    EXPECT_NE(a.get(), b.get());
  }
  EXPECT_EQ(cache->stats().hits, 2u);
}

TEST(ArrayCacheMechanics, NullCacheDegradesToLocalBuild) {
  auto build = [] { return std::make_unique<core::ArrayCache::Instance>(); };
  const auto lease =
      core::ArrayCache::checkout(nullptr, core::InstanceKey{}, build);
  EXPECT_NE(lease.get(), nullptr);
}

TEST(WeightKeys, QuantizationCollapsesRoundoffNoise) {
  // Exact values pass through unchanged...
  EXPECT_EQ(core::quantize_weight(1.0), 1.0);
  EXPECT_EQ(core::quantize_weight(2.5), 2.5);
  EXPECT_EQ(core::quantize_weight(0.0), 0.0);
  // ...-0 normalises to +0...
  EXPECT_EQ(core::weight_key(-0.0), core::weight_key(0.0));
  // ...trailing round-off noise (a weight re-derived from a tuned
  // memristance) lands on the same key...
  EXPECT_EQ(core::weight_key(1.0), core::weight_key(1.0 + 1e-14));
  EXPECT_EQ(core::weight_key(1.0), core::weight_key(1.0 - 1e-14));
  // ...while genuinely different weights stay distinct.
  EXPECT_NE(core::weight_key(1.0), core::weight_key(1.5));
  EXPECT_NE(core::weight_key(1.0), core::weight_key(1.0001));
  EXPECT_NE(core::weight_key(1.0), core::weight_key(-1.0));
  // Digest: order- and value-sensitive.
  EXPECT_EQ(core::weights_digest({1.0, 2.0}),
            core::weights_digest({1.0, 2.0 + 1e-15}));
  EXPECT_NE(core::weights_digest({1.0, 2.0}), core::weights_digest({2.0, 1.0}));
  EXPECT_NE(core::weights_digest({1.0}), core::weights_digest({1.0, 1.0}));
}

TEST(EncodeDegenerate, EmptySequencesThrowInvalidArgument) {
  core::AcceleratorConfig config;
  core::DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  const std::vector<double> empty, one{0.5};
  EXPECT_THROW(core::encode_inputs(config, spec, empty, one),
               std::invalid_argument);
  EXPECT_THROW(core::encode_inputs(config, spec, one, empty),
               std::invalid_argument);
  EXPECT_THROW(core::encode_inputs(config, spec, empty, empty),
               std::invalid_argument);
}

TEST(EncodeDegenerate, LengthOneAndAllZeroAreWellDefined) {
  core::AcceleratorConfig config;
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    core::DistanceSpec spec;
    spec.kind = kind;
    spec.threshold = 0.3;
    // Length-1 sequences: the DTW diagonal resample must not divide by the
    // sequence length or index past the end.
    const std::vector<double> p1{0.7}, q1{-0.3};
    const core::EncodedInputs e1 = core::encode_inputs(config, spec, p1, q1);
    ASSERT_EQ(e1.p_volts.size(), 1u);
    EXPECT_TRUE(std::isfinite(e1.p_volts[0]));
    EXPECT_TRUE(std::isfinite(e1.scale));

    // All-zero signals (maxdiff == 0): identity scale, finite zero volts.
    const std::vector<double> z(4, 0.0);
    const core::EncodedInputs ez = core::encode_inputs(config, spec, z, z);
    EXPECT_EQ(ez.scale, 1.0);
    for (double v : ez.p_volts) EXPECT_EQ(v, 0.0);
    for (double v : ez.q_volts) EXPECT_EQ(v, 0.0);
  }
}

TEST(EncodeDegenerate, AllZeroComputeSucceeds) {
  core::DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  core::Accelerator acc;
  acc.configure(spec);
  const std::vector<double> z(4, 0.0);
  const core::ComputeOutcome out = acc.try_compute(z, z);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(std::isfinite(out.value().value));
  EXPECT_NEAR(out.value().value, 0.0, 0.5);
}

}  // namespace
