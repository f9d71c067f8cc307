#include <gtest/gtest.h>

#include <cmath>

#include "core/accelerator.hpp"
#include "util/rng.hpp"

namespace {

using namespace mda;
using namespace mda::core;

TEST(Accelerator, ComputeEndToEnd) {
  Accelerator acc;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  acc.configure(spec);
  std::vector<double> p = {1.0, -2.0, 3.0};
  std::vector<double> q = {0.5, -1.0, 5.0};
  const ComputeResult r = acc.try_compute(p, q).unwrap();
  EXPECT_NEAR(r.value, 3.5, 0.12);  // includes 8-bit DAC quantisation
  EXPECT_DOUBLE_EQ(r.reference, 3.5);
  EXPECT_LT(r.relative_error, 0.04);
  EXPECT_GT(r.convergence_time_s, 0.0);
  EXPECT_EQ(r.tiles, 1u);
}

TEST(Accelerator, AllKindsAllBackendsAgreeWithReference) {
  util::Rng rng(123);
  Accelerator acc;
  for (dist::DistanceKind kind : dist::kAllKinds) {
    std::vector<double> p(6), q(6);
    for (double& v : p) v = rng.uniform(-1.5, 1.5);
    for (double& v : q) v = rng.uniform(-1.5, 1.5);
    DistanceSpec spec;
    spec.kind = kind;
    spec.threshold = 0.5;
    acc.configure(spec);
    for (Backend backend :
         {Backend::Behavioral, Backend::Wavefront, Backend::FullSpice}) {
      acc.set_backend(backend);
      const ComputeResult r = acc.try_compute(p, q).unwrap();
      EXPECT_LT(r.relative_error, 0.15)
          << dist::kind_name(kind) << " backend=" << static_cast<int>(backend);
    }
  }
}

TEST(Accelerator, ConfigureWithBackendAndSetBackend) {
  Accelerator acc;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  acc.configure(spec, Backend::Behavioral);
  EXPECT_EQ(acc.config().backend, Backend::Behavioral);
  acc.set_backend(Backend::Wavefront);
  EXPECT_EQ(acc.config().backend, Backend::Wavefront);
  // Backend set at construction time sticks through configure(spec).
  AcceleratorConfig config;
  config.backend = Backend::FullSpice;
  Accelerator preset(config);
  preset.configure(spec);
  EXPECT_EQ(preset.config().backend, Backend::FullSpice);
}

TEST(Accelerator, TryComputeReturnsValueOnSuccess) {
  Accelerator acc;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  acc.configure(spec, Backend::Behavioral);
  std::vector<double> p = {1.0, -2.0, 3.0};
  std::vector<double> q = {0.5, -1.0, 5.0};
  const ComputeOutcome outcome = acc.try_compute(p, q);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(static_cast<bool>(outcome));
  EXPECT_DOUBLE_EQ(outcome.value().reference, 3.5);
  // Matches the throwing wrapper exactly.
  EXPECT_EQ(outcome.value().value, acc.try_compute(p, q).unwrap().value);
}

TEST(Accelerator, TryComputeReportsInvalidInput) {
  Accelerator acc;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Hamming;
  acc.configure(spec);
  std::vector<double> p = {1.0, 2.0};
  std::vector<double> q = {1.0, 2.0, 3.0};
  const ComputeOutcome unequal = acc.try_compute(p, q);
  EXPECT_FALSE(unequal.ok());
  EXPECT_EQ(unequal.error().code, ComputeErrorCode::InvalidInput);
  EXPECT_FALSE(unequal.error().message.empty());
  const ComputeOutcome empty = acc.try_compute({}, {});
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().code, ComputeErrorCode::InvalidInput);
}

TEST(Accelerator, QueryRequestBackendOverride) {
  // The per-call backend override (once a compute(p, q, backend) overload)
  // now travels in QueryRequest::backend: it must behave like set_backend +
  // try_compute, without mutating the accelerator's config.
  Accelerator acc;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  acc.configure(spec, Backend::Wavefront);
  std::vector<double> p = {1.0, -2.0, 3.0};
  std::vector<double> q = {0.5, -1.0, 5.0};
  QueryRequest req{p, q};
  req.backend = Backend::Behavioral;
  const ComputeResult overridden = acc.try_compute(req).unwrap();
  EXPECT_EQ(acc.config().backend, Backend::Wavefront);
  EXPECT_EQ(overridden.backend_used, Backend::Behavioral);
  Accelerator behavioral(acc);
  behavioral.set_backend(Backend::Behavioral);
  EXPECT_EQ(overridden.value, behavioral.try_compute(p, q).unwrap().value);
}

TEST(Accelerator, QueryRequestSpecMismatchIsInvalidInput) {
  // A request that pins a kind/threshold/band must match the configured
  // spec — mismatches are typed errors, never silent reconfigurations.
  Accelerator acc;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Hamming;
  spec.threshold = 0.25;
  acc.configure(spec, Backend::Behavioral);
  std::vector<double> p = {1.0, 2.0};
  std::vector<double> q = {1.0, 2.1};

  QueryRequest matching{p, q};
  matching.kind = dist::DistanceKind::Hamming;
  matching.threshold = 0.25;
  EXPECT_TRUE(acc.try_compute(matching).ok());

  QueryRequest wrong_kind{p, q};
  wrong_kind.kind = dist::DistanceKind::Manhattan;
  const ComputeOutcome kind_outcome = acc.try_compute(wrong_kind);
  ASSERT_FALSE(kind_outcome.ok());
  EXPECT_EQ(kind_outcome.error().code, ComputeErrorCode::InvalidInput);

  QueryRequest wrong_threshold{p, q};
  wrong_threshold.kind = dist::DistanceKind::Hamming;
  wrong_threshold.threshold = 0.5;
  const ComputeOutcome th_outcome = acc.try_compute(wrong_threshold);
  ASSERT_FALSE(th_outcome.ok());
  EXPECT_EQ(th_outcome.error().code, ComputeErrorCode::InvalidInput);

  // A knobless request behaves exactly like the span overload.
  QueryRequest plain{p, q};
  EXPECT_EQ(acc.try_compute(plain).unwrap().value,
            acc.try_compute(p, q).unwrap().value);
}

TEST(Accelerator, EqualLengthEnforcedForRowKinds) {
  Accelerator acc;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Hamming;
  acc.configure(spec);
  std::vector<double> p = {1.0, 2.0};
  std::vector<double> q = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)acc.try_compute(p, q).unwrap(), std::invalid_argument);
  EXPECT_THROW((void)acc.try_compute({}, {}).unwrap(), std::invalid_argument);
}

TEST(Accelerator, TilingCounts) {
  AcceleratorConfig config;
  config.rows = 32;
  config.cols = 32;
  Accelerator acc(config);
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  acc.configure(spec);
  EXPECT_EQ(acc.tiles_required(32, 32), 1u);
  EXPECT_EQ(acc.tiles_required(33, 32), 2u);
  EXPECT_EQ(acc.tiles_required(64, 64), 4u);
  spec.kind = dist::DistanceKind::Manhattan;
  acc.configure(spec);
  EXPECT_EQ(acc.tiles_required(64, 64), 2u);
  EXPECT_EQ(acc.tiles_required(32, 32), 1u);
}

TEST(Accelerator, LatencyGrowsWithTiling) {
  AcceleratorConfig config;
  config.rows = 16;
  config.cols = 16;
  Accelerator acc(config);
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  acc.configure(spec);
  EXPECT_GT(acc.latency_s(32, 32), 3.0 * acc.latency_s(16, 16));
}

TEST(Accelerator, ConvergenceTimeShapesMatchFig5) {
  // DTW/EdD linear in n; LCS shallower; HauD flat; HamD/MD near-flat.
  const TimingModel& tm = TimingModel::defaults();
  const double dtw10 = tm.convergence_time_s(dist::DistanceKind::Dtw, 10);
  const double dtw40 = tm.convergence_time_s(dist::DistanceKind::Dtw, 40);
  EXPECT_GT(dtw40, 2.5 * dtw10);
  const double edd40 = tm.convergence_time_s(dist::DistanceKind::Edit, 40);
  EXPECT_GT(edd40, dtw40);  // EdD is the slowest matrix function
  const double haud10 =
      tm.convergence_time_s(dist::DistanceKind::Hausdorff, 10);
  const double haud40 =
      tm.convergence_time_s(dist::DistanceKind::Hausdorff, 40);
  EXPECT_LT(haud40, 1.3 * haud10);  // plateau
  const double lcs40 = tm.convergence_time_s(dist::DistanceKind::Lcs, 40);
  EXPECT_LT(lcs40, dtw40);  // "runtime of LCS ... shorter than others"
}

TEST(Accelerator, PowerBreakdownPlausible) {
  Accelerator acc;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  acc.configure(spec);
  const power::PowerBreakdown dtw = acc.power(128);
  // Sec. 4.3 reports 0.58 W for the banded DTW configuration at n = 128;
  // with our (slightly different) PE inventory the total must land in the
  // same regime: a fraction of a watt to a few watts.
  EXPECT_GT(dtw.total_w(), 0.1);
  EXPECT_LT(dtw.total_w(), 3.0);
  EXPECT_GT(dtw.opamps_w, 0.0);
  EXPECT_GT(dtw.memristors_w, 0.0);
  EXPECT_GE(dtw.num_dacs, 1);
  EXPECT_GE(dtw.num_adcs, 1);

  spec.kind = dist::DistanceKind::Edit;
  acc.configure(spec);
  const power::PowerBreakdown edd = acc.power(128);
  // EdD is the most power hungry (6.36 W in the paper).
  EXPECT_GT(edd.total_w(), dtw.total_w());

  spec.kind = dist::DistanceKind::Manhattan;
  acc.configure(spec);
  const power::PowerBreakdown md = acc.power(128);
  // The MD PE (abs module only) is the lightest; even with the fabric's
  // 128 concurrent rows it stays well under the EdD configuration.
  EXPECT_LT(md.opamps_w, 0.5 * edd.opamps_w);
}

TEST(Accelerator, ActiveEntryReflectsConfiguration) {
  Accelerator acc;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Lcs;
  acc.configure(spec);
  EXPECT_EQ(acc.active_entry().kind, dist::DistanceKind::Lcs);
  EXPECT_TRUE(acc.active_entry().matrix_structure);
}

TEST(Accelerator, ReplaceTimingModel) {
  Accelerator acc;
  TimingModel tm = TimingModel::defaults();
  tm.set_entry(dist::DistanceKind::Manhattan, {1e-6, 0.0});
  acc.replace_timing_model(tm);
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  acc.configure(spec, Backend::Behavioral);
  std::vector<double> p = {1.0, 2.0}, q = {0.0, 0.0};
  const ComputeResult r = acc.try_compute(p, q).unwrap();
  EXPECT_NEAR(r.convergence_time_s, 1e-6, 1e-9);
}

TEST(Accelerator, CalibratedTimingMatchesShippedDefaults) {
  // Re-derive the timing model live (full-SPICE) and check the shipped
  // constants are still representative (within a factor ~2 at length 40,
  // which is all the Fig. 5/6 conclusions need).
  const TimingModel live = TimingModel::calibrate(AcceleratorConfig{}, 11);
  const TimingModel& shipped = TimingModel::defaults();
  for (dist::DistanceKind kind : dist::kAllKinds) {
    const double a = live.convergence_time_s(kind, 40);
    const double b = shipped.convergence_time_s(kind, 40);
    EXPECT_LT(std::abs(std::log(a / b)), std::log(2.2))
        << dist::kind_name(kind) << " live=" << a << " shipped=" << b;
  }
}

TEST(Accelerator, DtwBandReducesReportedPower) {
  Accelerator acc;
  DistanceSpec banded;
  banded.kind = dist::DistanceKind::Dtw;
  banded.band = 6;  // ~5% of 128
  acc.configure(banded);
  const double with_band = acc.power(128).opamps_w;
  DistanceSpec full;
  full.kind = dist::DistanceKind::Dtw;
  full.band = 128;
  acc.configure(full);
  const double without_band = acc.power(128).opamps_w;
  EXPECT_LT(with_band, 0.2 * without_band);
}

}  // namespace
