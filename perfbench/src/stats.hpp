#pragma once
// Statistics and load-schedule helpers of the repository benchmark.
//
//  * percentile rule — a timing is reported at the highest percentile of
//    {50, 90, 95, 99, 99.9} that has at least ten samples beyond it, so p99
//    is withheld below 1000 samples and even the median below 20;
//  * quartiles — the same "exclusive" method as Python's
//    statistics.quantiles(values, n=4), so the harness, compare.py and any
//    external consumer agree on the numbers;
//  * seeded open-loop schedules — Poisson arrival times and Zipf ranks,
//    reproducible from the workload seed alone;
//  * the backlog-growth detector and the rate fit behind max_qps.
//
// Header-only so perfbench/tests can pin every rule without the harness.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// Samples needed beyond a reported percentile.
inline constexpr double kTailSamples = 10.0;
inline constexpr double kPercentileLadder[] = {50.0, 90.0, 95.0, 99.0, 99.9};

/// Highest ladder percentile with at least kTailSamples samples beyond it
/// among n samples; nullopt when even the median is not supported.
inline std::optional<double> supported_percentile(std::size_t n) {
  std::optional<double> best;
  for (const double p : kPercentileLadder) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= kTailSamples - 1e-9) {
      best = p;
    }
  }
  return best;
}

/// Nearest-rank percentile of `values` (need not be sorted).
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

/// Percentile `p` when the sample supports it (kTailSamples beyond it).
inline std::optional<double> reported_percentile(const std::vector<double>& v,
                                                 double p) {
  const auto best = supported_percentile(v.size());
  if (!best || *best < p) return std::nullopt;
  return percentile(v, p);
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// statistics.quantiles(values, n=4) with the default "exclusive" method;
/// a single sample is its own quartiles.
inline Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan, nan};
  }
  std::sort(values.begin(), values.end());
  const std::size_t ld = values.size();
  if (ld == 1) return {values[0], values[0], values[0]};
  const std::size_t m = ld + 1;
  double cut[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

inline double median(const std::vector<double>& values) {
  return quartiles(values).median;
}

/// Poisson arrival times in [0, duration_s) at `rate_per_s`.
inline std::vector<double> poisson_arrivals(mda::util::Rng& rng,
                                            double rate_per_s,
                                            double duration_s) {
  std::vector<double> t;
  if (rate_per_s <= 0.0) return t;
  t.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.2) + 8);
  for (double at = rng.exponential(rate_per_s); at < duration_s;
       at += rng.exponential(rate_per_s)) {
    t.push_back(at);
  }
  return t;
}

/// Inverse-CDF Zipf sampler over ranks [0, n): P(k) ∝ 1 / (k+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& v : cdf_) v /= total;
  }
  [[nodiscard]] std::size_t sample(mda::util::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Requests outstanding (due but unanswered) at time t; an unanswered
/// request has done = +inf.
inline std::size_t backlog_at(const std::vector<double>& due,
                              const std::vector<double>& done, double t) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (due[i] <= t && done[i] > t) ++n;
  }
  return n;
}

/// True when the backlog grows over a probe of length duration_s: the mean
/// backlog over the last third of the probe exceeds that over the first
/// third by more than max(min_growth, rel_growth * first-third mean).
/// Sampled at `points` instants per third.  A stable open loop keeps a
/// stationary backlog (window-sized wobble only); an overloaded one grows
/// it linearly with time.
inline bool backlog_growing(const std::vector<double>& due,
                            const std::vector<double>& done, double duration_s,
                            double min_growth = 64.0, double rel_growth = 1.0,
                            int points = 16) {
  auto third_mean = [&](double from, double to) {
    double sum = 0.0;
    for (int k = 0; k < points; ++k) {
      const double t = from + (to - from) * (k + 0.5) / points;
      sum += static_cast<double>(backlog_at(due, done, t));
    }
    return sum / points;
  };
  const double early = third_mean(0.0, duration_s / 3.0);
  const double late = third_mean(2.0 * duration_s / 3.0, duration_s);
  return late - early > std::max(min_growth, rel_growth * early);
}

/// One open-loop phase for the max_qps fit.
struct RatePoint {
  double rate = 0.0;
  double tail_ms = 0.0;  ///< Tail latency, failures counting as +inf.
  bool backlog_growing = false;
};

/// Highest offered rate whose tail latency meets `limit_ms`: the crossing
/// of a least-squares line through log(tail) against log(rate) over every
/// phase with a finite tail and a steady backlog.  Fitting all phases
/// averages the run-to-run wobble of any single tail.  The answer is capped
/// at the lowest rate that overloaded (infinite tail or growing backlog)
/// and at twice the highest fitted rate; with fewer than two usable phases
/// it is the highest rate that met the limit (0 when none did).
inline double max_sustainable_rate(const std::vector<RatePoint>& pts,
                                   double limit_ms) {
  double cap = std::numeric_limits<double>::infinity();
  double best_pass = 0.0, top = 0.0;
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  std::size_t n = 0;
  for (const RatePoint& p : pts) {
    if (p.backlog_growing || !std::isfinite(p.tail_ms) || p.tail_ms <= 0.0) {
      cap = std::min(cap, p.rate);
      continue;
    }
    if (p.tail_ms <= limit_ms) best_pass = std::max(best_pass, p.rate);
    top = std::max(top, p.rate);
    const double x = std::log(p.rate), y = std::log(p.tail_ms);
    sx += x, sy += y, sxx += x * x, sxy += x * y, ++n;
  }
  const double den = static_cast<double>(n) * sxx - sx * sx;
  if (n < 2 || den <= 0.0) return std::min(best_pass, cap);
  const double b = (static_cast<double>(n) * sxy - sx * sy) / den;
  if (b <= 1e-9) return std::min(best_pass, cap);  // tail not rising with load
  const double a = (sy - b * sx) / static_cast<double>(n);
  const double cross = std::exp((std::log(limit_ms) - a) / b);
  return std::min({cross, cap, 2.0 * top});
}

}  // namespace perfbench
