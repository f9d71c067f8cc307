#pragma once
// Background scrub/re-tune scheduler (DESIGN.md §14).
//
// The repair half of the self-healing loop: HealthScoreboards accumulate
// detector evidence per array (fault/health.hpp); the ScrubScheduler
// periodically scans registered targets and, when a target's expected-error
// score crosses its unhealthy threshold AND the target reports an idle
// window, runs the target's scrub action — for a serve replica that means
// drain the queue, bump the accelerator's program-and-verify attempt and
// re-probe.  The scheduler itself is policy-free
// glue over std::function hooks, so campaigns, tests and the server all
// reuse it without the scheduler knowing about shards.
//
// Determinism: tests and the chaos harness call force_scan() instead of
// (or as well as) running the background thread — one synchronous,
// in-registration-order pass with the exact same decision logic, so scrub
// decisions can be driven at deterministic points.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mda::core {

/// One scrubbable array (a serve shard replica, a campaign accelerator...).
struct ScrubTarget {
  std::string name;
  /// Current array-level expected-error score (HealthScoreboard feed).
  std::function<double()> score;
  /// True when the target can be scrubbed right now (idle window).  A busy
  /// target is skipped this scan and re-examined on the next one.
  std::function<bool()> idle;
  /// Perform the scrub (drain, re-tune, re-probe).  Returns
  /// false when the scrub could not run; the scan counts it as a failure.
  std::function<bool()> scrub;
  /// Optional cheap periodic health probe, run once per scan before the
  /// score is examined (so an idle array still accumulates evidence).
  std::function<void()> probe;

  // Hysteresis band (defaults mirror fault::HealthConfig).
  double unhealthy_threshold = 0.08;  ///< Scrub when score rises above.
  double healthy_threshold = 0.02;    ///< Healed when score falls below.
};

struct ScrubOptions {
  double scan_interval_s = 0.05;  ///< Background scan period.
};

struct ScrubStats {
  std::uint64_t scans = 0;         ///< Scan passes (background + forced).
  std::uint64_t scrubs = 0;        ///< Scrub actions started.
  std::uint64_t heals = 0;         ///< Scrubs whose post-score was healthy.
  std::uint64_t skipped_busy = 0;  ///< Unhealthy but no idle window.
  std::uint64_t failures = 0;      ///< Scrub actions that returned false.
};

class ScrubScheduler {
 public:
  explicit ScrubScheduler(ScrubOptions opts = {}) : opts_(opts) {}
  ~ScrubScheduler() { stop(); }
  ScrubScheduler(const ScrubScheduler&) = delete;
  ScrubScheduler& operator=(const ScrubScheduler&) = delete;

  /// Register a target; returns its index.  Safe while running.
  std::size_t add_target(ScrubTarget target);
  void clear_targets();

  /// Start/stop the background scan thread.  Idempotent; stop() joins.
  void start();
  void stop();
  [[nodiscard]] bool running() const;

  /// One synchronous scan pass over all targets, in registration order.
  /// Returns the number of scrub actions performed.  Serialised against the
  /// background thread, so a forced scan never races a background one.
  std::size_t force_scan();

  [[nodiscard]] ScrubStats stats() const;

 private:
  void loop();
  std::size_t scan_once();

  ScrubOptions opts_;
  mutable std::mutex mu_;  ///< Guards targets_ and stats_.
  std::vector<ScrubTarget> targets_;
  ScrubStats stats_{};
  std::mutex scan_mu_;  ///< Serialises whole scan passes.

  mutable std::mutex thread_mu_;  ///< Guards thread lifecycle + stopping_.
  std::condition_variable cv_;
  std::thread thread_;
  bool stopping_ = false;
};

}  // namespace mda::core
