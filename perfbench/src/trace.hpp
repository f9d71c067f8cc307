#pragma once
// Span tracing for the benchmark's traced run.  Spans are recorded from the
// benchmark's own code around each call into a layer of the program; the
// layer is the span name's prefix before the first '.'.  Spans are kept in
// memory and written out at the end as Chrome trace-event JSON (Perfetto /
// chrome://tracing open it) plus a per-layer self-time table.  A disabled
// tracer records nothing, so timed runs carry no spans.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  ///< String literal: "<layer>.<what>".
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root.
  std::uint64_t request = 0;  ///< Request / unit id shared by its spans.
  std::uint32_t tid = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

struct LayerTime {
  std::size_t spans = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span; the innermost open span on the same thread is its parent.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t request = 0)
        : tracer_(t.enabled_ ? &t : nullptr) {
      if (!tracer_) return;
      rec_.name = name;
      rec_.request = request;
      rec_.parent = current();
      rec_.id = tracer_->next_id();
      rec_.tid = thread_index();
      current() = rec_.id;
      rec_.start_s = now_s();
    }
    ~Scope() {
      if (!tracer_) return;
      rec_.end_s = now_s();
      current() = rec_.parent;
      tracer_->push(rec_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    SpanRecord rec_{};
  };

  [[nodiscard]] std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return spans_;
  }

  /// Self time per layer: a span's duration minus the part of it covered by
  /// its child spans (children of one span do not overlap: they run on the
  /// parent's thread).
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const {
    const std::vector<SpanRecord> all = spans();
    std::unordered_map<std::uint64_t, double> child_s;
    for (const SpanRecord& s : all) {
      if (s.parent != 0) child_s[s.parent] += s.end_s - s.start_s;
    }
    std::map<std::string, LayerTime> out;
    for (const SpanRecord& s : all) {
      LayerTime& l = out[layer_of(s.name)];
      const double dur = s.end_s - s.start_s;
      ++l.spans;
      l.total_s += dur;
      const auto it = child_s.find(s.id);
      l.self_s += dur - (it == child_s.end() ? 0.0 : it->second);
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::vector<SpanRecord> all = spans();
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      return a.start_s < b.start_s;
    });
    const double t0 = all.empty() ? 0.0 : all.front().start_s;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[512];
    for (std::size_t i = 0; i < all.size(); ++i) {
      const SpanRecord& s = all[i];
      const double ts = (s.start_s - t0) * 1e6;
      const double end = (s.end_s - t0) * 1e6;
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                    "\"start_us\":%.3f,\"end_us\":%.3f}}",
                    i == 0 ? "" : ",", s.name, layer_of(s.name).c_str(), s.tid,
                    ts, end - ts, static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.request), ts, end);
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

  static std::string layer_of(const char* name) {
    const std::string n(name);
    return n.substr(0, n.find('.'));
  }

 private:
  static std::uint64_t& current() {
    thread_local std::uint64_t id = 0;
    return id;
  }
  static std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t idx = next.fetch_add(1);
    return idx;
  }
  std::uint64_t next_id() {
    std::lock_guard<std::mutex> lk(mutex_);
    return ++last_id_;
  }
  void push(const SpanRecord& rec) {
    std::lock_guard<std::mutex> lk(mutex_);
    spans_.push_back(rec);
  }

  const bool enabled_;
  mutable std::mutex mutex_;
  std::uint64_t last_id_ = 0;
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench
