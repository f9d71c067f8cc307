#include "spice/batch_state.hpp"

#include <atomic>

namespace mda::spice::batch {

namespace {

bool detect_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool detect_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

std::atomic<bool> force_scalar_flag{false};

}  // namespace

bool avx2_available() {
  static const bool available = detect_avx2();
  return available;
}

bool avx512_available() {
  static const bool available = detect_avx512();
  return available;
}

void set_force_scalar(bool on) {
  force_scalar_flag.store(on, std::memory_order_relaxed);
}

bool force_scalar() {
  return force_scalar_flag.load(std::memory_order_relaxed);
}

bool use_avx2() { return avx2_available() && !force_scalar(); }

bool use_avx512() { return avx512_available() && !force_scalar(); }

}  // namespace mda::spice::batch
