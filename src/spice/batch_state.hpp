#pragma once
// Structure-of-arrays lane storage and SIMD dispatch for the batched
// same-structure solver (DESIGN.md §12).
//
// A batch of B independent queries of one circuit configuration shares a
// single MNA pattern and LU structure; only values differ per lane.
// Lane-major SoA buffers put the B values of one logical element
// contiguously, so the inner LU loops process all lanes of an element with
// one vector op while the index streams (row indices, column pointers,
// elimination tape) are read once per element instead of once per lane.
//
// Kernel selection is a runtime decision from the CPU alone: one kernel
// body per operation, written over W-lane vectors and run at W = 8 on
// AVX-512 hardware (whole 512-bit strides) or W = 4 on AVX2.  Both widths
// execute the exact per-lane arithmetic sequence of the serial solver (no
// FMA contraction, zero-skips and max scans replicated with masked blends),
// so the width never changes a single result bit.  Without AVX2 there is no
// lockstep LU: BatchNewtonSolver sends every lane to the scalar solver.

#include <cstddef>
#include <vector>

namespace mda::spice::batch {

/// Doubles per AVX2 vector; lane strides are padded to a multiple of this.
inline constexpr std::size_t kSimdLanes = 4;

/// Lane count rounded up to the vector width (SoA stride).
[[nodiscard]] constexpr std::size_t padded_lanes(std::size_t lanes) {
  return (lanes + kSimdLanes - 1) / kSimdLanes * kSimdLanes;
}

/// True when this CPU can run the 4-lane (AVX2) kernel.
[[nodiscard]] bool avx2_available();

/// True when this CPU can additionally run the 8-lane (AVX-512) kernel.  A
/// 512-bit op covers 8 lanes with the instruction count of a 4-lane 256-bit
/// op, and the sparse kernel is bound by per-element bookkeeping rather
/// than arithmetic throughput — so 8-lane batches nearly halve the per-lane
/// cost.
[[nodiscard]] bool avx512_available();

/// Disable lockstep LU in-process (off by default): BatchNewtonSolver then
/// routes every lane through the scalar solver, as on a CPU without AVX2.
/// Lets tests pin batch(W) = scalar with and without the vector kernel.
void set_force_scalar(bool on);
[[nodiscard]] bool force_scalar();

/// Lockstep LU is on: AVX2 available and not forced off.
[[nodiscard]] bool use_avx2();

/// AVX-512 available and lockstep LU not forced off.
[[nodiscard]] bool use_avx512();

/// Lane-major SoA buffer: `rows` logical elements by `lanes` lanes, stored
/// with a padded stride so every row starts vector-aligned work-wise
/// (padding lanes are zero-filled and their results ignored).
class SoaBuffer {
 public:
  void resize(std::size_t rows, std::size_t lanes) {
    lanes_ = lanes;
    stride_ = padded_lanes(lanes);
    data_.assign(rows * stride_, 0.0);
  }
  void zero() { std::fill(data_.begin(), data_.end(), 0.0); }

  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  [[nodiscard]] double* row(std::size_t i) { return data_.data() + i * stride_; }
  [[nodiscard]] const double* row(std::size_t i) const {
    return data_.data() + i * stride_;
  }
  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

 private:
  std::size_t lanes_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> data_;
};

}  // namespace mda::spice::batch
