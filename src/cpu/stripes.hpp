// The Farrar stripe layout and the per-tier parameter stripes every
// striped kernel reads.
//
// Profiles keep their parameters per model position; a tier's kernels
// read them striped for its lane count.  With N lanes and Q stripes,
// model position k (1-based) lives in stripe (k-1)%Q, lane (k-1)/Q, so a
// stripe's vector holds positions Q apart and the row's diagonal
// dependency becomes one lane shift at stripe 0.  `Striping` is the one
// owner of that formula: the three builders below (one per parameter
// family, built at runtime for any lane count), cpu::TraceStripes, the
// trace backpointers and cpu::FusedMsvGroup all place positions through
// it.  Slots past position M hold the family's neutral value: cost 255
// for MSV bytes, -inf (-32768) for Viterbi words, 0 for Forward
// probabilities.
//
// A stripe object is immutable once built, so filters share it between
// workers through std::shared_ptr<const ...>; BatchScanner builds each
// family once per (model, tier).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/filter_result.hpp"
#include "cpu/simd_backend/kernels.hpp"
#include "cpu/simd_vec.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"

namespace finehmm::cpu {

/// Q stripes of N lanes: where each model position sits in a Q*N array.
struct Striping {
  int Q = 0;  // stripes
  int N = 0;  // lanes per stripe

  /// The striping of an M-position model at N lanes: Q = ceil(M/N).
  static constexpr Striping of(int M, int N) { return {(M + N - 1) / N, N}; }

  int stripe(int k) const noexcept { return (k - 1) % Q; }
  int lane(int k) const noexcept { return (k - 1) / Q; }
  /// Index of position k in a Q*N array: stripe(k)*N + lane(k).
  std::size_t slot(int k) const noexcept {
    return static_cast<std::size_t>(stripe(k)) * N + lane(k);
  }
  std::size_t size() const noexcept { return static_cast<std::size_t>(Q) * N; }
};

/// MSV/SSV emission costs striped for one byte lane count: residue x's
/// Q*N bytes at row(x).
class MsvStripes {
 public:
  MsvStripes(const profile::MsvProfile& prof, int lanes);

  int lanes() const noexcept { return s_.N; }
  int segments() const noexcept { return s_.Q; }
  const std::uint8_t* row(int x) const {
    return rows_.data() + static_cast<std::size_t>(x) * s_.size();
  }

 private:
  Striping s_;
  aligned_vector<std::uint8_t> rows_;
};

/// The eight ViterbiFilter parameter arrays striped for one word lane
/// count.
class VitStripes {
 public:
  VitStripes(const profile::VitProfile& prof, int lanes);

  int lanes() const noexcept { return s_.N; }
  int segments() const noexcept { return s_.Q; }
  /// The raw-pointer view the shared Viterbi kernel consumes.
  simd_kernels::VitStripesView view() const;

 private:
  Striping s_;
  aligned_vector<std::int16_t> msc_, tmm_, tim_, tdm_, tmi_, tii_, tmd_,
      tdd_;
};

/// The Forward/Backward parameters striped for one float lane count:
/// the in-indexed stripes Forward reads and the out-indexed stripes
/// Backward reads (slot(k) holds the k -> k+1 probability, zero at
/// k = M), so one object serves scoring and checkpointed decoding.
class FwdStripes {
 public:
  FwdStripes(const profile::FwdProfile& prof, int lanes);

  int lanes() const noexcept { return s_.N; }
  int segments() const noexcept { return s_.Q; }
  std::size_t row_floats() const noexcept { return s_.size(); }
  /// The raw-pointer view the shared Forward/Backward kernels consume.
  simd_kernels::FwdStripesView view() const;

 private:
  Striping s_;
  float entry_ = 0.0f;
  aligned_vector<float> odds_;
  aligned_vector<float> tmm_, tim_, tdm_, tmi_, tii_, tmd_, tdd_;
  aligned_vector<float> tmm_out_, tim_out_, tdm_out_, tmd_out_, tdd_out_;
};

/// N-lane striped MSV; scores are byte-exact with cpu::msv_scalar.  This
/// is the portable specification at width N: the shared
/// simd_kernels::msv_kernel over U8xN<N>.  The native tiers are reached
/// through MsvFilter / backend::tier_kernels.  Scratch is thread-local and
/// grown monotonically, so repeated scans allocate nothing per call.
template <int N>
FilterResult msv_striped_wide(const profile::MsvProfile& prof,
                              const MsvStripes& stripes,
                              const std::uint8_t* seq, std::size_t L) {
  FH_REQUIRE(stripes.lanes() == N, "MSV stripes built for another width");
  const int Q = stripes.segments();
  thread_local std::vector<std::uint8_t> row;
  if (row.size() < static_cast<std::size_t>(Q) * N)
    row.resize(static_cast<std::size_t>(Q) * N);
  return simd_kernels::msv_kernel<U8xN<N>>(prof, stripes.row(0), Q, seq, L,
                                           row.data());
}

/// N-lane ViterbiFilter with Lazy-F; bit-exact with cpu::vit_scalar.  The
/// portable specification at width N (simd_kernels::vit_kernel over
/// I16xN<N>); scratch as for msv_striped_wide.
template <int N>
FilterResult vit_striped_wide(const profile::VitProfile& prof,
                              const VitStripes& st, const std::uint8_t* seq,
                              std::size_t L) {
  FH_REQUIRE(st.lanes() == N, "Viterbi stripes built for another width");
  const std::size_t n = static_cast<std::size_t>(st.segments()) * N;
  thread_local std::vector<std::int16_t> mmx, imx, dmx;
  if (mmx.size() < n) {
    mmx.resize(n);
    imx.resize(n);
    dmx.resize(n);
  }
  return simd_kernels::vit_kernel<I16xN<N>>(prof, st.view(), seq, L,
                                            mmx.data(), imx.data(),
                                            dmx.data());
}

}  // namespace finehmm::cpu
