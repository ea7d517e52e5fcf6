// Striped SIMD MSV filter — the CPU baseline the paper compares against.
//
// Farrar striping over byte lanes: model position k (1-based) lives in
// stripe q=(k-1)%Q, lane j=(k-1)/Q.  The previous row's diagonal
// dependency is realized by shifting the last stripe's lanes up by one at
// the start of each row.  This mirrors HMMER 3.0's SSE p7_MSVFilter and
// returns xJ bytes bit-identical to msv_scalar.
//
// The filter resolves the widest native SIMD tier the host supports
// (portable / SSE2 / AVX2 / AVX-512; see cpu/simd_backend/simd_tier.hpp)
// through the backend's per-tier kernel table.  Tiers wider than the
// profile's native 16-lane layout re-stripe the emission table once per
// (model, lane count); workers scanning the same model share that table
// through SharedMsvRows.  Scores are bit-identical at every tier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "bio/packed_seq.hpp"
#include "cpu/filter_result.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "profile/msv_profile.hpp"
#include "util/aligned.hpp"

namespace finehmm::cpu {

/// A tier's striped emission table, type-erased so one handle covers the
/// profile's own 16-lane arrays (owner empty, zero-copy) and the shared
/// wide re-stripings (owner keeps a WideMsvStripes<N> alive).
struct SharedMsvRows {
  std::shared_ptr<const void> owner;
  const std::uint8_t* rows = nullptr;  // residue x at rows + x*Q*lanes
  int Q = 0;
  int lanes = 0;
};

/// Build (or alias) the emission table for one byte lane count: 16 reads
/// the MsvProfile's own striping zero-copy; 32/64 re-stripe once.
SharedMsvRows make_shared_msv_rows(const profile::MsvProfile& prof,
                                   int lanes);

/// Reusable row storage so database scans don't reallocate per sequence.
class MsvFilter {
 public:
  explicit MsvFilter(const profile::MsvProfile& prof,
                     SimdTier tier = active_simd_tier());
  /// Share a prebuilt emission table between workers; its lane count must
  /// match the resolved tier's.
  MsvFilter(const profile::MsvProfile& prof, SimdTier tier,
            SharedMsvRows wide);

  FilterResult score(const std::uint8_t* seq, std::size_t L);
  /// Zero-copy overload: scores a packed 5-bit residue view in place
  /// (bit-identical to the byte-code overload at every tier).
  FilterResult score(bio::PackedResidues seq, std::size_t L);
  /// SSV (no J state) over the same emission table and tier.
  FilterResult ssv(const std::uint8_t* seq, std::size_t L);

  /// The tier score() actually runs (the requested tier clamped to what
  /// the host supports).
  SimdTier tier() const noexcept { return ops_->tier; }
  /// The emission table score() reads (shareable with other workers).
  const SharedMsvRows& wide_stripes() const { return wide_; }

 private:
  const profile::MsvProfile& prof_;
  const backend::TierKernels* ops_;
  SharedMsvRows wide_;
  // Q stripes x lane-count bytes of the current DP row.
  aligned_vector<std::uint8_t> row_;
};

/// Bit score of a byte-filter (MSV or SSV) result on a length-L target.
/// An overflowed score becomes the overflow ceiling, a conservative lower
/// bound that keeps P-values and calibration fits finite.
float byte_bits(const profile::MsvProfile& msv, FilterResult r, int L);

}  // namespace finehmm::cpu
