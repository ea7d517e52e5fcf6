// Fused multi-model MSV/SSV: several short models packed into one shared
// striped table, scored together by a single N-lane sweep.
//
// Lane-partitioned Farrar layout: model m owns the contiguous lane span
// [lane_lo, lane_lo + lanes) of the N-lane vector; its position k
// (1-based) lives in stripe (k-1) % Q, lane lane_lo + (k-1) / Q, with Q
// shared by the whole group (the auto-tuner in hmm/model_group.hpp picks
// members and Q).  Each span is sized M/Q + 1 so its last lane always
// ends in at least one padding cell; padding carries emission cost 255,
// which forces the cell to zero every row, so the lane shift at stripe 0
// hands the next span exactly the zero a single-model run injects at its
// first lane.  Scores are therefore bit-identical to running MsvFilter
// once per member (docs/multi_model.md has the full argument).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bio/packed_seq.hpp"
#include "cpu/filter_result.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "profile/msv_profile.hpp"
#include "util/aligned.hpp"

namespace finehmm::cpu {

/// The shared striped emission table for one model group, built once and
/// shared read-only between workers (like a single model's MsvStripes).
/// Member profiles must outlive the group.
class FusedMsvGroup {
 public:
  /// Pack `members` into one `lane_width`-lane table with stripe count Q.
  /// Requires sum over members of (length/Q + 1) <= lane_width — the
  /// shapes hmm::plan_model_groups emits satisfy this by construction.
  FusedMsvGroup(std::vector<const profile::MsvProfile*> members,
                int lane_width, int Q);

  std::size_t size() const { return members_.size(); }
  const profile::MsvProfile& member(std::size_t m) const {
    return *members_[m];
  }
  int lanes() const { return lanes_; }
  int segments() const { return Q_; }
  int lanes_used() const { return lanes_used_; }
  const simd_kernels::MsvGroupView& view() const { return view_; }

 private:
  std::vector<const profile::MsvProfile*> members_;
  int lanes_ = 0;
  int Q_ = 0;
  int lanes_used_ = 0;
  aligned_vector<std::uint8_t> rows_;  // residue x at rows + x*Q*lanes
  aligned_vector<std::uint8_t> bias_;  // per-lane bias bytes
  std::vector<simd_kernels::MsvGroupModel> models_;
  simd_kernels::MsvGroupView view_;
};

/// Per-worker scratch that scores every member of a FusedMsvGroup against
/// one sequence in a single sweep.  results[m] corresponds to
/// group.member(m) and is bit-identical to MsvFilter(member).score (MSV)
/// or the SSV path at every tier; a zero-length sequence yields the
/// default no-hit result for every member, matching BatchScanner.
class FusedMsvFilter {
 public:
  explicit FusedMsvFilter(const FusedMsvGroup& group,
                          SimdTier tier = active_simd_tier());

  void msv(const std::uint8_t* seq, std::size_t L, FilterResult* results);
  void msv(bio::PackedResidues seq, std::size_t L, FilterResult* results);
  void ssv(const std::uint8_t* seq, std::size_t L, FilterResult* results);
  void ssv(bio::PackedResidues seq, std::size_t L, FilterResult* results);

  const FusedMsvGroup& group() const { return group_; }
  SimdTier tier() const noexcept { return ops_->tier; }

 private:
  /// Fill the per-model tjb_for(L) bytes and point the state at this
  /// object's scratch (recomputed per call so copies stay valid).
  simd_kernels::MsvGroupState begin(std::size_t L);
  /// Convert the kernels' xJ/overflow bytes into FilterResults.
  void finish(std::size_t L, FilterResult* results) const;

  const FusedMsvGroup& group_;
  const backend::TierKernels* ops_;
  aligned_vector<std::uint8_t> row_;    // Q * lanes DP row
  aligned_vector<std::uint8_t> lanes_;  // xb | trigger | xe, lanes each
  std::vector<std::uint8_t> xj_, tjb_, overflowed_;  // per model
};

}  // namespace finehmm::cpu
