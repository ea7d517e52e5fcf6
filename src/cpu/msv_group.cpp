#include "cpu/msv_group.hpp"

#include "bio/alphabet.hpp"
#include "cpu/stripes.hpp"
#include "util/error.hpp"

namespace finehmm::cpu {

FusedMsvGroup::FusedMsvGroup(
    std::vector<const profile::MsvProfile*> members, int lane_width, int Q)
    : members_(std::move(members)), lanes_(lane_width), Q_(Q) {
  FH_REQUIRE(!members_.empty(), "fused group needs at least one model");
  FH_REQUIRE(Q_ >= 1, "fused group needs at least one stripe");
  FH_REQUIRE(lanes_ == 16 || lanes_ == 32 || lanes_ == 64,
             "fused group needs a byte lane width of 16, 32, or 64");

  models_.resize(members_.size());
  int lane = 0;
  for (std::size_t m = 0; m < members_.size(); ++m) {
    const profile::MsvProfile& prof = *members_[m];
    FH_REQUIRE(prof.length() >= 1, "cannot fuse an empty model");
    simd_kernels::MsvGroupModel& md = models_[m];
    md.lane_lo = static_cast<std::uint8_t>(lane);
    md.lanes = static_cast<std::uint8_t>(prof.length() / Q_ + 1);
    md.bias = prof.bias();
    md.tbm = prof.tbm();
    md.tec = prof.tec();
    md.base = prof.base();
    md.sat = static_cast<std::uint8_t>(255 - prof.bias());
    lane += md.lanes;
  }
  lanes_used_ = lane;
  FH_REQUIRE(lanes_used_ <= lanes_,
             "fused group overflows its lane budget");

  // Cost 255 everywhere a model cell isn't: those cells are forced to
  // zero every row, which is what keeps neighbouring spans independent.
  // A member's position k sits at its single-model slot shifted by the
  // span's first lane.
  const Striping s{Q_, lanes_};
  rows_.assign(static_cast<std::size_t>(bio::kKp) * s.size(), 255);
  bias_.assign(static_cast<std::size_t>(lanes_), 0);
  for (std::size_t m = 0; m < members_.size(); ++m) {
    const profile::MsvProfile& prof = *members_[m];
    const simd_kernels::MsvGroupModel& md = models_[m];
    for (int j = 0; j < md.lanes; ++j) bias_[md.lane_lo + j] = md.bias;
    for (int x = 0; x < bio::kKp; ++x) {
      std::uint8_t* row = rows_.data() + static_cast<std::size_t>(x) * s.size();
      for (int k = 1; k <= prof.length(); ++k)
        row[s.slot(k) + md.lane_lo] = prof.cost(x, k);
    }
  }

  view_.rows = rows_.data();
  view_.bias = bias_.data();
  view_.models = models_.data();
  view_.n_models = static_cast<int>(members_.size());
  view_.Q = Q_;
}

FusedMsvFilter::FusedMsvFilter(const FusedMsvGroup& group, SimdTier tier)
    : group_(group),
      ops_(&backend::tier_kernels(resolve_simd_tier(tier))) {
  FH_REQUIRE(group_.lanes() == ops_->u8_lanes,
             "fused group built for a different lane count");
  const std::size_t lanes = static_cast<std::size_t>(group_.lanes());
  row_.assign(static_cast<std::size_t>(group_.segments()) * lanes, 0);
  // xb / trigger / xe share one aligned block; each slice starts at a
  // multiple of the lane width, so vector loads stay aligned.
  lanes_.assign(3 * lanes, 0);
  xj_.assign(group_.size(), 0);
  tjb_.assign(group_.size(), 0);
  overflowed_.assign(group_.size(), 0);
}

simd_kernels::MsvGroupState FusedMsvFilter::begin(std::size_t L) {
  for (std::size_t m = 0; m < group_.size(); ++m)
    tjb_[m] = group_.member(m).tjb_for(static_cast<int>(L));
  const std::size_t lanes = static_cast<std::size_t>(group_.lanes());
  simd_kernels::MsvGroupState st;
  st.xb = lanes_.data();
  st.trigger = lanes_.data() + lanes;
  st.xe = lanes_.data() + 2 * lanes;
  st.xj = xj_.data();
  st.tjb = tjb_.data();
  st.overflowed = overflowed_.data();
  return st;
}

void FusedMsvFilter::finish(std::size_t L, FilterResult* results) const {
  for (std::size_t m = 0; m < group_.size(); ++m) {
    if (overflowed_[m]) {
      results[m].score_nats = std::numeric_limits<float>::infinity();
      results[m].overflowed = true;
    } else {
      results[m].score_nats =
          group_.member(m).score_from_bytes(xj_[m], static_cast<int>(L));
      results[m].overflowed = false;
    }
  }
}

void FusedMsvFilter::msv(const std::uint8_t* seq, std::size_t L,
                         FilterResult* results) {
  if (L == 0) {
    for (std::size_t m = 0; m < group_.size(); ++m)
      results[m] = FilterResult{};
    return;
  }
  ops_->msv_group(group_.view(), begin(L), seq, L, row_.data());
  finish(L, results);
}

void FusedMsvFilter::msv(bio::PackedResidues seq, std::size_t L,
                         FilterResult* results) {
  if (L == 0) {
    for (std::size_t m = 0; m < group_.size(); ++m)
      results[m] = FilterResult{};
    return;
  }
  ops_->msv_group_packed(group_.view(), begin(L), seq, L, row_.data());
  finish(L, results);
}

void FusedMsvFilter::ssv(const std::uint8_t* seq, std::size_t L,
                         FilterResult* results) {
  if (L == 0) {
    for (std::size_t m = 0; m < group_.size(); ++m)
      results[m] = FilterResult{};
    return;
  }
  ops_->ssv_group(group_.view(), begin(L), seq, L, row_.data());
  finish(L, results);
}

void FusedMsvFilter::ssv(bio::PackedResidues seq, std::size_t L,
                         FilterResult* results) {
  if (L == 0) {
    for (std::size_t m = 0; m < group_.size(); ++m)
      results[m] = FilterResult{};
    return;
  }
  ops_->ssv_group_packed(group_.view(), begin(L), seq, L, row_.data());
  finish(L, results);
}

}  // namespace finehmm::cpu
