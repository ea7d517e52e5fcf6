#include "cpu/msv_filter.hpp"

#include "util/error.hpp"

namespace finehmm::cpu {

MsvFilter::MsvFilter(const profile::MsvProfile& prof, SimdTier tier)
    : MsvFilter(prof, tier, nullptr) {}

MsvFilter::MsvFilter(const profile::MsvProfile& prof, SimdTier tier,
                     std::shared_ptr<const MsvStripes> stripes)
    : prof_(prof),
      ops_(&backend::tier_kernels(resolve_simd_tier(tier))),
      stripes_(std::move(stripes)) {
  if (stripes_ == nullptr)
    stripes_ = std::make_shared<const MsvStripes>(prof, ops_->u8_lanes);
  FH_REQUIRE(stripes_->lanes() == ops_->u8_lanes,
             "shared MSV stripes built for a different lane count");
  row_.assign(static_cast<std::size_t>(stripes_->segments()) *
                  stripes_->lanes(),
              0);
}

FilterResult MsvFilter::score(const std::uint8_t* seq, std::size_t L) {
  return ops_->msv(prof_, stripes_->row(0), stripes_->segments(), seq, L,
                   row_.data());
}

FilterResult MsvFilter::score(bio::PackedResidues seq, std::size_t L) {
  return ops_->msv_packed(prof_, stripes_->row(0), stripes_->segments(), seq,
                          L, row_.data());
}

FilterResult MsvFilter::ssv(const std::uint8_t* seq, std::size_t L) {
  return ops_->ssv(prof_, stripes_->row(0), stripes_->segments(), seq, L,
                   row_.data());
}

FilterResult MsvFilter::ssv(bio::PackedResidues seq, std::size_t L) {
  return ops_->ssv_packed(prof_, stripes_->row(0), stripes_->segments(), seq,
                          L, row_.data());
}

float byte_bits(const profile::MsvProfile& msv, FilterResult r, int L) {
  return r.overflowed
             ? hmm::nats_to_bits(
                   (255.0f - msv.bias() - msv.base()) / msv.scale(), L)
             : hmm::nats_to_bits(r.score_nats, L);
}

}  // namespace finehmm::cpu
