#include "cpu/vit_filter.hpp"

#include "util/error.hpp"

namespace finehmm::cpu {

VitFilter::VitFilter(const profile::VitProfile& prof, SimdTier tier)
    : VitFilter(prof, tier, nullptr) {}

VitFilter::VitFilter(const profile::VitProfile& prof, SimdTier tier,
                     std::shared_ptr<const VitStripes> stripes)
    : prof_(prof),
      ops_(&backend::tier_kernels(resolve_simd_tier(tier))),
      stripes_(std::move(stripes)) {
  if (stripes_ == nullptr)
    stripes_ = std::make_shared<const VitStripes>(prof, ops_->i16_lanes);
  FH_REQUIRE(stripes_->lanes() == ops_->i16_lanes,
             "shared Viterbi stripes built for a different lane count");
  const std::size_t n =
      static_cast<std::size_t>(stripes_->segments()) * stripes_->lanes();
  mmx_.assign(n, profile::kWordNegInf);
  imx_.assign(n, profile::kWordNegInf);
  dmx_.assign(n, profile::kWordNegInf);
}

FilterResult VitFilter::score(const std::uint8_t* seq, std::size_t L) {
  return ops_->vit(prof_, stripes_->view(), seq, L, mmx_.data(), imx_.data(),
                   dmx_.data(), &lazyf_passes_);
}

}  // namespace finehmm::cpu
