// Striped SIMD ViterbiFilter with the Farrar Lazy-F evaluation.
//
// The D->D dependency chain breaks striping: consecutive model positions
// sit in consecutive stripes of the same lane, so in-row propagation works
// within a pass over the stripes, but chains that cross a lane boundary
// need the dcv register wrapped (lane-shifted) and the pass repeated.
// Because most rows take no D->D path at all, the repeat almost never
// fires — the "Lazy-F" insight of Farrar (2007) that HMMER 3.0 and the
// paper's GPU kernel both rely on.  Word values match vit_scalar exactly.
//
// Like MsvFilter, the filter resolves its tier through the backend's
// kernel table; tiers wider than the profile's native 8-word layout
// re-stripe all eight parameter arrays once per (model, lane count),
// shareable between workers through SharedVitStripes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/filter_result.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "profile/vit_profile.hpp"

namespace finehmm::cpu {

/// A tier's striped Viterbi parameters, type-erased like SharedMsvRows:
/// the 8-lane view aliases the VitProfile's own arrays (owner empty); the
/// wide re-stripings keep their WideVitStripes<N> alive via owner.
struct SharedVitStripes {
  std::shared_ptr<const void> owner;
  simd_kernels::VitStripesView view;
  int lanes = 0;
};

/// Build (or alias) the parameter stripes for one word lane count: 8
/// reads the VitProfile's own striping zero-copy; 16/32 re-stripe once.
SharedVitStripes make_shared_vit_stripes(const profile::VitProfile& prof,
                                         int lanes);

class VitFilter {
 public:
  explicit VitFilter(const profile::VitProfile& prof,
                     SimdTier tier = active_simd_tier());
  /// Share a prebuilt parameter re-striping between workers; its lane
  /// count must match the resolved tier's.
  VitFilter(const profile::VitProfile& prof, SimdTier tier,
            SharedVitStripes wide);

  FilterResult score(const std::uint8_t* seq, std::size_t L);

  /// Number of Lazy-F wrap passes of the last score() call that improved
  /// at least one stripe (diagnostic; 0 means no D chain crossed a lane
  /// boundary).
  int last_lazyf_passes() const noexcept { return lazyf_passes_; }

  /// The tier score() actually runs (requested clamped to supported).
  SimdTier tier() const noexcept { return ops_->tier; }
  /// The parameter stripes score() reads (shareable with other workers).
  const SharedVitStripes& wide_stripes() const { return wide_; }

 private:
  const profile::VitProfile& prof_;
  const backend::TierKernels* ops_;
  SharedVitStripes wide_;
  std::vector<std::int16_t> mmx_, imx_, dmx_;  // Q stripes x lane words
  int lazyf_passes_ = 0;
};

}  // namespace finehmm::cpu
