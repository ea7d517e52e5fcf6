// Striped float Forward filter and checkpointed Forward/Backward decoder
// (extension; HMMER 3.0 ships an SSE float Forward — p7_ForwardFilter —
// as its final scoring stage, HMMER 3.1 adds the checkpointed Backward).
//
// Runs in probability space with Farrar striping at the active tier's
// float width — 4 lanes portable/SSE2, 8 on AVX2, 16 on AVX-512 — all
// instantiating the same kernel (cpu/simd_backend/kernels.hpp).  Two
// numerical devices keep it finite:
//   * per-row rescaling: when the row's E mass leaves [1e-12, 1e12], all
//     live state (DP stripes and the N/B/J/C specials) is divided by the
//     E mass and its log accumulated — the classic scaled-Forward trick;
//   * the D->D chain converges geometrically (tDD < 1), so the cross-lane
//     wrap passes stop once the circulating mass falls below a relative
//     epsilon of the accumulated D mass.
// The result tracks the exact log-space Forward within ~1e-3 nats.
// Float summation order is part of the result, so different lane widths
// agree within a documented log-sum tolerance rather than bit-exactly
// (see docs/simd_dispatch.md); a given width is bit-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/stripes.hpp"
#include "profile/fwd_profile.hpp"
#include "util/aligned.hpp"

namespace finehmm::cpu {

class FwdFilter {
 public:
  explicit FwdFilter(const profile::FwdProfile& prof,
                     SimdTier tier = active_simd_tier());
  /// Share prebuilt parameter stripes between workers; their lane count
  /// must match the resolved tier's float width.
  FwdFilter(const profile::FwdProfile& prof, SimdTier tier,
            std::shared_ptr<const FwdStripes> stripes);

  /// Forward score (nats).
  float score(const std::uint8_t* seq, std::size_t L);

  /// Checkpointed Forward + Backward: fills mocc (resized to L) with the
  /// per-residue model occupancy P(residue i emitted by the core model)
  /// and returns the Forward score — identical to score()'s, the decode
  /// replays the same kernel rows.  Workspace is owned by the filter and
  /// grown monotonically, so steady-state scans allocate nothing.
  float decode(const std::uint8_t* seq, std::size_t L,
               std::vector<float>& mocc);

  /// The tier score() actually runs: the requested tier clamped to what
  /// the host supports.
  SimdTier tier() const noexcept { return ops_->tier; }
  /// Float lanes per vector at that tier (4 / 8 / 16).
  int lanes() const noexcept { return ops_->f32_lanes; }
  /// The parameter stripes score() reads (shareable with workers).
  const std::shared_ptr<const FwdStripes>& stripes() const {
    return stripes_;
  }

 private:
  void grow_decode_workspace(std::size_t L);

  const profile::FwdProfile& prof_;
  const backend::TierKernels* ops_;
  std::shared_ptr<const FwdStripes> stripes_;  // ops_->f32_lanes wide
  aligned_vector<float> mmx_, imx_, dmx_;  // Q stripes x lanes each

  // Checkpointed-decode workspace (see simd_kernels::FwdBwdScratch);
  // sized for the largest L seen, never shrunk.
  aligned_vector<float> snap_, blk_m_, blk_i_, bwd_;
  aligned_vector<float> row_xb_, row_inv_;
  aligned_vector<double> row_scale_;
  std::size_t decode_rows_ = 0;  // L capacity of the per-row arrays
  int block_ = 0;
  int n_blocks_ = 0;
};

/// One-shot convenience wrapper honouring the active tier (including env
/// and programmatic overrides).  DP rows are thread-local scratch, grown
/// only on change; the parameters are striped on every call.  Code
/// scoring many sequences against one model uses a FwdFilter, which
/// stripes once.
float fwd_striped(const profile::FwdProfile& prof, const std::uint8_t* seq,
                  std::size_t L);

}  // namespace finehmm::cpu
