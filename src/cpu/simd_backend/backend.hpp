// The per-tier kernel dispatch table: the only way a striped kernel is
// reached.
//
// Every filter kernel is written once in kernels.hpp as a template over a
// lane class.  A tier is a set of three lane classes (bytes for MSV/SSV,
// words for the ViterbiFilter, floats for Forward/Backward and the
// trace), and make_tier_row below turns any such set into a TierKernels
// row of function pointers.  The portable row (cpu/simd_vec.hpp classes)
// is built in dispatch.cpp; each native row is built inside its ISA
// translation unit (backend_sse2/avx2/avx512.cpp, the only files compiled
// with that ISA's flags), which exports just two symbols: have_<isa>()
// and <isa>_row().  Adding a tier is a lane-class header, a TU of that
// shape and an enum value.  The library builds without floating-point
// contraction, so each native float row rounds exactly as the portable
// class of its width does (docs/simd_dispatch.md §5).  This header itself
// is plain C++ and safe to include anywhere.
//
// Every row has the same signatures (HMMER4-style) and every entry takes
// caller-owned DP scratch and performs no heap allocation:
//   * msv/ssv take a re-striped emission table for the tier's byte lane
//     count (cpu::WideMsvStripes<N> layout: residue x at rows + x*Q*N;
//     for 16 lanes the MsvProfile's own arrays are already that layout
//     and are passed zero-copy).
//   * vit takes a VitStripesView built for the tier's word lane count
//     (cpu::WideVitStripes<N>; 8 lanes use vit_native_view below).
//   * fwd / fwd_bwd take a FwdStripesView built for the tier's float lane
//     count (cpu::WideFwdStripes).
//   * trace takes a TraceStripesView built for the tier's float lane
//     count (cpu::TraceStripes) plus the length model's special scores.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bio/packed_seq.hpp"
#include "cpu/filter_result.hpp"
#include "cpu/simd_backend/kernels.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"

namespace finehmm::cpu::backend {

/// True when the SSE2 backend is compiled in and this CPU can run it.
bool have_sse2();
/// True when the AVX2 backend is compiled in and this CPU can run it.
bool have_avx2();
/// True when the AVX-512 backend is compiled in and this CPU can run it
/// (requires the F and BW subsets).
bool have_avx512();

/// The VitProfile's native 8-word striping as a VitStripesView (zero-copy;
/// this is what the SSE2 tier consumes).
inline simd_kernels::VitStripesView vit_native_view(
    const profile::VitProfile& prof) {
  simd_kernels::VitStripesView st;
  st.msc = prof.msc_striped(0);
  st.tmm = prof.tmm_striped();
  st.tim = prof.tim_striped();
  st.tdm = prof.tdm_striped();
  st.tmi = prof.tmi_striped();
  st.tii = prof.tii_striped();
  st.tmd = prof.tmd_striped();
  st.tdd = prof.tdd_striped();
  st.Q = prof.striped_segments();
  return st;
}

/// The FwdProfile's native 4-float striping as a FwdStripesView
/// (zero-copy; what the portable and SSE2 tiers consume for plain
/// scoring).  The out-indexed stripes are left null — Backward needs a
/// cpu::WideFwdStripes, which builds them for any lane count.
inline simd_kernels::FwdStripesView fwd_native_view(
    const profile::FwdProfile& prof) {
  simd_kernels::FwdStripesView st;
  st.odds = prof.odds_striped(0);
  st.tmm = prof.tmm_striped();
  st.tim = prof.tim_striped();
  st.tdm = prof.tdm_striped();
  st.tmi = prof.tmi_striped();
  st.tii = prof.tii_striped();
  st.tmd = prof.tmd_in_striped();
  st.tdd = prof.tdd_in_striped();
  st.entry = prof.entry();
  st.Q = prof.striped_segments();
  return st;
}

// ---- Per-tier dispatch table ----

/// One tier's kernels plus its lane geometry.  Function pointers, so no
/// default arguments: vit's final parameter is the optional lazyf_passes
/// out-param (nullable), fwd_bwd's mocc must hold L floats.
struct TierKernels {
  SimdTier tier = SimdTier::kPortable;
  int u8_lanes = 0;   // MSV/SSV byte lanes
  int i16_lanes = 0;  // Viterbi word lanes
  int f32_lanes = 0;  // Forward/Backward float lanes

  FilterResult (*msv)(const profile::MsvProfile&, const std::uint8_t*, int,
                      const std::uint8_t*, std::size_t,
                      std::uint8_t*) = nullptr;
  FilterResult (*msv_packed)(const profile::MsvProfile&,
                             const std::uint8_t*, int, bio::PackedResidues,
                             std::size_t, std::uint8_t*) = nullptr;
  FilterResult (*ssv)(const profile::MsvProfile&, const std::uint8_t*, int,
                      const std::uint8_t*, std::size_t,
                      std::uint8_t*) = nullptr;
  FilterResult (*ssv_packed)(const profile::MsvProfile&,
                             const std::uint8_t*, int, bio::PackedResidues,
                             std::size_t, std::uint8_t*) = nullptr;
  FilterResult (*vit)(const profile::VitProfile&,
                      const simd_kernels::VitStripesView&,
                      const std::uint8_t*, std::size_t, std::int16_t*,
                      std::int16_t*, std::int16_t*, int*) = nullptr;
  float (*fwd)(const profile::FwdProfile&,
               const simd_kernels::FwdStripesView&, const std::uint8_t*,
               std::size_t, float*, float*, float*) = nullptr;
  float (*fwd_bwd)(const profile::FwdProfile&,
                   const simd_kernels::FwdStripesView&,
                   const std::uint8_t*, std::size_t,
                   const simd_kernels::FwdBwdScratch&, float*) = nullptr;
  float (*trace)(const simd_kernels::TraceStripesView&,
                 const hmm::SpecialScores&, const std::uint8_t*, std::size_t,
                 const simd_kernels::TraceScratch&) = nullptr;

  // Fused multi-model sweeps: one call scores every member of a packed
  // group (results come back through MsvGroupState's xj/overflowed).
  void (*msv_group)(const simd_kernels::MsvGroupView&,
                    const simd_kernels::MsvGroupState&, const std::uint8_t*,
                    std::size_t, std::uint8_t*) = nullptr;
  void (*msv_group_packed)(const simd_kernels::MsvGroupView&,
                           const simd_kernels::MsvGroupState&,
                           bio::PackedResidues, std::size_t,
                           std::uint8_t*) = nullptr;
  void (*ssv_group)(const simd_kernels::MsvGroupView&,
                    const simd_kernels::MsvGroupState&, const std::uint8_t*,
                    std::size_t, std::uint8_t*) = nullptr;
  void (*ssv_group_packed)(const simd_kernels::MsvGroupView&,
                           const simd_kernels::MsvGroupState&,
                           bio::PackedResidues, std::size_t,
                           std::uint8_t*) = nullptr;

  /// The byte class's any_gt_u8 (the MSV/SSV row-epilogue test) on u8_lanes
  /// bytes loaded from a and b.  The native classes exist only inside their
  /// ISA translation units, so this is how tests reach the op.
  bool (*any_gt_u8)(const std::uint8_t* a, const std::uint8_t* b) = nullptr;
};

/// The one row recipe: every kernel instantiated with the byte class U8,
/// the word class I16 and the float class F32.  Instantiate it only where
/// those classes' instructions may be compiled (their own TU), so every
/// symbol it emits is keyed on them.
template <class U8, class I16, class F32>
constexpr TierKernels make_tier_row(SimdTier tier) {
  using Bytes = const std::uint8_t*;
  using bio::PackedResidues;
  namespace k = simd_kernels;
  TierKernels row;
  row.tier = tier;
  row.u8_lanes = U8::kLanes;
  row.i16_lanes = I16::kLanes;
  row.f32_lanes = F32::kLanes;
  row.msv = &k::msv_kernel<U8, Bytes>;
  row.msv_packed = &k::msv_kernel<U8, PackedResidues>;
  row.ssv = &k::ssv_kernel<U8, Bytes>;
  row.ssv_packed = &k::ssv_kernel<U8, PackedResidues>;
  row.vit = &k::vit_kernel<I16, Bytes>;
  row.fwd = &k::fwd_kernel<F32, Bytes>;
  row.fwd_bwd = &k::fwd_bwd_kernel<F32, Bytes>;
  row.trace = &k::trace_kernel<F32>;
  row.msv_group = &k::msv_group_kernel<U8, Bytes>;
  row.msv_group_packed = &k::msv_group_kernel<U8, PackedResidues>;
  row.ssv_group = &k::ssv_group_kernel<U8, Bytes>;
  row.ssv_group_packed = &k::ssv_group_kernel<U8, PackedResidues>;
  row.any_gt_u8 = [](const std::uint8_t* a, const std::uint8_t* b) {
    return any_gt_u8(U8::load(a), U8::load(b));
  };
  return row;
}

/// Each native row, built in its ISA translation unit with that ISA's
/// lane classes; nullptr when the TU was not compiled for its ISA.
const TierKernels* sse2_row();
const TierKernels* avx2_row();
const TierKernels* avx512_row();

/// The dispatch row for one tier.  Throws Error unless
/// simd_tier_supported(tier): a row whose instructions this host cannot
/// run is never handed out.
const TierKernels& tier_kernels(SimdTier tier);

}  // namespace finehmm::cpu::backend
