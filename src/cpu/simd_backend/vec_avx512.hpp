// Native AVX-512 lane classes satisfying the simd_kernels vector contract.
//
// 64 byte lanes for MSV/SSV, 32 word lanes for the ViterbiFilter and 16
// float lanes for Forward/Backward — the widths HMMER4 uses for its
// avx512 engines.  Requires AVX-512F (valignd/valignq cross-lane shifts,
// 512-bit float math) plus AVX-512BW (byte/word saturating arithmetic and
// the epi8/epi16 compare masks); both are probed together at runtime.
// The lane-shift idiom differs from AVX2: VPALIGNR still works per
// 128-bit lane, so the carry register is built with VALIGNQ (a full
// cross-register 128-bit shift) instead of VPERM2I128, and the float
// shifts use VALIGND directly since it is fully cross-lane.
// Only include from TUs compiled with -mavx512f -mavx512bw (see
// backend_avx512.cpp).
#pragma once

#include <immintrin.h>

#include <cstdint>

#include "profile/vit_profile.hpp"

namespace finehmm::cpu::backend {

/// 64 unsigned bytes in one ZMM register (MSV lane type, AVX-512 tier).
struct Avx512U8x64 {
  static constexpr int kLanes = 64;
  __m512i v;

  static Avx512U8x64 splat(std::uint8_t x) {
    return {_mm512_set1_epi8(static_cast<char>(x))};
  }
  static Avx512U8x64 load(const std::uint8_t* p) {
    return {_mm512_loadu_si512(p)};
  }
  void store(std::uint8_t* p) const { _mm512_storeu_si512(p, v); }

  friend Avx512U8x64 max_u8(Avx512U8x64 a, Avx512U8x64 b) {
    return {_mm512_max_epu8(a.v, b.v)};
  }
  friend Avx512U8x64 adds_u8(Avx512U8x64 a, Avx512U8x64 b) {
    return {_mm512_adds_epu8(a.v, b.v)};
  }
  friend Avx512U8x64 subs_u8(Avx512U8x64 a, Avx512U8x64 b) {
    return {_mm512_subs_epu8(a.v, b.v)};
  }
  /// Lane j <- lane j-1 across all 64 lanes, lane 0 <- 0: VALIGNQ builds
  /// a carry copy shifted up one 128-bit lane (low lane zero), then the
  /// per-lane alignr pulls each lane's top byte from the lane below.
  friend Avx512U8x64 shift_lanes_up(Avx512U8x64 a) {
    __m512i carry = _mm512_alignr_epi64(a.v, _mm512_setzero_si512(), 6);
    return {_mm512_alignr_epi8(a.v, carry, 15)};
  }
  friend std::uint8_t hmax_u8(Avx512U8x64 a) {
    __m256i h = _mm256_max_epu8(_mm512_castsi512_si256(a.v),
                                _mm512_extracti64x4_epi64(a.v, 1));
    __m128i m =
        _mm_max_epu8(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 8));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
    return static_cast<std::uint8_t>(_mm_cvtsi128_si32(m) & 0xff);
  }
  /// True if a > b (unsigned) in any lane: one VPCMPUB into a k-register.
  friend bool any_gt_u8(Avx512U8x64 a, Avx512U8x64 b) {
    return _mm512_cmpgt_epu8_mask(a.v, b.v) != 0;
  }
};

/// 32 signed words in one ZMM register (ViterbiFilter lane type, AVX-512).
struct Avx512I16x32 {
  static constexpr int kLanes = 32;
  __m512i v;

  static Avx512I16x32 splat(std::int16_t x) {
    return {_mm512_set1_epi16(x)};
  }
  static Avx512I16x32 neg_inf() { return splat(profile::kWordNegInf); }
  static Avx512I16x32 load(const std::int16_t* p) {
    return {_mm512_loadu_si512(p)};
  }
  void store(std::int16_t* p) const { _mm512_storeu_si512(p, v); }

  friend Avx512I16x32 max_i16(Avx512I16x32 a, Avx512I16x32 b) {
    return {_mm512_max_epi16(a.v, b.v)};
  }
  /// Transition add (I16xN::adds_trans_w): the saturating add, masked
  /// to the lanes whose parameter t is finite; the others get -inf.
  friend Avx512I16x32 adds_trans_w(Avx512I16x32 a, Avx512I16x32 t) {
    const __m512i ninf = _mm512_set1_epi16(profile::kWordNegInf);
    const __mmask32 fin = _mm512_cmpneq_epi16_mask(t.v, ninf);
    return {_mm512_mask_adds_epi16(ninf, fin, a.v, t.v)};
  }
  /// Emission add (I16xN::adds_emit_w): the transition add with the
  /// finite lanes clamped at -32767.
  friend Avx512I16x32 adds_emit_w(Avx512I16x32 a, Avx512I16x32 e) {
    const __m512i ninf = _mm512_set1_epi16(profile::kWordNegInf);
    const __mmask32 fin = _mm512_cmpneq_epi16_mask(e.v, ninf);
    const __m512i sum = _mm512_mask_adds_epi16(ninf, fin, a.v, e.v);
    return {_mm512_mask_max_epi16(sum, fin, sum, _mm512_set1_epi16(-32767))};
  }
  /// Word lane j <- lane j-1 across all 32 lanes, lane 0 <- fill: the
  /// VALIGNQ carry's low 128-bit lane is zero, so its top word (which the
  /// alignr pulls into lane 0) is patched to `fill` with a masked set.
  friend Avx512I16x32 shift_lanes_up(
      Avx512I16x32 a, std::int16_t fill = profile::kWordNegInf) {
    __m512i carry = _mm512_alignr_epi64(a.v, _mm512_setzero_si512(), 6);
    carry = _mm512_mask_set1_epi16(carry, static_cast<__mmask32>(1u << 7),
                                   fill);
    return {_mm512_alignr_epi8(a.v, carry, 14)};
  }
  friend std::int16_t hmax_i16(Avx512I16x32 a) {
    __m256i h = _mm256_max_epi16(_mm512_castsi512_si256(a.v),
                                 _mm512_extracti64x4_epi64(a.v, 1));
    __m128i m = _mm_max_epi16(_mm256_castsi256_si128(h),
                              _mm256_extracti128_si256(h, 1));
    m = _mm_max_epi16(m, _mm_srli_si128(m, 8));
    m = _mm_max_epi16(m, _mm_srli_si128(m, 4));
    m = _mm_max_epi16(m, _mm_srli_si128(m, 2));
    return static_cast<std::int16_t>(_mm_cvtsi128_si32(m) & 0xffff);
  }
  friend bool any_gt_i16(Avx512I16x32 a, Avx512I16x32 b) {
    return _mm512_cmpgt_epi16_mask(a.v, b.v) != 0;
  }
};

/// 16 floats in one ZMM register (Forward/Backward lane type, AVX-512).
struct Avx512F32x16 {
  static constexpr int kLanes = 16;
  __m512 v;

  static Avx512F32x16 splat(float x) { return {_mm512_set1_ps(x)}; }
  static Avx512F32x16 load(const float* p) { return {_mm512_loadu_ps(p)}; }
  void store(float* p) const { _mm512_storeu_ps(p, v); }

  friend Avx512F32x16 add_f(Avx512F32x16 a, Avx512F32x16 b) {
    return {_mm512_add_ps(a.v, b.v)};
  }
  friend Avx512F32x16 sub_f(Avx512F32x16 a, Avx512F32x16 b) {
    return {_mm512_sub_ps(a.v, b.v)};
  }
  friend Avx512F32x16 mul_f(Avx512F32x16 a, Avx512F32x16 b) {
    return {_mm512_mul_ps(a.v, b.v)};
  }
  /// Lane j <- lane j-1, lane 0 <- fill (VALIGND is fully cross-lane).
  friend Avx512F32x16 shift_lanes_up(Avx512F32x16 a, float fill = 0.0f) {
    return {_mm512_castsi512_ps(_mm512_alignr_epi32(
        _mm512_castps_si512(a.v),
        _mm512_castps_si512(_mm512_set1_ps(fill)), 15))};
  }
  /// Lane j <- lane j+1, lane 15 <- 0.0f.
  friend Avx512F32x16 shift_lanes_down(Avx512F32x16 a) {
    return {_mm512_castsi512_ps(_mm512_alignr_epi32(
        _mm512_setzero_si512(), _mm512_castps_si512(a.v), 1))};
  }
  /// In-order lane sum starting from 0.0f: bit-identical to the portable
  /// 16-lane F32xN::hsum_f, which the Forward tolerance contract relies
  /// on (portable and native runs of the same width must agree exactly).
  friend float hsum_f(Avx512F32x16 a) {
    alignas(64) float t[16];
    _mm512_store_ps(t, a.v);
    float s = 0.0f;
    for (int i = 0; i < 16; ++i) s += t[i];
    return s;
  }

  // Lane masks for the trace and lanes-as-samples Forward kernels: one
  // k-register bit per lane.
  using Mask = __mmask16;
  friend Mask gt_f(Avx512F32x16 a, Avx512F32x16 b) {
    return _mm512_cmp_ps_mask(a.v, b.v, _CMP_GT_OQ);
  }
  friend Mask ge_f(Avx512F32x16 a, Avx512F32x16 b) {
    return _mm512_cmp_ps_mask(a.v, b.v, _CMP_GE_OQ);
  }
  /// Lane-wise m ? a : b.
  friend Avx512F32x16 select_f(Mask m, Avx512F32x16 a, Avx512F32x16 b) {
    return {_mm512_mask_blend_ps(m, b.v, a.v)};
  }
  /// Lanes in m read table[truncated pos] (VCVTTPS2DQ + VGATHERDPS), the
  /// others keep src; masked-off lanes load nothing.
  friend Avx512F32x16 lookup_f(const float* table, Avx512F32x16 pos, Mask m,
                               Avx512F32x16 src) {
    return {_mm512_mask_i32gather_ps(src.v, m, _mm512_cvttps_epi32(pos.v),
                                     table, 4)};
  }
  /// Lane codes 0..15 (held as floats) packed one nibble per lane, lane j
  /// in bits 4j..4j+3: VPMOVDB narrows to bytes, then byte pairs fold
  /// within 16-bit words and pack.
  friend std::uint64_t pack_nibbles(Avx512F32x16 a) {
    __m128i b = _mm512_cvtepi32_epi8(_mm512_cvttps_epi32(a.v));
    b = _mm_and_si128(_mm_or_si128(b, _mm_srli_epi16(b, 4)),
                      _mm_set1_epi16(0x00FF));
    b = _mm_packus_epi16(b, b);
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(b));
  }
};

}  // namespace finehmm::cpu::backend
