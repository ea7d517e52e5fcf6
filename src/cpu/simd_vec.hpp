// Portable fixed-width SIMD vector types for the striped CPU filters.
//
// HMMER 3.0's MSV filter runs on 16 unsigned bytes per SSE register and the
// ViterbiFilter on 8 signed words.  These classes reproduce those lane
// semantics for any power-of-two lane count N with plain loops that
// GCC/Clang auto-vectorize to SSE/AVX on x86.  They are the executable
// specification of the native SSE2/AVX2/AVX-512 classes: a kernel
// instantiated with U8xN/I16xN/F32xN at a tier's lane counts returns the
// native row's results bit for bit (tests/test_tier_spec.cpp).  They also
// serve as the specification the SIMT kernels are tested against.  Word
// adds use the library's sticky -inf saturating semantics (see
// profile/vit_profile.hpp) so every implementation agrees exactly.
#pragma once

#include <cstdint>
#include <cstring>

#include "profile/vit_profile.hpp"

namespace finehmm::cpu {

/// N unsigned bytes (MSV/SSV lane type).
template <int N>
struct U8xN {
  static_assert(N >= 2 && (N & (N - 1)) == 0, "lane count: power of two");
  static constexpr int kLanes = N;
  std::uint8_t v[N];

  static U8xN splat(std::uint8_t x) {
    U8xN r;
    for (auto& e : r.v) e = x;
    return r;
  }
  static U8xN zero() { return splat(0); }
  static U8xN load(const std::uint8_t* p) {
    U8xN r;
    std::memcpy(r.v, p, N);
    return r;
  }
  void store(std::uint8_t* p) const { std::memcpy(p, v, N); }

  friend U8xN max_u8(U8xN a, U8xN b) {
    U8xN r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  friend U8xN adds_u8(U8xN a, U8xN b) {
    U8xN r;
    for (int i = 0; i < N; ++i) {
      unsigned s = unsigned(a.v[i]) + unsigned(b.v[i]);
      r.v[i] = s > 255u ? 255u : std::uint8_t(s);
    }
    return r;
  }
  friend U8xN subs_u8(U8xN a, U8xN b) {
    U8xN r;
    for (int i = 0; i < N; ++i)
      r.v[i] = a.v[i] > b.v[i] ? std::uint8_t(a.v[i] - b.v[i]) : 0;
    return r;
  }
  /// Shift lanes up by one (lane j <- lane j-1), filling lane 0 with fill.
  friend U8xN shift_lanes_up(U8xN a, std::uint8_t fill = 0) {
    U8xN r;
    r.v[0] = fill;
    for (int i = 1; i < N; ++i) r.v[i] = a.v[i - 1];
    return r;
  }
  friend std::uint8_t hmax_u8(U8xN a) {
    std::uint8_t m = 0;
    for (auto e : a.v)
      if (e > m) m = e;
    return m;
  }
  /// True if a > b (unsigned) in any lane.
  friend bool any_gt_u8(U8xN a, U8xN b) {
    bool any = false;
    for (int i = 0; i < N; ++i) any |= a.v[i] > b.v[i];
    return any;
  }
};

/// N signed words (ViterbiFilter lane type).
template <int N>
struct I16xN {
  static_assert(N >= 2 && (N & (N - 1)) == 0, "lane count: power of two");
  static constexpr int kLanes = N;
  std::int16_t v[N];

  static I16xN splat(std::int16_t x) {
    I16xN r;
    for (auto& e : r.v) e = x;
    return r;
  }
  static I16xN neg_inf() { return splat(profile::kWordNegInf); }
  static I16xN load(const std::int16_t* p) {
    I16xN r;
    std::memcpy(r.v, p, N * sizeof(std::int16_t));
    return r;
  }
  void store(std::int16_t* p) const {
    std::memcpy(p, v, N * sizeof(std::int16_t));
  }

  friend I16xN max_i16(I16xN a, I16xN b) {
    I16xN r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  /// Sticky -inf saturating add (matches profile::sat_add_word lane-wise).
  friend I16xN adds_w(I16xN a, I16xN b) {
    I16xN r;
    for (int i = 0; i < N; ++i)
      r.v[i] = profile::sat_add_word(a.v[i], b.v[i]);
    return r;
  }
  /// Shift lanes up by one, filling lane 0 with fill (-inf by default).
  friend I16xN shift_lanes_up(I16xN a,
                              std::int16_t fill = profile::kWordNegInf) {
    I16xN r;
    r.v[0] = fill;
    for (int i = 1; i < N; ++i) r.v[i] = a.v[i - 1];
    return r;
  }
  friend std::int16_t hmax_i16(I16xN a) {
    std::int16_t m = profile::kWordNegInf;
    for (auto e : a.v)
      if (e > m) m = e;
    return m;
  }
  /// True if any lane of a is strictly greater than the same lane of b.
  friend bool any_gt_i16(I16xN a, I16xN b) {
    for (int i = 0; i < N; ++i)
      if (a.v[i] > b.v[i]) return true;
    return false;
  }
};

/// N floats (Forward/Backward lane type, probability space; also the
/// log-odds lane type of the trace kernel).
template <int N>
struct F32xN {
  static_assert(N >= 2 && (N & (N - 1)) == 0, "lane count: power of two");
  static constexpr int kLanes = N;
  /// Lane comparison result: bit j set when lane j compared true.
  using Mask = std::uint64_t;
  float v[N];

  static F32xN splat(float x) {
    F32xN r;
    for (auto& e : r.v) e = x;
    return r;
  }
  static F32xN zero() { return splat(0.0f); }
  static F32xN load(const float* p) {
    F32xN r;
    std::memcpy(r.v, p, N * sizeof(float));
    return r;
  }
  void store(float* p) const { std::memcpy(p, v, N * sizeof(float)); }

  friend F32xN add_f(F32xN a, F32xN b) {
    F32xN r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend F32xN mul_f(F32xN a, F32xN b) {
    F32xN r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  /// Shift lanes up by one (lane j <- lane j-1), lane 0 <- fill.
  friend F32xN shift_lanes_up(F32xN a, float fill = 0.0f) {
    F32xN r;
    r.v[0] = fill;
    for (int i = 1; i < N; ++i) r.v[i] = a.v[i - 1];
    return r;
  }
  /// Shift lanes down by one (lane j <- lane j+1), top lane <- 0.0f.
  friend F32xN shift_lanes_down(F32xN a) {
    F32xN r;
    for (int i = 0; i + 1 < N; ++i) r.v[i] = a.v[i + 1];
    r.v[N - 1] = 0.0f;
    return r;
  }
  /// In-order lane sum starting from 0.0f — part of the score contract.
  friend float hsum_f(F32xN a) {
    float s = 0.0f;
    for (auto e : a.v) s += e;
    return s;
  }
  friend float hmax_f(F32xN a) {
    float m = a.v[0];
    for (auto e : a.v)
      if (e > m) m = e;
    return m;
  }
  /// Lane-wise a > b (false when either lane is NaN).
  friend Mask gt_f(F32xN a, F32xN b) {
    static_assert(N <= 64, "one mask bit per lane");
    Mask m = 0;
    for (int i = 0; i < N; ++i)
      if (a.v[i] > b.v[i]) m |= Mask{1} << i;
    return m;
  }
  /// Lane-wise m ? a : b.
  friend F32xN select_f(Mask m, F32xN a, F32xN b) {
    F32xN r;
    for (int i = 0; i < N; ++i) r.v[i] = (m >> i) & 1 ? a.v[i] : b.v[i];
    return r;
  }
  /// Lanes holding small integer codes 0..15 packed one nibble per lane:
  /// lane j lands in bits 4j..4j+3 of the result.
  friend std::uint64_t pack_nibbles(F32xN a) {
    static_assert(N <= 16, "one nibble per lane in 64 bits");
    std::uint64_t r = 0;
    for (int i = 0; i < N; ++i)
      r |= static_cast<std::uint64_t>(static_cast<int>(a.v[i])) << (4 * i);
    return r;
  }
};

/// The 128-bit widths: the portable tier's lane classes (the same
/// geometry as SSE2, so a forced portable run is bit-identical to it).
using U8x16 = U8xN<16>;
using I16x8 = I16xN<8>;
using F32x4 = F32xN<4>;

}  // namespace finehmm::cpu
