// Width-templated striped MSV filter (extension).
//
// HMMER 3.0 shipped 16-lane SSE; later releases re-striped the same
// algorithm for AVX2 (32 lanes) and AVX-512 (64 lanes).  The Farrar
// striping generalizes cleanly — position k lives in stripe (k-1)%Q, lane
// (k-1)/Q with Q = ceil(M/N) — and this header provides the whole family
// as a template, byte-exact with the scalar reference at every width.
// The portable lane loops vectorize to whatever the host ISA offers; the
// template is the specification an intrinsic port would be tested
// against.
#pragma once

#include <cstring>
#include <limits>
#include <vector>

#include "cpu/filter_result.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "profile/msv_profile.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"

namespace finehmm::cpu {

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
  static U8xN load(const std::uint8_t* p) {
    U8xN r;
    std::memcpy(r.v, p, N);
    return r;
  }
  void store(std::uint8_t* p) const { std::memcpy(p, v, N); }
};

template <int N>
inline U8xN<N> max_u8(U8xN<N> a, U8xN<N> b) {
  U8xN<N> r;
  for (int i = 0; i < N; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
}
template <int N>
inline U8xN<N> adds_u8(U8xN<N> a, U8xN<N> b) {
  U8xN<N> r;
  for (int i = 0; i < N; ++i) {
    unsigned s = unsigned(a.v[i]) + unsigned(b.v[i]);
    r.v[i] = s > 255u ? 255u : std::uint8_t(s);
  }
  return r;
}
template <int N>
inline U8xN<N> subs_u8(U8xN<N> a, U8xN<N> b) {
  U8xN<N> r;
  for (int i = 0; i < N; ++i)
    r.v[i] = a.v[i] > b.v[i] ? std::uint8_t(a.v[i] - b.v[i]) : 0;
  return r;
}
template <int N>
inline U8xN<N> shift_lanes_up(U8xN<N> a) {
  U8xN<N> r;
  r.v[0] = 0;
  for (int i = 1; i < N; ++i) r.v[i] = a.v[i - 1];
  return r;
}
template <int N>
inline std::uint8_t hmax_u8(U8xN<N> a) {
  std::uint8_t m = 0;
  for (auto e : a.v)
    if (e > m) m = e;
  return m;
}
/// True if a > b (unsigned) in any lane.
template <int N>
inline bool any_gt_u8(U8xN<N> a, U8xN<N> b) {
  bool any = false;
  for (int i = 0; i < N; ++i) any |= a.v[i] > b.v[i];
  return any;
}

/// Emission costs re-striped for an N-lane engine, built once per model
/// from the MsvProfile's linear (position-ordered) costs.
template <int N>
class WideMsvStripes {
 public:
  explicit WideMsvStripes(const profile::MsvProfile& prof)
      : M_(prof.length()), Q_((prof.length() + N - 1) / N) {
    rows_.assign(static_cast<std::size_t>(bio::kKp) * Q_ * N, 255);
    for (int x = 0; x < bio::kKp; ++x) {
      const std::uint8_t* lin = prof.linear_row(x);
      for (int k = 1; k <= M_; ++k) {
        int q = (k - 1) % Q_;
        int j = (k - 1) / Q_;
        rows_[(static_cast<std::size_t>(x) * Q_ + q) * N + j] = lin[k - 1];
      }
    }
  }
  int segments() const noexcept { return Q_; }
  const std::uint8_t* row(int x) const {
    return rows_.data() + static_cast<std::size_t>(x) * Q_ * N;
  }

 private:
  int M_;
  int Q_;
  aligned_vector<std::uint8_t> rows_;
};

/// N-lane striped MSV; scores are byte-exact with cpu::msv_scalar.  The
/// body is the shared simd_kernels::msv_kernel; the 32-lane instance is
/// routed to the native AVX2 backend when the host supports it (the
/// portable template remains the specification and the fallback).
/// Scratch is thread-local and grown monotonically, so repeated scans
/// allocate nothing per call.
template <int N>
FilterResult msv_striped_wide(const profile::MsvProfile& prof,
                              const WideMsvStripes<N>& stripes,
                              const std::uint8_t* seq, std::size_t L) {
  const int Q = stripes.segments();
  thread_local std::vector<std::uint8_t> row;
  if (row.size() < static_cast<std::size_t>(Q) * N)
    row.resize(static_cast<std::size_t>(Q) * N);
  if constexpr (N == 32) {
    if (backend::have_avx2() && active_simd_tier() == SimdTier::kAvx2)
      return backend::msv_avx2(prof, stripes.row(0), Q, seq, L, row.data());
  }
  if constexpr (N == 64) {
    if (backend::have_avx512() && active_simd_tier() == SimdTier::kAvx512)
      return backend::msv_avx512(prof, stripes.row(0), Q, seq, L,
                                 row.data());
  }
  return simd_kernels::msv_kernel<U8xN<N>>(prof, stripes.row(0), Q, seq, L,
                                           row.data());
}

}  // namespace finehmm::cpu
