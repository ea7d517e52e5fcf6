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

#include <vector>

#include "cpu/filter_result.hpp"
#include "cpu/simd_backend/kernels.hpp"
#include "cpu/simd_vec.hpp"
#include "profile/msv_profile.hpp"
#include "util/aligned.hpp"

namespace finehmm::cpu {

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

/// N-lane striped MSV; scores are byte-exact with cpu::msv_scalar.  This
/// is the portable specification at width N: the shared
/// simd_kernels::msv_kernel over U8xN<N>.  The native tiers are reached
/// through MsvFilter / backend::tier_kernels.  Scratch is thread-local and
/// grown monotonically, so repeated scans allocate nothing per call.
template <int N>
FilterResult msv_striped_wide(const profile::MsvProfile& prof,
                              const WideMsvStripes<N>& stripes,
                              const std::uint8_t* seq, std::size_t L) {
  const int Q = stripes.segments();
  thread_local std::vector<std::uint8_t> row;
  if (row.size() < static_cast<std::size_t>(Q) * N)
    row.resize(static_cast<std::size_t>(Q) * N);
  return simd_kernels::msv_kernel<U8xN<N>>(prof, stripes.row(0), Q, seq, L,
                                           row.data());
}

}  // namespace finehmm::cpu
