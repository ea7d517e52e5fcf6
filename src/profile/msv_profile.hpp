// The 8-bit MSV filter profile (HMMER 3.0's byte scoring system).
//
// Scores are kept in 1/3-bit units (scale = 3/ln2 per nat) as *costs*
// offset by a bias so that a saturating unsigned-byte DP can evaluate the
// MSV model: cell update is  new = sat_sub(sat_add(old, bias), cost).
// The byte DP cannot afford per-row N/C/J loop costs (they round to zero at
// this precision), so like HMMER it prices them with a constant -3 nat
// correction (the L->inf limit of L*log(L/(L+3))) applied at score
// recovery.
//
// Layout: per-position costs, cost[x][k], padded to whole warp chunks
// (what the GPU kernels stream from "global memory").  The CPU SIMD
// filters read them striped for their tier's lane count
// (cpu::MsvStripes in cpu/stripes.hpp).
#pragma once

#include <cstdint>

#include "hmm/profile.hpp"
#include "util/aligned.hpp"

namespace finehmm::profile {

class MsvProfile {
 public:
  static constexpr std::uint8_t kBase = 190;

  MsvProfile() = default;
  explicit MsvProfile(const hmm::SearchProfile& prof);

  int length() const noexcept { return M_; }
  /// Model length rounded up to a whole number of warp chunks (32); the
  /// GPU linear layout is padded to this with cost 255 ("wasteful cells")
  /// so warp loads never need masking.
  int padded_length() const noexcept { return Mpad_; }
  int target_length() const noexcept { return L_; }
  float scale() const noexcept { return scale_; }
  std::uint8_t base() const noexcept { return kBase; }
  std::uint8_t bias() const noexcept { return bias_; }
  std::uint8_t tbm() const noexcept { return tbm_; }
  std::uint8_t tec() const noexcept { return tec_; }
  std::uint8_t tjb() const noexcept { return tjb_; }

  /// Re-derive the length-dependent move cost (N/J -> B and C -> T).
  void reconfig_length(int L);

  /// Pure per-length variant of tjb (filters call this with each target
  /// sequence's length; the stored tjb() is just the configured default).
  std::uint8_t tjb_for(int L) const;

  /// Linear biased emission cost of code x at model position k (1..M).
  std::uint8_t cost(int x, int k) const {
    return linear_[static_cast<std::size_t>(x) * Mpad_ + (k - 1)];
  }
  /// Row pointer for a residue code, length padded_length() (GPU layout).
  const std::uint8_t* linear_row(int x) const {
    return linear_.data() + static_cast<std::size_t>(x) * Mpad_;
  }

  /// Total parameter bytes (what a GPU would stage into shared memory).
  std::size_t parameter_bytes() const noexcept { return linear_.size(); }

  /// True if the row maximum xE saturated; the sequence certainly passes.
  bool overflowed(std::uint8_t xE) const noexcept {
    return xE >= 255 - bias_;
  }

  /// Convert the final xJ byte back to a raw score in nats, for a target
  /// of length L (the C->T move costs the same tjb as N/J -> B).
  float score_from_bytes(std::uint8_t xJ, int L) const {
    return (static_cast<float>(xJ) - static_cast<float>(tjb_for(L)) -
            static_cast<float>(kBase)) /
               scale_ -
           3.0f;
  }
  float score_from_bytes(std::uint8_t xJ) const {
    return score_from_bytes(xJ, L_);
  }

 private:
  int M_ = 0;
  int Mpad_ = 0;
  int L_ = 0;
  float scale_ = 0.0f;
  std::uint8_t bias_ = 0;
  std::uint8_t tbm_ = 0;  // B -> M_k entry cost (uniform 2/(M(M+1)))
  std::uint8_t tec_ = 0;  // E -> C/J cost (log 1/2)
  std::uint8_t tjb_ = 0;  // N/J -> B move cost (log 3/(L+3))
  aligned_vector<std::uint8_t> linear_;  // Kp x Mpad
};

}  // namespace finehmm::profile
