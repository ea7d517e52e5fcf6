// The 16-bit ViterbiFilter profile (HMMER 3.0's word scoring system).
//
// Scores are signed 16-bit words in 1/500-bit units (scale = 500/ln2 per
// nat) relative to a base of 12000.  -32768 is the "-infinity" sentinel and
// is sticky under the library-wide saturating add (see sat_add_word): once
// a path is impossible it stays impossible.  Unlike the byte MSV profile,
// word precision is fine enough to charge the N/C/J loop costs exactly, so
// no constant-correction fudge is needed at score recovery.
//
// Layout: per-position arrays indexed by model position, padded to whole
// warp chunks (the GPU layout).  "Incoming" transitions (tmm/tim/tdm into
// position k) and "outgoing" ones (tmd/tdd leaving position k) are kept
// separately because the D recurrence propagates within the row.  The
// CPU SIMD filter reads them striped for its tier's lane count
// (cpu::VitStripes in cpu/stripes.hpp).
#pragma once

#include <cstdint>

#include "hmm/profile.hpp"
#include "util/aligned.hpp"

namespace finehmm::profile {

/// -infinity sentinel of the word scoring system.
inline constexpr std::int16_t kWordNegInf = -32768;

/// Saturating signed-16 add with a sticky -inf floor.  Every Viterbi
/// implementation in the library (scalar, striped, SIMT) uses this exact
/// function so their scores agree bit-for-bit.
inline std::int16_t sat_add_word(std::int16_t a, std::int16_t b) {
  if (a == kWordNegInf || b == kWordNegInf) return kWordNegInf;
  int v = static_cast<int>(a) + static_cast<int>(b);
  if (v < -32767) return -32767;  // reserve -32768 for -inf proper
  if (v > 32767) return 32767;
  return static_cast<std::int16_t>(v);
}

class VitProfile {
 public:
  static constexpr std::int16_t kBase = 12000;

  VitProfile() = default;
  explicit VitProfile(const hmm::SearchProfile& prof);

  int length() const noexcept { return M_; }
  /// Model length rounded up to whole warp chunks (32); GPU linear arrays
  /// are padded to this with -inf so warp loads never need masking.
  int padded_length() const noexcept { return Mpad_; }
  int target_length() const noexcept { return L_; }
  float scale() const noexcept { return scale_; }

  void reconfig_length(int L);

  /// Length model word costs for one target length (pure; filters call
  /// this per sequence instead of mutating the profile).
  struct LengthModel {
    std::int16_t loop;  // N/C/J self loop
    std::int16_t move;  // N/C/J move (N->B, J->B, C->T)
  };
  LengthModel length_model_for(int L) const;

  /// --- linear (per-position) accessors; k is 1-based ---
  std::int16_t msc(int x, int k) const {
    return msc_[static_cast<std::size_t>(x) * Mpad_ + (k - 1)];
  }
  const std::int16_t* msc_row(int x) const {
    return msc_.data() + static_cast<std::size_t>(x) * Mpad_;
  }
  /// Incoming transition costs into position k (from node k-1).
  std::int16_t tmm_in(int k) const { return tmm_[k - 1]; }
  std::int16_t tim_in(int k) const { return tim_[k - 1]; }
  std::int16_t tdm_in(int k) const { return tdm_[k - 1]; }
  const std::int16_t* tmm_data() const { return tmm_.data(); }
  const std::int16_t* tim_data() const { return tim_.data(); }
  const std::int16_t* tdm_data() const { return tdm_.data(); }
  /// Costs at node k: M->I and I->I (inserts exist for k = 1..M-1).
  std::int16_t tmi_at(int k) const { return tmi_[k - 1]; }
  std::int16_t tii_at(int k) const { return tii_[k - 1]; }
  const std::int16_t* tmi_data() const { return tmi_.data(); }
  const std::int16_t* tii_data() const { return tii_.data(); }
  /// Costs leaving node k toward D_{k+1}.
  std::int16_t tmd_out(int k) const { return tmd_[k - 1]; }
  std::int16_t tdd_out(int k) const { return tdd_[k - 1]; }
  const std::int16_t* tmd_data() const { return tmd_.data(); }
  const std::int16_t* tdd_data() const { return tdd_.data(); }
  /// Target-indexed variants for the warp kernels: cost of reaching D_k
  /// from M_{k-1} / D_{k-1} stored at index k-1 (so a warp chunk starting
  /// at position p0 loads index p0+lane directly).
  const std::int16_t* tmd_in_data() const { return tmd_in_.data(); }
  const std::int16_t* tdd_in_data() const { return tdd_in_.data(); }

  /// Uniform local entry cost (B -> M_k).
  std::int16_t entry() const noexcept { return entry_; }

  /// Special-state word costs of the length model.
  std::int16_t n_loop() const noexcept { return n_loop_; }
  std::int16_t n_move() const noexcept { return n_move_; }
  std::int16_t e_c() const noexcept { return e_c_; }
  std::int16_t e_j() const noexcept { return e_j_; }
  std::int16_t c_loop() const noexcept { return c_loop_; }
  std::int16_t c_move() const noexcept { return c_move_; }
  std::int16_t j_loop() const noexcept { return j_loop_; }
  std::int16_t j_move() const noexcept { return j_move_; }

  /// Total parameter bytes (shared-memory staging size on a GPU): the
  /// padded emission table plus the seven padded transition arrays the
  /// kernel actually reads.
  std::size_t parameter_bytes() const noexcept {
    return (msc_.size() + tmm_.size() + tim_.size() + tdm_.size() +
            tmi_.size() + tii_.size() + tmd_in_.size() + tdd_in_.size()) *
           sizeof(std::int16_t);
  }

  /// Convert a final xC word to a raw score in nats (-inf if no path).
  /// The C->T move cost of the given length model is charged here.
  float score_from_words(std::int16_t xC, const LengthModel& lm) const {
    if (xC == kWordNegInf) return kNegInf;
    std::int16_t final = sat_add_word(xC, lm.move);
    return (static_cast<float>(final) - static_cast<float>(kBase)) / scale_;
  }
  float score_from_words(std::int16_t xC) const {
    return score_from_words(xC, LengthModel{c_loop_, c_move_});
  }

 private:
  std::int16_t wordify(float sc) const;

  int M_ = 0;
  int Mpad_ = 0;
  int L_ = 0;
  float scale_ = 0.0f;
  std::int16_t entry_ = kWordNegInf;
  std::int16_t n_loop_ = 0, n_move_ = 0, e_c_ = 0, e_j_ = 0;
  std::int16_t c_loop_ = 0, c_move_ = 0, j_loop_ = 0, j_move_ = 0;

  aligned_vector<std::int16_t> msc_;  // Kp x Mpad
  aligned_vector<std::int16_t> tmm_, tim_, tdm_;  // incoming, size Mpad
  aligned_vector<std::int16_t> tmi_, tii_;        // at-node,  size Mpad
  aligned_vector<std::int16_t> tmd_, tdd_;        // outgoing, size Mpad
  aligned_vector<std::int16_t> tmd_in_, tdd_in_;  // target-indexed, Mpad
};

}  // namespace finehmm::profile
