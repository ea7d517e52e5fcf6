// Width-generic striped Forward/Backward parameters (companion of
// cpu/msv_wide.hpp and cpu/vit_wide.hpp).
//
// WideFwdStripes re-stripes the FwdProfile's probability-space
// parameters for a tier's lane count at runtime — including the
// out-indexed transition arrays the Backward pass consumes — and hands
// the kernels a raw-pointer FwdStripesView.  The portable float lane
// class for any width is cpu::F32xN (cpu/simd_vec.hpp).
#pragma once

#include "cpu/simd_backend/kernels.hpp"
#include "profile/fwd_profile.hpp"
#include "util/aligned.hpp"

namespace finehmm::cpu {

/// The FwdProfile's parameters re-striped for one lane count, chosen at
/// runtime from the tier's float width (4/8/16).  Builds both the
/// in-indexed stripes Forward reads and the out-indexed stripes Backward
/// reads (slot(k) holds the k -> k+1 probability, zero at k = M), so one
/// object serves scoring and checkpointed decoding on every tier.
class WideFwdStripes {
 public:
  WideFwdStripes(const profile::FwdProfile& prof, int lanes)
      : M_(prof.length()),
        N_(lanes),
        Q_(profile::fwd_segments_for(prof.length(), lanes)) {
    const std::size_t row = static_cast<std::size_t>(Q_) * N_;
    auto slot = [this](int k) {
      return static_cast<std::size_t>((k - 1) % Q_) * N_ + (k - 1) / Q_;
    };

    odds_.assign(static_cast<std::size_t>(bio::kKp) * row, 0.0f);
    for (int x = 0; x < bio::kKp; ++x)
      for (int k = 1; k <= M_; ++k)
        odds_[static_cast<std::size_t>(x) * row + slot(k)] =
            prof.odds_at(x, k);

    auto stripe_in = [&](aligned_vector<float>& out, auto&& at) {
      out.assign(row, 0.0f);
      for (int k = 1; k <= M_; ++k) out[slot(k)] = at(k);
    };
    stripe_in(tmm_, [&](int k) { return prof.tmm_at(k); });
    stripe_in(tim_, [&](int k) { return prof.tim_at(k); });
    stripe_in(tdm_, [&](int k) { return prof.tdm_at(k); });
    stripe_in(tmi_, [&](int k) { return prof.tmi_at(k); });
    stripe_in(tii_, [&](int k) { return prof.tii_at(k); });
    stripe_in(tmd_, [&](int k) { return prof.tmd_in_at(k); });
    stripe_in(tdd_, [&](int k) { return prof.tdd_in_at(k); });

    // Out-indexed: slot(k) <- the in-indexed value at k+1; position M
    // (and padding) keeps zero, terminating every Backward chain.
    auto stripe_out = [&](aligned_vector<float>& out, auto&& at) {
      out.assign(row, 0.0f);
      for (int k = 1; k < M_; ++k) out[slot(k)] = at(k + 1);
    };
    stripe_out(tmm_out_, [&](int k) { return prof.tmm_at(k); });
    stripe_out(tim_out_, [&](int k) { return prof.tim_at(k); });
    stripe_out(tdm_out_, [&](int k) { return prof.tdm_at(k); });
    stripe_out(tmd_out_, [&](int k) { return prof.tmd_in_at(k); });
    stripe_out(tdd_out_, [&](int k) { return prof.tdd_in_at(k); });

    entry_ = prof.entry();
  }

  int lanes() const noexcept { return N_; }
  int segments() const noexcept { return Q_; }
  std::size_t row_floats() const noexcept {
    return static_cast<std::size_t>(Q_) * N_;
  }

  /// The raw-pointer view the shared Forward/Backward kernels consume.
  simd_kernels::FwdStripesView view() const {
    simd_kernels::FwdStripesView st;
    st.odds = odds_.data();
    st.tmm = tmm_.data();
    st.tim = tim_.data();
    st.tdm = tdm_.data();
    st.tmi = tmi_.data();
    st.tii = tii_.data();
    st.tmd = tmd_.data();
    st.tdd = tdd_.data();
    st.tmm_out = tmm_out_.data();
    st.tim_out = tim_out_.data();
    st.tdm_out = tdm_out_.data();
    st.tmd_out = tmd_out_.data();
    st.tdd_out = tdd_out_.data();
    st.entry = entry_;
    st.Q = Q_;
    return st;
  }

 private:
  int M_;
  int N_;
  int Q_;
  float entry_ = 0.0f;
  aligned_vector<float> odds_;
  aligned_vector<float> tmm_, tim_, tdm_, tmi_, tii_, tmd_, tdd_;
  aligned_vector<float> tmm_out_, tim_out_, tdm_out_, tmd_out_, tdd_out_;
};

}  // namespace finehmm::cpu
