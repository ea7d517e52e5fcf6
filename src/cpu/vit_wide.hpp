// Width-templated striped ViterbiFilter (extension; companion of
// cpu/msv_wide.hpp).
//
// The Farrar/Lazy-F ViterbiFilter re-striped for N int16 lanes (8 = SSE,
// 16 = AVX2, 32 = AVX-512).  All transition stripes are rebuilt from the
// VitProfile's linear arrays; word scores are bit-exact with
// cpu::vit_scalar at every width.
#pragma once

#include <vector>

#include "cpu/filter_result.hpp"
#include "cpu/simd_backend/kernels.hpp"
#include "cpu/simd_vec.hpp"
#include "profile/vit_profile.hpp"
#include "util/aligned.hpp"

namespace finehmm::cpu {

/// All eight parameter stripes re-laid-out for N lanes.
template <int N>
class WideVitStripes {
 public:
  explicit WideVitStripes(const profile::VitProfile& prof)
      : M_(prof.length()), Q_((prof.length() + N - 1) / N) {
    auto stripe = [this](const std::int16_t* lin,
                         aligned_vector<std::int16_t>& out) {
      out.assign(static_cast<std::size_t>(Q_) * N, profile::kWordNegInf);
      for (int k = 1; k <= M_; ++k)
        out[static_cast<std::size_t>((k - 1) % Q_) * N + (k - 1) / Q_] =
            lin[k - 1];
    };
    stripe(prof.tmm_data(), tmm_);
    stripe(prof.tim_data(), tim_);
    stripe(prof.tdm_data(), tdm_);
    stripe(prof.tmi_data(), tmi_);
    stripe(prof.tii_data(), tii_);
    stripe(prof.tmd_data(), tmd_);
    stripe(prof.tdd_data(), tdd_);
    msc_.assign(static_cast<std::size_t>(bio::kKp) * Q_ * N,
                profile::kWordNegInf);
    for (int x = 0; x < bio::kKp; ++x) {
      const std::int16_t* lin = prof.msc_row(x);
      for (int k = 1; k <= M_; ++k)
        msc_[(static_cast<std::size_t>(x) * Q_ + (k - 1) % Q_) * N +
             (k - 1) / Q_] = lin[k - 1];
    }
  }
  int segments() const noexcept { return Q_; }
  const std::int16_t* msc(int x) const {
    return msc_.data() + static_cast<std::size_t>(x) * Q_ * N;
  }
  const std::int16_t* tmm() const { return tmm_.data(); }
  const std::int16_t* tim() const { return tim_.data(); }
  const std::int16_t* tdm() const { return tdm_.data(); }
  const std::int16_t* tmi() const { return tmi_.data(); }
  const std::int16_t* tii() const { return tii_.data(); }
  const std::int16_t* tmd() const { return tmd_.data(); }
  const std::int16_t* tdd() const { return tdd_.data(); }

  /// The raw-pointer view the shared Viterbi kernel consumes.
  simd_kernels::VitStripesView view() const {
    simd_kernels::VitStripesView st;
    st.msc = msc_.data();
    st.tmm = tmm_.data();
    st.tim = tim_.data();
    st.tdm = tdm_.data();
    st.tmi = tmi_.data();
    st.tii = tii_.data();
    st.tmd = tmd_.data();
    st.tdd = tdd_.data();
    st.Q = Q_;
    return st;
  }

 private:
  int M_;
  int Q_;
  aligned_vector<std::int16_t> msc_, tmm_, tim_, tdm_, tmi_, tii_, tmd_,
      tdd_;
};

/// N-lane ViterbiFilter with Lazy-F; bit-exact with cpu::vit_scalar.  This
/// is the portable specification at width N: the shared
/// simd_kernels::vit_kernel over I16xN<N>.  The native tiers are reached
/// through VitFilter / backend::tier_kernels.  Scratch is thread-local and
/// grown monotonically, so repeated scans allocate nothing per call.
template <int N>
FilterResult vit_striped_wide(const profile::VitProfile& prof,
                              const WideVitStripes<N>& st,
                              const std::uint8_t* seq, std::size_t L) {
  const std::size_t n = static_cast<std::size_t>(st.segments()) * N;
  thread_local std::vector<std::int16_t> mmx, imx, dmx;
  if (mmx.size() < n) {
    mmx.resize(n);
    imx.resize(n);
    dmx.resize(n);
  }
  return simd_kernels::vit_kernel<I16xN<N>>(prof, st.view(), seq, L,
                                            mmx.data(), imx.data(),
                                            dmx.data());
}

}  // namespace finehmm::cpu
