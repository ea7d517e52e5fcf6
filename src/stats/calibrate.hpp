// Per-model statistical calibration, HMMER-style.
//
// hmmbuild calibrates each profile by scoring a few hundred random
// sequences and fitting the location parameter of the null score
// distribution with lambda fixed at log 2.  The resulting (mu, tau)
// let the pipeline convert any filter score into a P-value.
#pragma once

#include "hmm/profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"
#include "stats/distributions.hpp"

namespace finehmm::stats {

/// Calibrated null statistics for one profile.
struct ModelStats {
  Gumbel ssv;           // SSV bit scores of random sequences (extension)
  Gumbel msv;           // MSV bit scores of random sequences
  Gumbel vit;           // ViterbiFilter bit scores
  ExponentialTail fwd;  // Forward bit score tail

  double ssv_pvalue(double bits) const { return ssv.surv(bits); }
  double msv_pvalue(double bits) const { return msv.surv(bits); }
  double vit_pvalue(double bits) const { return vit.surv(bits); }
  double fwd_pvalue(double bits) const { return fwd.surv(bits); }
};

struct CalibrateOptions {
  int n_samples = 200;     // HMMER default
  int sample_length = 100; // HMMER default
  std::uint64_t seed = 0x5eed;
  double fwd_tail_mass = 0.04;
  /// Skip the Forward calibration (the filter-only benchmarks don't need
  /// it).  The Forward runs one sample per SIMD lane and is bitwise the
  /// scalar generic_forward on every tier; it is still most of the time.
  bool with_forward = true;
};

/// Score random background sequences through all three engines and fit.
ModelStats calibrate(const hmm::SearchProfile& prof,
                     const profile::MsvProfile& msv,
                     const profile::VitProfile& vit,
                     const CalibrateOptions& opts = {});

}  // namespace finehmm::stats
