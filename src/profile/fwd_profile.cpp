#include "profile/fwd_profile.hpp"

#include "util/error.hpp"
#include "util/logspace.hpp"

namespace finehmm::profile {

namespace {

float prob_of(float log_score) {
  return log_score == kNegInf ? 0.0f : std::exp(log_score);
}

}  // namespace

FwdProfile::FwdProfile(const hmm::SearchProfile& prof) : M_(prof.length()) {
  FH_REQUIRE(hmm::is_local(prof.mode()),
             "vectorized filters are local-mode only (as in HMMER)");
  const std::size_t M = static_cast<std::size_t>(M_);
  odds_.assign(static_cast<std::size_t>(bio::kKp) * M, 0.0f);
  for (auto* t : {&tmm_, &tim_, &tdm_, &tmi_, &tii_, &tmd_in_, &tdd_in_})
    t->assign(M, 0.0f);

  for (int x = 0; x < bio::kKp; ++x)
    for (int k = 1; k <= M_; ++k)
      odds_[static_cast<std::size_t>(x) * M + (k - 1)] =
          prob_of(prof.msc(k, x));

  entry_ = prob_of(prof.tsc(0, hmm::kPTBM));

  for (int k = 1; k <= M_; ++k) {
    tmm_[k - 1] = prob_of(prof.tsc(k - 1, hmm::kPTMM));
    tim_[k - 1] = prob_of(prof.tsc(k - 1, hmm::kPTIM));
    tdm_[k - 1] = prob_of(prof.tsc(k - 1, hmm::kPTDM));
    if (k < M_) {
      tmi_[k - 1] = prob_of(prof.tsc(k, hmm::kPTMI));
      tii_[k - 1] = prob_of(prof.tsc(k, hmm::kPTII));
    }
    if (k >= 2) {
      tmd_in_[k - 1] = prob_of(prof.tsc(k - 1, hmm::kPTMD));
      tdd_in_[k - 1] = prob_of(prof.tsc(k - 1, hmm::kPTDD));
    }
  }
}

FwdProfile::LengthModel FwdProfile::length_model_for(int L) const {
  FH_REQUIRE(L >= 1, "target length must be >= 1");
  float lf = static_cast<float>(L);
  LengthModel lm;
  lm.loop = lf / (lf + 3.0f);
  lm.move = 3.0f / (lf + 3.0f);
  lm.e_c = 0.5f;
  lm.e_j = 0.5f;
  return lm;
}

}  // namespace finehmm::profile
