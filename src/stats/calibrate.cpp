#include "stats/calibrate.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bio/synthetic.hpp"
#include "cpu/generic.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/vit_filter.hpp"
#include "util/error.hpp"

namespace finehmm::stats {

ModelStats calibrate(const hmm::SearchProfile& prof,
                     const profile::MsvProfile& msv,
                     const profile::VitProfile& vit,
                     const CalibrateOptions& opts) {
  FH_REQUIRE(opts.n_samples >= 10, "need at least 10 calibration samples");
  FH_REQUIRE(opts.sample_length >= 10, "calibration length too short");
  const int n = opts.n_samples;
  const int L = opts.sample_length;
  const std::size_t len = static_cast<std::size_t>(L);

  // Draw every sample first (same RNG order as one draw per score), back
  // to back, so the Forward can score them a lane-width batch at a time.
  Pcg32 rng(opts.seed);
  std::vector<std::uint8_t> samples(static_cast<std::size_t>(n) * len);
  for (int i = 0; i < n; ++i) {
    const auto seq = bio::random_sequence(L, rng);
    std::copy(seq.codes.begin(), seq.codes.end(),
              samples.begin() + static_cast<std::ptrdiff_t>(i * len));
  }

  std::vector<double> ssv_bits, msv_bits, vit_bits, fwd_bits;
  ssv_bits.reserve(n);
  msv_bits.reserve(n);
  vit_bits.reserve(n);

  cpu::MsvFilter msv_filter(msv);
  cpu::VitFilter vit_filter(vit);
  for (int i = 0; i < n; ++i) {
    const std::uint8_t* seq = samples.data() + i * len;
    // Random sequences should never overflow the byte filter; if one does,
    // byte_bits caps it at the overflow ceiling to keep the fit finite.
    msv_bits.push_back(cpu::byte_bits(msv, msv_filter.score(seq, len), L));
    ssv_bits.push_back(cpu::byte_bits(msv, msv_filter.ssv(seq, len), L));
    vit_bits.push_back(
        hmm::nats_to_bits(vit_filter.score(seq, len).score_nats, L));
  }

  if (opts.with_forward) {
    std::vector<float> fwd(static_cast<std::size_t>(n));
    cpu::generic_forward_batch(prof, samples.data(), fwd.size(), len,
                               fwd.data());
    fwd_bits.reserve(n);
    for (float f : fwd) fwd_bits.push_back(hmm::nats_to_bits(f, L));
  }

  ModelStats out;
  out.ssv = Gumbel::fit_mu_given_lambda(ssv_bits);
  out.msv = Gumbel::fit_mu_given_lambda(msv_bits);
  out.vit = Gumbel::fit_mu_given_lambda(vit_bits);
  if (opts.with_forward)
    out.fwd = ExponentialTail::fit_tail(fwd_bits, opts.fwd_tail_mass);
  return out;
}

}  // namespace finehmm::stats
