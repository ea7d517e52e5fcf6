// Checkpointed Forward/Backward tier equivalence.
//
// FwdFilter::decode runs the striped probability-space Forward with
// checkpointed rows, then reconstructs each block and sweeps Backward
// over it, producing the per-residue model occupancy (mocc).  These
// tests pin its contract at every compiled-and-supported tier:
//
//   * the score decode returns is bit-identical to FwdFilter::score —
//     the checkpointed forward pass IS the scoring pass, recording rows
//     on the side must not perturb a single float;
//   * the 4-lane tiers (portable, SSE2) agree bit for bit; wider tiers
//     reassociate the probability-space sums and carry the documented
//     log-sum tolerance (docs/simd_dispatch.md, "Numerical contract");
//   * mocc matches the scalar log-space checkpointed decoder
//     (cpu/checkpoint.hpp), which is itself pinned against the full
//     O(M*L) posterior matrices — closing the loop to the reference;
//   * domain envelopes defined from the vector decode match the scalar
//     define_domains path on planted-motif sequences;
//   * a FwdFilter built on shared re-striped stripes (the BatchScanner
//     configuration) scores identically to one that built its own.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bio/synthetic.hpp"
#include "cpu/checkpoint.hpp"
#include "cpu/fwd_filter.hpp"
#include "cpu/posterior.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "hmm/generator.hpp"
#include "hmm/profile.hpp"
#include "hmm/sampler.hpp"
#include "profile/fwd_profile.hpp"

namespace {

using namespace finehmm;
using cpu::SimdTier;

struct Fixture {
  hmm::Plan7Hmm model;
  hmm::SearchProfile prof;
  profile::FwdProfile fwd;

  explicit Fixture(int M, std::uint64_t seed = 7)
      : model([&] {
          hmm::RandomHmmSpec spec;
          spec.length = M;
          spec.seed = seed;
          return hmm::generate_hmm(spec);
        }()),
        prof(model, hmm::AlignMode::kLocalMultihit, 400),
        fwd(prof) {}
};

std::vector<bio::Sequence> test_sequences(const Fixture& fx, int n = 6) {
  Pcg32 rng(41);
  std::vector<bio::Sequence> seqs;
  for (int rep = 0; rep < n; ++rep)
    seqs.push_back(bio::random_sequence(1 + rng.below(400), rng));
  seqs.push_back(bio::random_sequence(1, rng));
  // One true homolog so high-occupancy rows are exercised too.
  seqs.push_back(hmm::sample_homolog(fx.model, rng));
  return seqs;
}

// Tolerances: wide tiers reassociate probability-space sums (score, in
// nats) and the occupancy track is a ratio of two such sums (absolute,
// probabilities in [0, 1]).  Documented in docs/simd_dispatch.md.
float score_tol(std::size_t L) { return 0.02f + 1e-4f * static_cast<float>(L); }
constexpr float kMoccTol = 5e-3f;

class FwdBwdTiers : public ::testing::TestWithParam<int> {};

TEST_P(FwdBwdTiers, DecodeScoreIsBitIdenticalToScore) {
  Fixture fx(GetParam());
  auto seqs = test_sequences(fx);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::FwdFilter filter(fx.fwd, tier);
    std::vector<float> mocc;
    for (const auto& seq : seqs) {
      float want = filter.score(seq.codes.data(), seq.length());
      float got = filter.decode(seq.codes.data(), seq.length(), mocc);
      EXPECT_EQ(want, got) << "tier=" << cpu::simd_tier_name(tier)
                           << " L=" << seq.length();
    }
  }
}

TEST_P(FwdBwdTiers, MoccMatchesScalarCheckpointReference) {
  Fixture fx(GetParam());
  auto seqs = test_sequences(fx, 4);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::FwdFilter filter(fx.fwd, tier);
    std::vector<float> mocc;
    for (const auto& seq : seqs) {
      auto ref = cpu::model_occupancy_checkpointed(fx.prof, seq.codes.data(),
                                                   seq.length());
      filter.decode(seq.codes.data(), seq.length(), mocc);
      ASSERT_GE(mocc.size(), seq.length());
      for (std::size_t i = 0; i < seq.length(); ++i)
        ASSERT_NEAR(ref.mocc[i], mocc[i], kMoccTol)
            << "tier=" << cpu::simd_tier_name(tier) << " L=" << seq.length()
            << " i=" << i;
    }
  }
}

TEST_P(FwdBwdTiers, WideTiersAgreeWithPortableWithinTolerance) {
  Fixture fx(GetParam());
  auto seqs = test_sequences(fx);
  cpu::FwdFilter portable(fx.fwd, SimdTier::kPortable);
  std::vector<float> pmocc, tmocc;
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::FwdFilter filter(fx.fwd, tier);
    for (const auto& seq : seqs) {
      float ref = portable.decode(seq.codes.data(), seq.length(), pmocc);
      float got = filter.decode(seq.codes.data(), seq.length(), tmocc);
      if (tier <= SimdTier::kSse2) {
        // Same lane count, same summation order: bit-identical.
        EXPECT_EQ(ref, got) << "tier=" << cpu::simd_tier_name(tier);
        for (std::size_t i = 0; i < seq.length(); ++i)
          ASSERT_EQ(pmocc[i], tmocc[i])
              << "tier=" << cpu::simd_tier_name(tier) << " i=" << i;
      } else {
        EXPECT_NEAR(ref, got, score_tol(seq.length()))
            << "tier=" << cpu::simd_tier_name(tier);
        for (std::size_t i = 0; i < seq.length(); ++i)
          ASSERT_NEAR(pmocc[i], tmocc[i], kMoccTol)
              << "tier=" << cpu::simd_tier_name(tier) << " i=" << i;
      }
    }
  }
}

TEST_P(FwdBwdTiers, DomainsFromDecodeMatchScalarDefineDomains) {
  Fixture fx(GetParam());
  // 80 random + full homolog core + 80 random: one strong domain.
  Pcg32 rng(19);
  auto flank1 = bio::random_sequence(80, rng);
  hmm::SampleOptions opts;
  opts.fragment_prob = 0.0;
  opts.mean_flank = 1e-9;
  auto core = hmm::sample_homolog(fx.model, rng, opts);
  auto flank2 = bio::random_sequence(80, rng);
  std::vector<std::uint8_t> seq;
  seq.insert(seq.end(), flank1.codes.begin(), flank1.codes.end());
  seq.insert(seq.end(), core.codes.begin(), core.codes.end());
  seq.insert(seq.end(), flank2.codes.begin(), flank2.codes.end());

  auto ref = cpu::define_domains(fx.prof, seq.data(), seq.size());
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::FwdFilter filter(fx.fwd, tier);
    std::vector<float> mocc;
    filter.decode(seq.data(), seq.size(), mocc);
    auto got =
        cpu::domains_from_occupancy(fx.prof, seq.data(), seq.size(),
                                    mocc.data());
    ASSERT_EQ(got.size(), ref.size()) << "tier=" << cpu::simd_tier_name(tier);
    for (std::size_t d = 0; d < ref.size(); ++d) {
      EXPECT_EQ(got[d].i_start, ref[d].i_start)
          << "tier=" << cpu::simd_tier_name(tier);
      EXPECT_EQ(got[d].i_end, ref[d].i_end)
          << "tier=" << cpu::simd_tier_name(tier);
      // Same envelope => same scalar rescore, bit for bit.
      EXPECT_EQ(got[d].bits, ref[d].bits);
    }
  }
}

TEST_P(FwdBwdTiers, SharedStripesScoreIdentically) {
  Fixture fx(GetParam());
  auto seqs = test_sequences(fx, 3);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    const auto& ops = cpu::backend::tier_kernels(cpu::resolve_simd_tier(tier));
    auto shared =
        std::make_shared<const cpu::FwdStripes>(fx.fwd, ops.f32_lanes);
    cpu::FwdFilter own(fx.fwd, tier);
    cpu::FwdFilter borrowed(fx.fwd, tier, shared);
    std::vector<float> mo, mb;
    for (const auto& seq : seqs) {
      EXPECT_EQ(own.score(seq.codes.data(), seq.length()),
                borrowed.score(seq.codes.data(), seq.length()))
          << "tier=" << cpu::simd_tier_name(tier);
      float so = own.decode(seq.codes.data(), seq.length(), mo);
      float sb = borrowed.decode(seq.codes.data(), seq.length(), mb);
      EXPECT_EQ(so, sb);
      for (std::size_t i = 0; i < seq.length(); ++i) ASSERT_EQ(mo[i], mb[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ModelLengths, FwdBwdTiers,
                         ::testing::Values(48, 400, 1002));

}  // namespace
