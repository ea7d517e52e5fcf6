// Tier-equivalence: every compiled-and-supported SIMD tier must produce
// bit-identical filter scores.
//
// The dispatcher (cpu/simd_backend/simd_tier.hpp) promises that portable,
// SSE2 and AVX2 tiers are interchangeable — a database scan may resolve
// to any of them depending on host and FINEHMM_SIMD, and hit lists must
// not move.  These tests pin that promise against the scalar references
// for model lengths spanning one stripe (M=48) to many (M=2405), on
// random sequences and on adversarial ones built to hit the saturation
// edges (byte overflow in MSV, word clamping in ViterbiFilter).
//
// Tiers the host cannot run are skipped, not failed: the portable tier is
// the specification and is always exercised.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "bio/synthetic.hpp"
#include "cpu/fwd_filter.hpp"
#include "cpu/generic.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/msv_scalar.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/ssv.hpp"
#include "cpu/stripes.hpp"
#include "cpu/vit_filter.hpp"
#include "cpu/vit_scalar.hpp"
#include "hmm/generator.hpp"
#include "hmm/profile.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"

namespace {

using namespace finehmm;
using cpu::SimdTier;

struct Fixture {
  hmm::Plan7Hmm model;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;
  profile::VitProfile vit;
  profile::FwdProfile fwd;

  explicit Fixture(int M, std::uint64_t seed = 7)
      : model([&] {
          hmm::RandomHmmSpec spec;
          spec.length = M;
          spec.seed = seed;
          return hmm::generate_hmm(spec);
        }()),
        prof(model, hmm::AlignMode::kLocalMultihit, 400),
        msv(prof),
        vit(prof),
        fwd(prof) {}
};

/// The sequences every tier is checked on: random draws, plus the
/// saturation-edge cases — L=1, a short all-same-residue run, and a long
/// repeat of the residue the model scores best (argmin byte emission
/// cost), which drives the byte MSV into overflow and the word Viterbi
/// toward its clamp.
std::vector<bio::Sequence> test_sequences(const Fixture& fx) {
  Pcg32 rng(99);
  std::vector<bio::Sequence> seqs;
  for (int rep = 0; rep < 6; ++rep)
    seqs.push_back(bio::random_sequence(1 + rng.below(500), rng));
  seqs.push_back(bio::random_sequence(1, rng));

  int best = 0;
  long best_cost = -1;
  for (int x = 0; x < bio::kK; ++x) {
    const std::uint8_t* row = fx.msv.linear_row(x);
    long cost = 0;
    for (int k = 0; k < fx.msv.length(); ++k) cost += row[k];
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best = x;
    }
  }
  bio::Sequence hot;
  hot.name = "hot";
  hot.codes.assign(900, static_cast<std::uint8_t>(best));
  seqs.push_back(hot);
  bio::Sequence same;
  same.name = "same";
  same.codes.assign(40, 3);
  seqs.push_back(same);
  return seqs;
}

class TierEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TierEquivalence, MsvMatchesScalarAtEverySupportedTier) {
  Fixture fx(GetParam());
  auto seqs = test_sequences(fx);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::MsvFilter filter(fx.msv, tier);
    ASSERT_EQ(filter.tier(), tier);
    for (const auto& seq : seqs) {
      auto ref = cpu::msv_scalar(fx.msv, seq.codes.data(), seq.length());
      auto got = filter.score(seq.codes.data(), seq.length());
      EXPECT_EQ(ref.overflowed, got.overflowed)
          << "tier=" << cpu::simd_tier_name(tier) << " L=" << seq.length();
      EXPECT_FLOAT_EQ(ref.score_nats, got.score_nats)
          << "tier=" << cpu::simd_tier_name(tier) << " L=" << seq.length();
    }
  }
}

TEST_P(TierEquivalence, SsvMatchesScalarAtEverySupportedTier) {
  Fixture fx(GetParam());
  auto seqs = test_sequences(fx);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::set_simd_tier(tier);
    for (const auto& seq : seqs) {
      auto ref = cpu::ssv_scalar(fx.msv, seq.codes.data(), seq.length());
      auto got = cpu::ssv_striped(fx.msv, seq.codes.data(), seq.length());
      EXPECT_EQ(ref.overflowed, got.overflowed)
          << "tier=" << cpu::simd_tier_name(tier) << " L=" << seq.length();
      EXPECT_FLOAT_EQ(ref.score_nats, got.score_nats)
          << "tier=" << cpu::simd_tier_name(tier) << " L=" << seq.length();
    }
  }
  cpu::reset_simd_tier();
}

TEST_P(TierEquivalence, ViterbiMatchesScalarAtEverySupportedTier) {
  Fixture fx(GetParam());
  auto seqs = test_sequences(fx);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::VitFilter filter(fx.vit, tier);
    ASSERT_EQ(filter.tier(), tier);
    for (const auto& seq : seqs) {
      auto ref = cpu::vit_scalar(fx.vit, seq.codes.data(), seq.length());
      auto got = filter.score(seq.codes.data(), seq.length());
      EXPECT_FLOAT_EQ(ref.score_nats, got.score_nats)
          << "tier=" << cpu::simd_tier_name(tier) << " L=" << seq.length();
    }
  }
}

// Forward runs natively at every tier's width.  The 4-lane tiers
// (portable, SSE2) share one summation order and must agree to the last
// bit; wider tiers reassociate the probability-space sums, so they carry
// the documented log-sum tolerance instead (docs/simd_dispatch.md,
// "Numerical contract").  Viterbi-class kernels stay bit-exact at every
// width — that is pinned by the max/add tests above.
float fwd_tier_tolerance(std::size_t L) {
  return 0.02f + 1e-4f * static_cast<float>(L);
}

TEST_P(TierEquivalence, ForwardRunsNativelyAtEveryTierWidth) {
  Fixture fx(GetParam());
  auto seqs = test_sequences(fx);
  cpu::FwdFilter portable(fx.fwd, SimdTier::kPortable);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::FwdFilter filter(fx.fwd, tier);
    EXPECT_EQ(filter.tier(), tier);  // no clamp: every tier runs natively
    for (const auto& seq : seqs) {
      float ref = portable.score(seq.codes.data(), seq.length());
      float got = filter.score(seq.codes.data(), seq.length());
      if (tier <= SimdTier::kSse2)
        EXPECT_EQ(ref, got) << "tier=" << cpu::simd_tier_name(tier)
                            << " L=" << seq.length();
      else
        EXPECT_NEAR(ref, got, fwd_tier_tolerance(seq.length()))
            << "tier=" << cpu::simd_tier_name(tier) << " L=" << seq.length();
    }
  }
}

// fwd_striped() honors the active-tier override (the AVX2->SSE2 clamp is
// gone): forcing each supported tier must reproduce that tier's
// FwdFilter score exactly — same table entry, same re-striping.
TEST_P(TierEquivalence, FwdStripedHonorsActiveTierOverride) {
  Fixture fx(GetParam());
  auto seqs = test_sequences(fx);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::set_simd_tier(tier);
    cpu::FwdFilter filter(fx.fwd, tier);
    for (const auto& seq : seqs) {
      float want = filter.score(seq.codes.data(), seq.length());
      float got = cpu::fwd_striped(fx.fwd, seq.codes.data(), seq.length());
      EXPECT_EQ(want, got) << "tier=" << cpu::simd_tier_name(tier)
                           << " L=" << seq.length();
    }
  }
  cpu::reset_simd_tier();
}

// A new profile built at the address of a freed one must not be scored
// with the old one's stripes: fwd_striped once cached its wide re-striping
// by profile address and returned the first model's score for the second.
TEST(TierEquivalenceRegression, FwdStripedRestripesAProfileAtAReusedAddress) {
  const hmm::Plan7Hmm models[2] = {hmm::paper_model(200),
                                   hmm::paper_model(201)};
  const hmm::SearchProfile profs[2] = {
      {models[0], hmm::AlignMode::kLocalMultihit, 400},
      {models[1], hmm::AlignMode::kLocalMultihit, 400}};
  Pcg32 rng(83);
  const auto seq = bio::random_sequence(300, rng);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::set_simd_tier(tier);
    std::optional<profile::FwdProfile> slot;
    for (const auto& prof : profs) {
      slot.emplace(prof);  // same storage every time
      cpu::FwdFilter filter(*slot, tier);
      EXPECT_EQ(filter.score(seq.codes.data(), seq.length()),
                cpu::fwd_striped(*slot, seq.codes.data(), seq.length()))
          << "tier=" << cpu::simd_tier_name(tier);
    }
  }
  cpu::reset_simd_tier();
}

// The width-templated engines are the portable spec at every width
// (32/64-byte MSV, 16/32-word Viterbi); their scores must match the
// scalar references whichever tier is forced.
TEST_P(TierEquivalence, WideEnginesMatchScalarUnderEveryForcedTier) {
  Fixture fx(GetParam());
  auto seqs = test_sequences(fx);
  cpu::MsvStripes msv32(fx.msv, 32);
  cpu::MsvStripes msv64(fx.msv, 64);
  cpu::VitStripes vit16(fx.vit, 16);
  cpu::VitStripes vit32(fx.vit, 32);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::set_simd_tier(tier);
    for (const auto& seq : seqs) {
      auto mref = cpu::msv_scalar(fx.msv, seq.codes.data(), seq.length());
      auto mgot =
          cpu::msv_striped_wide<32>(fx.msv, msv32, seq.codes.data(),
                                    seq.length());
      EXPECT_EQ(mref.overflowed, mgot.overflowed);
      EXPECT_FLOAT_EQ(mref.score_nats, mgot.score_nats)
          << "tier=" << cpu::simd_tier_name(tier) << " L=" << seq.length();
      auto mgot64 =
          cpu::msv_striped_wide<64>(fx.msv, msv64, seq.codes.data(),
                                    seq.length());
      EXPECT_EQ(mref.overflowed, mgot64.overflowed);
      EXPECT_FLOAT_EQ(mref.score_nats, mgot64.score_nats)
          << "tier=" << cpu::simd_tier_name(tier) << " L=" << seq.length();
      auto vref = cpu::vit_scalar(fx.vit, seq.codes.data(), seq.length());
      auto vgot =
          cpu::vit_striped_wide<16>(fx.vit, vit16, seq.codes.data(),
                                    seq.length());
      EXPECT_FLOAT_EQ(vref.score_nats, vgot.score_nats)
          << "tier=" << cpu::simd_tier_name(tier) << " L=" << seq.length();
      auto vgot32 =
          cpu::vit_striped_wide<32>(fx.vit, vit32, seq.codes.data(),
                                    seq.length());
      EXPECT_FLOAT_EQ(vref.score_nats, vgot32.score_nats)
          << "tier=" << cpu::simd_tier_name(tier) << " L=" << seq.length();
    }
  }
  cpu::reset_simd_tier();
}

INSTANTIATE_TEST_SUITE_P(ModelLengths, TierEquivalence,
                         ::testing::Values(48, 400, 1002, 2405));

TEST(SimdTierApi, ResolveClampsToSupported) {
  for (SimdTier t : {SimdTier::kPortable, SimdTier::kSse2, SimdTier::kAvx2,
                     SimdTier::kAvx512}) {
    SimdTier r = cpu::resolve_simd_tier(t);
    EXPECT_LE(static_cast<int>(r), static_cast<int>(t));
    EXPECT_TRUE(cpu::simd_tier_supported(r));
  }
  EXPECT_EQ(cpu::resolve_simd_tier(SimdTier::kPortable),
            SimdTier::kPortable);
}

TEST(SimdTierApi, OverrideWinsAndResets) {
  cpu::set_simd_tier(SimdTier::kPortable);
  EXPECT_EQ(cpu::active_simd_tier(), SimdTier::kPortable);
  cpu::reset_simd_tier();
  EXPECT_EQ(cpu::active_simd_tier(), cpu::max_simd_tier());
}

TEST(SimdTierApi, ParseNames) {
  EXPECT_EQ(cpu::parse_simd_tier("portable"), SimdTier::kPortable);
  EXPECT_EQ(cpu::parse_simd_tier("sse2"), SimdTier::kSse2);
  EXPECT_EQ(cpu::parse_simd_tier("avx2"), SimdTier::kAvx2);
  EXPECT_EQ(cpu::parse_simd_tier("avx512"), SimdTier::kAvx512);
  EXPECT_FALSE(cpu::parse_simd_tier("sse9").has_value());
  for (SimdTier t : cpu::supported_simd_tiers())
    EXPECT_EQ(cpu::parse_simd_tier(cpu::simd_tier_name(t)), t);
}

TEST(SimdTierApi, SupportedTiersAlwaysIncludePortable) {
  auto tiers = cpu::supported_simd_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), SimdTier::kPortable);
  for (SimdTier t : tiers) EXPECT_TRUE(cpu::simd_tier_supported(t));
}

}  // namespace
