// Striped traceback: at every supported SIMD tier, the workspace
// viterbi_trace (simd_kernels::trace_kernel) must reproduce the scalar
// reference trace bit for bit — score, and every step's state, k and i.
//
// The model sizes cover one stripe and the lane-count edges of every
// float width (N-1, N, N+1 and 2N+1 for N = 4, 8 and 16), plus paper
// sizes up to 1002; sequence lengths run from 1 to past 2000; profiles
// are local and glocal; sequences are homologs, random, and made only of
// degenerate residue codes.  A gappy model (long, likely delete runs)
// drives the Lazy-F wrap passes across many lanes.  Workspaces are
// reused across growing and shrinking (M, L) and across different models
// of equal M, including one rebuilt at the same address.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bio/alphabet.hpp"
#include "bio/synthetic.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/trace.hpp"
#include "hmm/generator.hpp"
#include "hmm/profile.hpp"
#include "hmm/sampler.hpp"

namespace {

using namespace finehmm;
using cpu::SimdTier;

/// Union over the float widths 4, 8 and 16 of {1, 2, N-1, N, N+1, 2N+1},
/// plus 48, 400 and 1002.
const std::vector<int> kModelSizes = {1,  2,  3,  4,  5,  7,   8,   9,
                                      15, 16, 17, 33, 48, 400, 1002};
const std::size_t kLengths[] = {1, 2, 3, 17, 2100};

hmm::Plan7Hmm make_model(int M, std::uint64_t seed, bool gappy) {
  hmm::RandomHmmSpec spec;
  spec.length = M;
  spec.seed = seed;
  if (gappy) {
    spec.indel_open = 0.15;
    spec.delete_extend = 0.9;
  }
  return hmm::generate_hmm(spec);
}

enum class SeqKind { kHomolog, kRandom, kDegenerate };

const char* kind_name(SeqKind kind) {
  switch (kind) {
    case SeqKind::kHomolog:
      return "homolog";
    case SeqKind::kRandom:
      return "random";
    case SeqKind::kDegenerate:
      return "degenerate";
  }
  return "?";
}

/// A length-L sequence of the given kind; homologs are cut or padded with
/// random residues to length L.
std::vector<std::uint8_t> make_sequence(const hmm::Plan7Hmm& model,
                                        SeqKind kind, std::size_t L,
                                        Pcg32& rng) {
  std::vector<std::uint8_t> codes;
  switch (kind) {
    case SeqKind::kHomolog:
      codes = hmm::sample_homolog(model, rng).codes;
      break;
    case SeqKind::kRandom:
      break;
    case SeqKind::kDegenerate:
      while (codes.size() < L)
        codes.push_back(static_cast<std::uint8_t>(
            bio::kK + rng.below(bio::kKp - bio::kK)));
      break;
  }
  codes.resize(std::min(codes.size(), L));
  const auto pad = bio::random_sequence(L - codes.size(), rng);
  codes.insert(codes.end(), pad.codes.begin(), pad.codes.end());
  return codes;
}

std::uint32_t bits_of(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Bit-for-bit trace equality, reported with the case context.
void expect_same_trace(const cpu::ViterbiTrace& ref,
                       const cpu::ViterbiTrace& got, const std::string& ctx) {
  EXPECT_EQ(bits_of(ref.score), bits_of(got.score))
      << ctx << " score " << ref.score << " vs " << got.score;
  ASSERT_EQ(ref.steps.size(), got.steps.size()) << ctx;
  for (std::size_t s = 0; s < ref.steps.size(); ++s) {
    ASSERT_EQ(ref.steps[s].state, got.steps[s].state) << ctx << " step " << s;
    ASSERT_EQ(ref.steps[s].k, got.steps[s].k) << ctx << " step " << s;
    ASSERT_EQ(ref.steps[s].i, got.steps[s].i) << ctx << " step " << s;
  }
}

TEST(TraceTiers, ModelSizesCoverEveryLaneEdge) {
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    const int N = cpu::backend::tier_kernels(tier).f32_lanes;
    for (int M : {1, 2, N - 1, N, N + 1, 2 * N + 1, 48, 400, 1002})
      EXPECT_NE(std::find(kModelSizes.begin(), kModelSizes.end(), M),
                kModelSizes.end())
          << cpu::simd_tier_name(tier) << " M=" << M;
  }
}

class TraceTiers : public ::testing::TestWithParam<int> {};

TEST_P(TraceTiers, MatchesReferenceBitForBitAtEveryTier) {
  const int M = GetParam();
  Pcg32 rng(static_cast<std::uint64_t>(1000 + M));
  cpu::TraceWorkspace ws;  // shared by every tier and case below
  for (bool gappy : {false, true}) {
    const auto model =
        make_model(M, static_cast<std::uint64_t>(M) + (gappy ? 77 : 0), gappy);
    for (auto mode :
         {hmm::AlignMode::kLocalMultihit, hmm::AlignMode::kGlocalMultihit}) {
      const hmm::SearchProfile prof(model, mode, 400);
      std::vector<cpu::TraceStripes> stripes;
      for (SimdTier tier : cpu::supported_simd_tiers()) {
        stripes.emplace_back(prof, tier);
        EXPECT_EQ(stripes.back().tier(), tier);  // every tier runs natively
      }
      for (std::size_t L : kLengths) {
        for (SeqKind kind :
             {SeqKind::kHomolog, SeqKind::kRandom, SeqKind::kDegenerate}) {
          const auto seq = make_sequence(model, kind, L, rng);
          const auto ref = cpu::viterbi_trace(prof, seq.data(), L);
          for (const auto& st : stripes) {
            expect_same_trace(
                ref, cpu::viterbi_trace(st, seq.data(), L, ws),
                std::string(cpu::simd_tier_name(st.tier())) + " M=" +
                    std::to_string(M) + (gappy ? " gappy" : "") +
                    (hmm::is_local(mode) ? " local" : " glocal") +
                    " L=" + std::to_string(L) + " " + kind_name(kind));
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ModelSizes, TraceTiers,
                         ::testing::ValuesIn(kModelSizes));

// One workspace through growing and shrinking (M, L) — and through tiers
// of different widths, whose rows differ in size.
TEST(TraceTiers, WorkspaceReusedAcrossGrowingAndShrinkingShapes) {
  const std::pair<int, std::size_t> shapes[] = {
      {400, 2100}, {2, 1},  {1002, 17}, {48, 3000}, {1, 2},
      {17, 600},   {400, 3}, {1002, 2100}, {9, 1}};
  Pcg32 rng(61);
  cpu::TraceWorkspace ws;
  for (const auto& [M, L] : shapes) {
    const auto model = make_model(M, static_cast<std::uint64_t>(M) + 5, true);
    const hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 400);
    const auto seq = make_sequence(model, SeqKind::kHomolog, L, rng);
    const auto ref = cpu::viterbi_trace(prof, seq.data(), L);
    for (SimdTier tier : cpu::supported_simd_tiers()) {
      const cpu::TraceStripes st(prof, tier);
      expect_same_trace(ref, cpu::viterbi_trace(st, seq.data(), L, ws),
                        std::string(cpu::simd_tier_name(tier)) + " M=" +
                            std::to_string(M) + " L=" + std::to_string(L));
    }
  }
}

// Two different models of the same M alternate through one workspace,
// through prebuilt stripes and through the re-striping overload with each
// profile rebuilt at the same address: nothing may be reused across
// models.
TEST(TraceTiers, AlternatingModelsOfEqualLengthShareOneWorkspace) {
  const int M = 48;
  const hmm::Plan7Hmm models[2] = {make_model(M, 101, false),
                                   make_model(M, 202, true)};
  const hmm::SearchProfile profs[2] = {
      {models[0], hmm::AlignMode::kLocalMultihit, 400},
      {models[1], hmm::AlignMode::kLocalMultihit, 400}};
  Pcg32 rng(67);
  std::vector<std::vector<std::uint8_t>> seqs;
  for (int s = 0; s < 6; ++s)
    seqs.push_back(make_sequence(models[s % 2], SeqKind::kHomolog, 300, rng));

  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::set_simd_tier(tier);
    cpu::TraceWorkspace ws;
    const cpu::TraceStripes stripes[2] = {cpu::TraceStripes(profs[0], tier),
                                          cpu::TraceStripes(profs[1], tier)};
    std::optional<hmm::SearchProfile> slot;  // one address, two models
    for (int round = 0; round < 4; ++round) {
      for (int m = 0; m < 2; ++m) {
        for (const auto& seq : seqs) {
          const std::string ctx = std::string(cpu::simd_tier_name(tier)) +
                                  " round=" + std::to_string(round) +
                                  " model=" + std::to_string(m);
          const auto ref = cpu::viterbi_trace(profs[m], seq.data(), seq.size());
          expect_same_trace(
              ref, cpu::viterbi_trace(stripes[m], seq.data(), seq.size(), ws),
              ctx);
          slot.emplace(models[m], hmm::AlignMode::kLocalMultihit, 400);
          expect_same_trace(
              ref, cpu::viterbi_trace(*slot, seq.data(), seq.size(), ws),
              ctx + " re-striped");
        }
      }
    }
  }
  cpu::reset_simd_tier();
}

}  // namespace
