// Lanes-as-samples Forward: at every supported SIMD tier,
// cpu::generic_forward_batch (one sequence per float lane,
// simd_kernels::fwd_lanes_kernel) must return for every sequence exactly
// the bits of the scalar cpu::generic_forward — and stats::calibrate,
// which scores its Forward samples through it, must fit exactly the
// ModelStats of the per-sample scalar loop it replaced.
//
// Model sizes cover the lane-count edges of every float width (1, 2, 3,
// N-1, N, N+1 for N = 4, 8 and 16) plus paper sizes up to 1409; lengths
// run from 1 to 2100; batch sizes are not multiples of any lane count;
// profiles are local and glocal; sequences are random, homologs, and made
// only of degenerate or special residue codes.  A test-side copy of the
// scalar recurrence counts which log-sum branches the cases take, so the
// branch coverage is asserted rather than assumed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "bio/alphabet.hpp"
#include "bio/synthetic.hpp"
#include "cpu/generic.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/vit_filter.hpp"
#include "hmm/generator.hpp"
#include "hmm/profile.hpp"
#include "hmm/sampler.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"
#include "stats/calibrate.hpp"
#include "util/logspace.hpp"

namespace {

using namespace finehmm;
using cpu::SimdTier;

/// Union over the float widths 4, 8 and 16 of {1, 2, 3, N-1, N, N+1},
/// plus 48, 400, 1002 and 1409.
const std::vector<int> kModelSizes = {1,  2,  3,  4,  5,   7,    8,   9,
                                      15, 16, 17, 48, 400, 1002, 1409};

hmm::Plan7Hmm make_model(int M, std::uint64_t seed) {
  hmm::RandomHmmSpec spec;
  spec.length = M;
  spec.seed = seed;
  return hmm::generate_hmm(spec);
}

enum class SeqKind { kRandom, kHomolog, kDegenerate };

/// n sequences of length L, back to back.  Homologs are cut or padded
/// with random residues to L; degenerate sequences draw only the codes
/// past the canonical 20 (B J Z O U X and the special - * ~).
std::vector<std::uint8_t> make_batch(const hmm::Plan7Hmm& model,
                                     SeqKind kind, std::size_t n,
                                     std::size_t L, Pcg32& rng) {
  std::vector<std::uint8_t> out;
  out.reserve(n * L);
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<std::uint8_t> codes;
    if (kind == SeqKind::kHomolog) codes = hmm::sample_homolog(model, rng).codes;
    if (kind == SeqKind::kDegenerate)
      while (codes.size() < L)
        codes.push_back(static_cast<std::uint8_t>(
            bio::kK + rng.below(bio::kKp - bio::kK)));
    codes.resize(std::min(codes.size(), L));
    const auto pad = bio::random_sequence(L - codes.size(), rng);
    codes.insert(codes.end(), pad.codes.begin(), pad.codes.end());
    out.insert(out.end(), codes.begin(), codes.end());
  }
  return out;
}

/// generic_forward_batch at every supported tier against the scalar
/// generic_forward of each sequence, bit for bit.
void expect_batch_matches_scalar(const hmm::SearchProfile& prof,
                                 const std::vector<std::uint8_t>& seqs,
                                 std::size_t L, const std::string& ctx) {
  const std::size_t n = seqs.size() / L;
  std::vector<float> want(n);
  for (std::size_t s = 0; s < n; ++s)
    want[s] = cpu::generic_forward(prof, seqs.data() + s * L, L);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::set_simd_tier(tier);
    std::vector<float> got(n, 0.0f);
    cpu::generic_forward_batch(prof, seqs.data(), n, L, got.data());
    for (std::size_t s = 0; s < n; ++s)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(want[s]),
                std::bit_cast<std::uint32_t>(got[s]))
          << cpu::simd_tier_name(tier) << " " << ctx << " sequence " << s
          << " of " << n << ": " << want[s] << " vs " << got[s];
  }
  cpu::reset_simd_tier();
}

std::string shape(int M, hmm::AlignMode mode, std::size_t L, std::size_t n) {
  return "M=" + std::to_string(M) +
         (hmm::is_local(mode) ? " local" : " glocal") +
         " L=" + std::to_string(L) + " n=" + std::to_string(n);
}

TEST(FwdLanesTiers, ModelSizesCoverEveryLaneEdge) {
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    const int N = cpu::backend::tier_kernels(tier).f32_lanes;
    for (int M : {1, 2, 3, N - 1, N, N + 1, 48, 400, 1002, 1409})
      EXPECT_NE(std::find(kModelSizes.begin(), kModelSizes.end(), M),
                kModelSizes.end())
          << cpu::simd_tier_name(tier) << " M=" << M;
  }
}

class FwdLanesTiers : public ::testing::TestWithParam<int> {};

TEST_P(FwdLanesTiers, BatchMatchesGenericForwardBitForBit) {
  const int M = GetParam();
  const auto model = make_model(M, static_cast<std::uint64_t>(M) + 11);
  Pcg32 rng(static_cast<std::uint64_t>(3000 + M));
  for (auto mode :
       {hmm::AlignMode::kLocalMultihit, hmm::AlignMode::kGlocalMultihit,
        hmm::AlignMode::kLocalUnihit}) {
    const hmm::SearchProfile prof(model, mode, 400);
    for (std::size_t L : {1, 10, 100}) {
      expect_batch_matches_scalar(
          prof, make_batch(model, SeqKind::kRandom, 17, L, rng), L,
          shape(M, mode, L, 17) + " random");
      expect_batch_matches_scalar(
          prof, make_batch(model, SeqKind::kHomolog, 5, L, rng), L,
          shape(M, mode, L, 5) + " homolog");
      expect_batch_matches_scalar(
          prof, make_batch(model, SeqKind::kDegenerate, 5, L, rng), L,
          shape(M, mode, L, 5) + " degenerate");
    }
    expect_batch_matches_scalar(
        prof, make_batch(model, SeqKind::kHomolog, 1, 2100, rng), 2100,
        shape(M, mode, 2100, 1) + " homolog");
  }
}

INSTANTIATE_TEST_SUITE_P(ModelSizes, FwdLanesTiers,
                         ::testing::ValuesIn(kModelSizes));

TEST(FwdLanesTiers, BatchSizesThatAreNotLaneMultiples) {
  const auto model = make_model(48, 5);
  const hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 100);
  Pcg32 rng(17);
  for (std::size_t n : {1, 5, 17, 200, 203})
    expect_batch_matches_scalar(
        prof, make_batch(model, SeqKind::kRandom, n, 100, rng), 100,
        shape(48, prof.mode(), 100, n));
  // Long sequences, a partial batch at every width.
  for (int M : {48, 400}) {
    const auto big = make_model(M, static_cast<std::uint64_t>(M) + 5);
    const hmm::SearchProfile p(big, hmm::AlignMode::kLocalMultihit, 100);
    expect_batch_matches_scalar(
        p, make_batch(big, SeqKind::kHomolog, 5, 2100, rng), 2100,
        shape(M, p.mode(), 2100, 5));
  }
}

TEST(FwdLanesTiers, EmptyBatchWritesNothing) {
  const auto model = make_model(9, 3);
  const hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 100);
  const std::uint8_t codes[1] = {0};
  float out = 42.0f;
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::set_simd_tier(tier);
    cpu::generic_forward_batch(prof, codes, 0, 1, &out);
    EXPECT_EQ(out, 42.0f) << cpu::simd_tier_name(tier);
  }
  cpu::reset_simd_tier();
}

// ---- Branch coverage -----------------------------------------------------

/// How often each exit of LogSumTable::operator() is taken.
struct LogsumBranches {
  long a_ninf = 0;  // a == -inf: returns b
  long b_ninf = 0;  // b == -inf: returns a
  long far = 0;     // |a - b| >= kTableWidth: returns the larger operand
  long table = 0;   // the table correction
  /// Far exits whose result would change if the cut-off were dropped and
  /// the table's last slot added instead (|hi| below about 2e-3).
  long far_visible = 0;
};

/// generic_forward's non-exact recurrence, with a counting log-sum.
float counted_forward(const hmm::SearchProfile& prof, const std::uint8_t* seq,
                      std::size_t L, LogsumBranches& br) {
  const LogSumTable& table = LogSumTable::instance();
  auto add = [](float a, float b) {
    return a == kNegInf || b == kNegInf ? kNegInf : a + b;
  };
  auto lse = [&](float a, float b) {
    if (a == kNegInf) {
      ++br.a_ninf;
    } else if (b == kNegInf) {
      ++br.b_ninf;
    } else if ((a > b ? a - b : b - a) >= LogSumTable::kTableWidth) {
      ++br.far;
      const float hi = a > b ? a : b;
      if (hi + table.data()[LogSumTable::kTableSize - 1] != hi)
        ++br.far_visible;
    } else {
      ++br.table;
    }
    return table(a, b);
  };
  const int M = prof.length();
  const auto xs = prof.xsc_for(static_cast<int>(L));
  std::vector<float> pm(M + 1, kNegInf), pi(M + 1, kNegInf),
      pd(M + 1, kNegInf), cm(M + 1, kNegInf), ci(M + 1, kNegInf),
      cd(M + 1, kNegInf);
  float xN = 0.0f, xB = xN + xs.n_move, xJ = kNegInf, xC = kNegInf;
  for (std::size_t i = 0; i < L; ++i) {
    float xE = kNegInf;
    for (int k = 1; k <= M; ++k) {
      float m = add(xB, prof.tsc(k - 1, hmm::kPTBM));
      m = lse(m, add(pm[k - 1], prof.tsc(k - 1, hmm::kPTMM)));
      m = lse(m, add(pi[k - 1], prof.tsc(k - 1, hmm::kPTIM)));
      m = lse(m, add(pd[k - 1], prof.tsc(k - 1, hmm::kPTDM)));
      cm[k] = m = add(m, prof.msc(k, seq[i]));
      xE = lse(xE, add(m, prof.esc(k)));
      ci[k] = k < M ? lse(add(pm[k], prof.tsc(k, hmm::kPTMI)),
                          add(pi[k], prof.tsc(k, hmm::kPTII)))
                    : kNegInf;
      cd[k] = k >= 2 ? lse(add(cm[k - 1], prof.tsc(k - 1, hmm::kPTMD)),
                           add(cd[k - 1], prof.tsc(k - 1, hmm::kPTDD)))
                     : kNegInf;
    }
    xJ = lse(add(xJ, xs.j_loop), add(xE, xs.e_j));
    xC = lse(add(xC, xs.c_loop), add(xE, xs.e_c));
    xN = add(xN, xs.n_loop);
    xB = lse(add(xN, xs.n_move), add(xJ, xs.j_move));
    pm.swap(cm);
    pi.swap(ci);
    pd.swap(cd);
  }
  return add(xC, xs.c_move);
}

TEST(FwdLanesTiers, CasesReachEveryLogsumBranch) {
  Pcg32 rng(23);
  for (auto mode :
       {hmm::AlignMode::kLocalMultihit, hmm::AlignMode::kGlocalMultihit}) {
    for (int M : {3, 48, 400}) {
      const auto model = make_model(M, static_cast<std::uint64_t>(M) + 29);
      const hmm::SearchProfile prof(model, mode, 400);
      for (SeqKind kind : {SeqKind::kRandom, SeqKind::kDegenerate}) {
        const std::size_t L = 100;
        const auto seqs = make_batch(model, kind, 17, L, rng);
        LogsumBranches br;
        for (std::size_t s = 0; s < 17; ++s) {
          const float f = counted_forward(prof, seqs.data() + s * L, L, br);
          ASSERT_EQ(std::bit_cast<std::uint32_t>(f),
                    std::bit_cast<std::uint32_t>(cpu::generic_forward(
                        prof, seqs.data() + s * L, L)))
              << "the counting copy must be generic_forward";
        }
        const std::string ctx =
            shape(M, mode, L, 17) +
            (kind == SeqKind::kRandom ? " random" : " degenerate");
        EXPECT_GT(br.a_ninf, 0) << ctx;
        EXPECT_GT(br.b_ninf, 0) << ctx;
        EXPECT_GT(br.far, 0) << ctx;
        EXPECT_GT(br.table, 0) << ctx;
        expect_batch_matches_scalar(prof, seqs, L, ctx);
      }
    }
  }
}

// Returning the larger operand at |a - b| >= kTableWidth differs from
// adding the table's last slot only where that operand is within about
// 2e-3 of zero.  Random draws rarely get there; homologs of a glocal
// unihit model cross zero often enough to reach such log-sums in a few
// sequences.  (Those intermediate differences did not reach a final score
// in any case searched, so the cut-off is covered here, not isolated.)
TEST(FwdLanesTiers, CutOffNearZeroIsCovered) {
  const int M = 48;
  const auto model = make_model(M, static_cast<std::uint64_t>(M) + 11);
  const hmm::SearchProfile prof(model, hmm::AlignMode::kGlocalUnihit, 400);
  Pcg32 rng(5);
  LogsumBranches br;
  for (int s = 0; s < 8; ++s) {
    const auto codes = hmm::sample_homolog(model, rng).codes;
    const std::size_t L = codes.size();
    counted_forward(prof, codes.data(), L, br);
    expect_batch_matches_scalar(prof, codes, L,
                                "homolog " + std::to_string(s) + " " +
                                    shape(M, prof.mode(), L, 1));
  }
  EXPECT_GT(br.far_visible, 0);
}

// ---- Calibration ---------------------------------------------------------

/// The calibration loop as it was before the batched Forward: one draw,
/// then MSV, SSV, Viterbi and the scalar generic_forward per sample.
stats::ModelStats scalar_calibrate(const hmm::SearchProfile& prof,
                                   const profile::MsvProfile& msv,
                                   const profile::VitProfile& vit,
                                   const stats::CalibrateOptions& opts) {
  Pcg32 rng(opts.seed);
  const int L = opts.sample_length;
  std::vector<double> ssv_bits, msv_bits, vit_bits, fwd_bits;
  cpu::MsvFilter msv_filter(msv);
  cpu::VitFilter vit_filter(vit);
  const float ceiling = (255.0f - msv.bias() - msv.base()) / msv.scale();
  for (int i = 0; i < opts.n_samples; ++i) {
    auto seq = bio::random_sequence(L, rng);
    auto m = msv_filter.score(seq.codes.data(), L);
    double mb = m.overflowed ? hmm::nats_to_bits(ceiling, L)
                             : hmm::nats_to_bits(m.score_nats, L);
    msv_bits.push_back(mb);
    auto sv = msv_filter.ssv(seq.codes.data(), L);
    double sb = sv.overflowed ? hmm::nats_to_bits(ceiling, L)
                              : hmm::nats_to_bits(sv.score_nats, L);
    ssv_bits.push_back(sb);
    auto v = vit_filter.score(seq.codes.data(), L);
    vit_bits.push_back(hmm::nats_to_bits(v.score_nats, L));
    if (opts.with_forward) {
      float f = cpu::generic_forward(prof, seq.codes.data(), L);
      fwd_bits.push_back(hmm::nats_to_bits(f, L));
    }
  }
  stats::ModelStats out;
  out.ssv = stats::Gumbel::fit_mu_given_lambda(ssv_bits);
  out.msv = stats::Gumbel::fit_mu_given_lambda(msv_bits);
  out.vit = stats::Gumbel::fit_mu_given_lambda(vit_bits);
  if (opts.with_forward)
    out.fwd = stats::ExponentialTail::fit_tail(fwd_bits, opts.fwd_tail_mass);
  return out;
}

void expect_same_stats(const stats::ModelStats& want,
                       const stats::ModelStats& got, const std::string& ctx) {
  const double w[8] = {want.ssv.mu, want.ssv.lambda, want.msv.mu,
                       want.msv.lambda, want.vit.mu, want.vit.lambda,
                       want.fwd.mu, want.fwd.lambda};
  const double g[8] = {got.ssv.mu, got.ssv.lambda, got.msv.mu,
                       got.msv.lambda, got.vit.mu, got.vit.lambda,
                       got.fwd.mu, got.fwd.lambda};
  const char* names[8] = {"ssv.mu", "ssv.lambda", "msv.mu", "msv.lambda",
                          "vit.mu", "vit.lambda", "fwd.mu", "fwd.lambda"};
  for (int f = 0; f < 8; ++f)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(w[f]),
              std::bit_cast<std::uint64_t>(g[f]))
        << ctx << " " << names[f] << ": " << w[f] << " vs " << g[f];
}

TEST(CalibrateTiers, ModelStatsMatchTheScalarLoopOnEveryTier) {
  for (int M : {17, 60}) {
    const auto model = make_model(M, static_cast<std::uint64_t>(M) + 41);
    const hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 100);
    const profile::MsvProfile msv(prof);
    const profile::VitProfile vit(prof);
    for (std::uint64_t seed : {std::uint64_t{0x5eed}, std::uint64_t{99}}) {
      for (int n : {10, 17, 200}) {
        for (bool with_forward : {true, false}) {
          stats::CalibrateOptions opts;
          opts.n_samples = n;
          opts.seed = seed;
          opts.with_forward = with_forward;
          const stats::ModelStats want =
              scalar_calibrate(prof, msv, vit, opts);
          for (SimdTier tier : cpu::supported_simd_tiers()) {
            cpu::set_simd_tier(tier);
            expect_same_stats(
                want, stats::calibrate(prof, msv, vit, opts),
                std::string(cpu::simd_tier_name(tier)) + " M=" +
                    std::to_string(M) + " seed=" + std::to_string(seed) +
                    " n=" + std::to_string(n) +
                    (with_forward ? " with forward" : " no forward"));
          }
          cpu::reset_simd_tier();
        }
      }
    }
  }
}

}  // namespace
