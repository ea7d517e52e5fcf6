// Trigger-gated MSV/SSV row epilogue: at every supported SIMD tier, the
// single-model kernels (msv/ssv, byte codes and packed residues) and the
// fused group kernels (msv_group/ssv_group) must reproduce the scalar
// references bit for bit — the score's float bits and the overflow flag.
//
// A row ends with one any_gt_u8 test of xE against a trigger byte, the
// smaller of xJ + tec and sat - 1 (sat = 255 - bias), and runs the exact
// scalar epilogue only when some lane exceeds it.  Three kinds of cases
// pin each edge of that test:
//   * sequences whose overflowing row has xE == sat exactly (must
//     overflow) and sequences whose largest row xE is sat - 1 (must not);
//   * sequences whose final xJ comes from a row with xE == xJ + tec + 1,
//     the smallest improvement the trigger has to let through;
//   * hand-built group views with tec >= sat, the one regime where the
//     sat - 1 cap binds (no MsvProfile reaches it: tec is 3 and bias at
//     most about 20, so xJ + tec stays below sat - 1 until overflow).
// The cases come from a deterministic search against a scalar DP in this
// file over seeded models, hot-residue prefixes and a final residue.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "bio/alphabet.hpp"
#include "bio/packed_seq.hpp"
#include "bio/packing.hpp"
#include "bio/synthetic.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/msv_group.hpp"
#include "cpu/msv_scalar.hpp"
#include "cpu/stripes.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/kernels.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/ssv.hpp"
#include "hmm/generator.hpp"
#include "hmm/profile.hpp"
#include "hmm/sampler.hpp"
#include "profile/msv_profile.hpp"

namespace {

using namespace finehmm;
using cpu::FilterResult;
using cpu::SimdTier;

std::uint8_t sat_add(std::uint8_t a, std::uint8_t b) {
  const unsigned s = unsigned(a) + unsigned(b);
  return s > 255u ? 255u : std::uint8_t(s);
}
std::uint8_t sat_sub(std::uint8_t a, std::uint8_t b) {
  return a > b ? std::uint8_t(a - b) : 0;
}

// ---- Scalar byte DP with a per-row record ------------------------------

/// One model's byte scoring system: costs in position order (residue x,
/// position k at cost[x * M + k - 1]) plus the epilogue constants.
struct ByteModel {
  int M = 0;
  std::vector<std::uint8_t> cost;
  std::uint8_t bias = 0, base = 0, tbm = 0, tec = 0;
  std::uint8_t sat() const { return std::uint8_t(255 - bias); }
};

ByteModel byte_model(const profile::MsvProfile& prof) {
  ByteModel bm;
  bm.M = prof.length();
  bm.cost.resize(static_cast<std::size_t>(bio::kKp) * bm.M);
  for (int x = 0; x < bio::kKp; ++x)
    for (int k = 1; k <= bm.M; ++k)
      bm.cost[static_cast<std::size_t>(x) * bm.M + k - 1] = prof.cost(x, k);
  bm.bias = prof.bias();
  bm.base = prof.base();
  bm.tbm = prof.tbm();
  bm.tec = prof.tec();
  return bm;
}

/// The scalar recurrence (as cpu::msv_scalar / ssv_scalar) plus what the
/// case search needs to know about the rows.
struct DpRecord {
  std::uint8_t xj = 0;
  bool overflowed = false;
  int top_xe = 0;   // largest row xE scored (the overflowing row included)
  int last_up = 0;  // size of the last xJ improvement (MSV)
};

DpRecord reference_dp(const ByteModel& bm, std::uint8_t tjb,
                      const std::vector<std::uint8_t>& seq, bool ssv) {
  DpRecord r;
  std::vector<std::uint8_t> mmx(static_cast<std::size_t>(bm.M) + 1, 0);
  std::uint8_t xB = sat_sub(bm.base, tjb);
  for (std::uint8_t x : seq) {
    const std::uint8_t xb = sat_sub(xB, bm.tbm);
    const std::uint8_t* c = bm.cost.data() + static_cast<std::size_t>(x) * bm.M;
    std::uint8_t xE = 0;
    std::uint8_t diag = 0;
    for (int k = 1; k <= bm.M; ++k) {
      std::uint8_t sv = std::max(diag, xb);
      sv = sat_sub(sat_add(sv, bm.bias), c[k - 1]);
      diag = mmx[k];
      mmx[k] = sv;
      xE = std::max(xE, sv);
    }
    r.top_xe = std::max<int>(r.top_xe, xE);
    if (xE >= bm.sat()) {
      r.overflowed = true;
      r.xj = 0;
      return r;
    }
    const std::uint8_t e = sat_sub(xE, bm.tec);
    if (e > r.xj) {
      r.last_up = e - r.xj;
      r.xj = e;
    }
    if (!ssv) xB = sat_sub(std::max(r.xj, bm.base), tjb);
  }
  return r;
}

// ---- Fixtures ------------------------------------------------------------

struct Model {
  hmm::Plan7Hmm hmm;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;

  Model(int M, std::uint64_t seed)
      : hmm([&] {
          hmm::RandomHmmSpec spec;
          spec.length = M;
          spec.seed = seed;
          return hmm::generate_hmm(spec);
        }()),
        prof(hmm, hmm::AlignMode::kLocalMultihit, 400),
        msv(prof) {}
};

/// The residue with the lowest total emission cost: a long run of it
/// drives the byte DP into overflow.
std::uint8_t hot_residue(const profile::MsvProfile& prof) {
  int best = 0;
  long best_cost = -1;
  for (int x = 0; x < bio::kK; ++x) {
    long cost = 0;
    for (int k = 1; k <= prof.length(); ++k) cost += prof.cost(x, k);
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best = x;
    }
  }
  return static_cast<std::uint8_t>(best);
}

/// Smallest stripe count Q at which the members fit a lanes-wide group.
int fit_q(const std::vector<int>& lengths, int lanes) {
  for (int Q = 1;; ++Q) {
    int demand = 0;
    for (int M : lengths) demand += M / Q + 1;
    if (demand <= lanes) return Q;
  }
}

std::string where(SimdTier tier, const char* path, std::size_t L) {
  return std::string("tier=") + cpu::simd_tier_name(tier) + " " + path +
         " L=" + std::to_string(L);
}

void expect_bits(const FilterResult& want, const FilterResult& got,
                 const std::string& what) {
  EXPECT_EQ(want.overflowed, got.overflowed) << what;
  EXPECT_EQ(std::bit_cast<std::uint32_t>(want.score_nats),
            std::bit_cast<std::uint32_t>(got.score_nats))
      << what << " want=" << want.score_nats << " got=" << got.score_nats;
}

/// Check every byte-filter entry point of every supported tier against the
/// scalar references on one sequence: single-model MSV and SSV, and the
/// model as member 0 and as member 1 of a fused group with `neighbour`
/// (so its span starts at lane 0 and past another span) — each over byte
/// codes and over packed residues.
void check_all_paths(const profile::MsvProfile& target,
                     const profile::MsvProfile& neighbour,
                     const std::vector<std::uint8_t>& codes) {
  const std::size_t L = codes.size();
  const FilterResult msv_want = cpu::msv_scalar(target, codes.data(), L);
  const FilterResult ssv_want = cpu::ssv_scalar(target, codes.data(), L);
  const FilterResult nb_msv = cpu::msv_scalar(neighbour, codes.data(), L);
  const FilterResult nb_ssv = cpu::ssv_scalar(neighbour, codes.data(), L);
  const auto words = bio::pack_residues(codes);
  const bio::PackedResidues packed(words.data());

  for (SimdTier tier : cpu::supported_simd_tiers()) {
    const auto& ops = cpu::backend::tier_kernels(tier);
    const cpu::MsvStripes rows(target, ops.u8_lanes);
    std::vector<std::uint8_t> row(static_cast<std::size_t>(rows.segments()) *
                                  rows.lanes());
    expect_bits(msv_want,
                ops.msv(target, rows.row(0), rows.segments(), codes.data(), L,
                        row.data()),
                where(tier, "msv", L));
    expect_bits(msv_want,
                ops.msv_packed(target, rows.row(0), rows.segments(), packed, L,
                               row.data()),
                where(tier, "msv packed", L));
    expect_bits(ssv_want,
                ops.ssv(target, rows.row(0), rows.segments(), codes.data(), L,
                        row.data()),
                where(tier, "ssv", L));
    expect_bits(ssv_want,
                ops.ssv_packed(target, rows.row(0), rows.segments(), packed, L,
                               row.data()),
                where(tier, "ssv packed", L));

    const int Q = fit_q({target.length(), neighbour.length()}, ops.u8_lanes);
    for (int slot = 0; slot < 2; ++slot) {
      std::vector<const profile::MsvProfile*> members = {&target, &neighbour};
      if (slot == 1) std::swap(members[0], members[1]);
      const cpu::FusedMsvGroup group(members, ops.u8_lanes, Q);
      cpu::FusedMsvFilter filter(group, tier);
      FilterResult got[2];
      const std::size_t t = static_cast<std::size_t>(slot);
      const std::size_t n = 1 - t;
      filter.msv(codes.data(), L, got);
      expect_bits(msv_want, got[t], where(tier, "msv_group", L));
      expect_bits(nb_msv, got[n], where(tier, "msv_group neighbour", L));
      filter.msv(packed, L, got);
      expect_bits(msv_want, got[t], where(tier, "msv_group packed", L));
      expect_bits(nb_msv, got[n],
                  where(tier, "msv_group packed neighbour", L));
      filter.ssv(codes.data(), L, got);
      expect_bits(ssv_want, got[t], where(tier, "ssv_group", L));
      expect_bits(nb_ssv, got[n], where(tier, "ssv_group neighbour", L));
      filter.ssv(packed, L, got);
      expect_bits(ssv_want, got[t], where(tier, "ssv_group packed", L));
      expect_bits(nb_ssv, got[n],
                  where(tier, "ssv_group packed neighbour", L));
    }
  }
}

// ---- any_gt_u8 and the trigger byte -------------------------------------

TEST(AnyGtU8, EveryLaneAndEdgeAtEverySupportedTier) {
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    const int N = cpu::backend::tier_kernels(tier).u8_lanes;
    auto any_gt = [tier](const std::vector<std::uint8_t>& a,
                         const std::vector<std::uint8_t>& b) {
      return cpu::backend::tier_kernels(tier).any_gt_u8(a.data(), b.data());
    };
    const std::string t = cpu::simd_tier_name(tier);
    // Equal vectors never fire, including at the 0 and 255 edges.
    for (int v : {0, 1, 127, 128, 254, 255}) {
      const std::vector<std::uint8_t> b(N, std::uint8_t(v));
      EXPECT_FALSE(any_gt(b, b)) << t << " a == b == " << v;
    }
    for (int j = 0; j < N; ++j) {
      const std::string at = t + " lane " + std::to_string(j);
      // a = b + 1 in one lane fires; the compare is unsigned, so the
      // 127 -> 128 step and the 254 -> 255 step count.
      for (int v : {0, 127, 128, 200, 254}) {
        std::vector<std::uint8_t> b(N, std::uint8_t(v));
        std::vector<std::uint8_t> a = b;
        a[j] = std::uint8_t(v + 1);
        EXPECT_TRUE(any_gt(a, b)) << at << " a = b + 1, b = " << v;
        EXPECT_FALSE(any_gt(b, a)) << at << " b = a + 1, a = " << v;
      }
      // 255 against 0 in one lane, with every other lane below its b.
      std::vector<std::uint8_t> a(N, 0);
      std::vector<std::uint8_t> b(N, 255);
      EXPECT_FALSE(any_gt(a, b)) << at << " all 0 vs all 255";
      a[j] = 255;
      b[j] = 0;
      EXPECT_TRUE(any_gt(a, b)) << at << " 255 vs 0";
      b[j] = 255;
      EXPECT_FALSE(any_gt(a, b)) << at << " 255 vs 255";
    }
  }
}

TEST(AnyGtU8, PortableWideClassesMatchTheLaneDefinition) {
  Pcg32 rng(5);
  cpu::U8xN<32> a32, b32;
  cpu::U8xN<64> a64, b64;
  for (int rep = 0; rep < 200; ++rep) {
    bool want32 = false, want64 = false;
    for (int j = 0; j < 64; ++j) {
      const auto x = std::uint8_t(rng.below(4) == 0 ? rng.below(256) : 7);
      const auto y = std::uint8_t(rng.below(4) == 0 ? rng.below(256) : 7);
      a64.v[j] = x;
      b64.v[j] = y;
      want64 |= x > y;
      if (j < 32) {
        a32.v[j] = x;
        b32.v[j] = y;
        want32 |= x > y;
      }
    }
    EXPECT_EQ(want32, any_gt_u8(a32, b32)) << "rep " << rep;
    EXPECT_EQ(want64, any_gt_u8(a64, b64)) << "rep " << rep;
  }
}

TEST(MsvTrigger, IsTheSmallerOfTheUpdateAndOverflowThresholds) {
  using cpu::simd_kernels::msv_trigger;
  EXPECT_EQ(msv_trigger(0, 3, 236), 3);      // xJ + tec
  EXPECT_EQ(msv_trigger(200, 3, 236), 203);  // xJ + tec
  EXPECT_EQ(msv_trigger(232, 3, 236), 235);  // both: xJ + tec == sat - 1
  EXPECT_EQ(msv_trigger(233, 3, 236), 235);  // cap: sat - 1
  EXPECT_EQ(msv_trigger(0, 7, 5), 4);        // cap with xJ = 0 (tec >= sat)
  EXPECT_EQ(msv_trigger(0, 5, 5), 4);
  EXPECT_EQ(msv_trigger(0, 4, 5), 4);
  EXPECT_EQ(msv_trigger(0, 3, 5), 3);
  EXPECT_EQ(msv_trigger(255, 255, 255), 254);  // no byte wraparound
  EXPECT_EQ(msv_trigger(255, 255, 1), 0);
}

// ---- Exact bits over model sizes ------------------------------------------

class MsvTriggerTiers : public ::testing::TestWithParam<int> {};

/// Lane-count edges of the 16/32/64-byte tiers and paper sizes.
INSTANTIATE_TEST_SUITE_P(ModelSizes, MsvTriggerTiers,
                         ::testing::Values(1, 2, 3, 15, 16, 17, 31, 32, 33,
                                           63, 64, 65, 129, 400, 1002));

TEST_P(MsvTriggerTiers, ScoresAreBitExactAtEverySupportedTier) {
  const int M = GetParam();
  const Model target(M, 700 + static_cast<std::uint64_t>(M));
  const Model neighbour(17, 31);
  Pcg32 rng(static_cast<std::uint64_t>(M) * 7919u + 1);

  std::vector<std::vector<std::uint8_t>> seqs;
  for (int x = 0; x < bio::kK; x += 3)  // L = 1
    seqs.push_back({static_cast<std::uint8_t>(x)});
  for (std::size_t L : {2u, 17u, 150u, 700u})
    seqs.push_back(bio::random_sequence(L, rng).codes);
  // Homologs: an alignment to the model improves xJ over many rows.
  for (int rep = 0; rep < 4; ++rep)
    seqs.push_back(hmm::sample_homolog(target.hmm, rng).codes);
  // Homolog embedded in random flanks, so xJ rises mid-sequence.
  {
    auto flank = bio::random_sequence(120, rng).codes;
    auto hom = hmm::sample_homolog(target.hmm, rng).codes;
    auto tail = bio::random_sequence(90, rng).codes;
    flank.insert(flank.end(), hom.begin(), hom.end());
    flank.insert(flank.end(), tail.begin(), tail.end());
    seqs.push_back(flank);
  }
  // An all-best-residue run: overflow.
  seqs.push_back(std::vector<std::uint8_t>(900, hot_residue(target.msv)));

  for (const auto& codes : seqs) {
    SCOPED_TRACE("M=" + std::to_string(M));
    check_all_paths(target.msv, neighbour.msv, codes);
  }
}

// ---- Overflow and trigger edges found by search ---------------------------

struct EdgeCases {
  std::vector<std::vector<std::uint8_t>> at_sat;     // xE == sat
  std::vector<std::vector<std::uint8_t>> below_sat;  // top xE == sat - 1
  std::vector<std::vector<std::uint8_t>> step_one;   // last xJ step is +1
};

/// Hot-residue prefixes of every length short of overflow, each closed
/// by every canonical residue; a sequence lands in a bucket when the
/// scalar DP (MSV or SSV) puts its rows on that edge.
EdgeCases search_edges(const profile::MsvProfile& prof, bool ssv,
                       std::size_t want) {
  const ByteModel bm = byte_model(prof);
  const std::uint8_t hot = hot_residue(prof);
  EdgeCases out;
  auto full = [&] {
    return out.at_sat.size() == want && out.below_sat.size() == want &&
           (ssv || out.step_one.size() == want);
  };
  for (std::size_t n = 0; n < 160 && !full(); ++n) {
    std::vector<std::uint8_t> prefix(n, hot);
    const std::uint8_t tjb = prof.tjb_for(static_cast<int>(n + 1));
    if (n > 0 && reference_dp(bm, tjb, prefix, ssv).overflowed) break;
    for (int y = 0; y < bio::kK; ++y) {
      std::vector<std::uint8_t> seq = prefix;
      seq.push_back(static_cast<std::uint8_t>(y));
      const DpRecord r = reference_dp(bm, tjb, seq, ssv);
      if (r.overflowed && r.top_xe == bm.sat() && out.at_sat.size() < want)
        out.at_sat.push_back(seq);
      if (!r.overflowed && r.top_xe == bm.sat() - 1 &&
          out.below_sat.size() < want)
        out.below_sat.push_back(seq);
      if (!ssv && !r.overflowed && r.last_up == 1 &&
          out.step_one.size() < want)
        out.step_one.push_back(seq);
    }
  }
  return out;
}

TEST(MsvTriggerEdges, OverflowAndXjStepEdgesAtEveryTier) {
  const Model neighbour(23, 57);
  std::size_t at_sat = 0, below_sat = 0, step_one = 0;
  for (int M : {20, 48, 100, 200}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const Model target(M, 4000 + seed * 31 + static_cast<std::uint64_t>(M));
      const profile::MsvProfile& prof = target.msv;
      const ByteModel bm = byte_model(prof);
      for (bool ssv : {false, true}) {
        const EdgeCases cases = search_edges(prof, ssv, 2);
        SCOPED_TRACE("M=" + std::to_string(M) + " seed=" +
                     std::to_string(seed) + (ssv ? " ssv" : " msv"));
        for (const auto& seq : cases.at_sat) {
          const auto want = ssv ? cpu::ssv_scalar(prof, seq.data(), seq.size())
                                : cpu::msv_scalar(prof, seq.data(), seq.size());
          ASSERT_TRUE(want.overflowed);
          check_all_paths(prof, neighbour.msv, seq);
        }
        for (const auto& seq : cases.below_sat) {
          const auto want = ssv ? cpu::ssv_scalar(prof, seq.data(), seq.size())
                                : cpu::msv_scalar(prof, seq.data(), seq.size());
          ASSERT_FALSE(want.overflowed);
          ASSERT_EQ(want.score_nats,
                    prof.score_from_bytes(
                        reference_dp(bm,
                                     prof.tjb_for(static_cast<int>(seq.size())),
                                     seq, ssv)
                            .xj,
                        static_cast<int>(seq.size())));
          check_all_paths(prof, neighbour.msv, seq);
        }
        for (const auto& seq : cases.step_one)
          check_all_paths(prof, neighbour.msv, seq);
        at_sat += cases.at_sat.size();
        below_sat += cases.below_sat.size();
        step_one += cases.step_one.size();
      }
    }
  }
  // The search must keep finding every edge, or the test pins nothing.
  EXPECT_GE(at_sat, 8u);
  EXPECT_GE(below_sat, 8u);
  EXPECT_GE(step_one, 8u);
}

// ---- Hand-built groups where the sat - 1 cap binds -----------------------

/// A group view packed from byte models exactly as cpu::FusedMsvGroup
/// packs profiles (pad cost 255, per-lane bias), with owned storage.
struct CraftedGroup {
  std::vector<std::uint8_t> rows, bias;
  std::vector<cpu::simd_kernels::MsvGroupModel> models;
  cpu::simd_kernels::MsvGroupView view;

  CraftedGroup(const std::vector<ByteModel>& bms, int N, int Q) {
    rows.assign(static_cast<std::size_t>(bio::kKp) * Q * N, 255);
    bias.assign(static_cast<std::size_t>(N), 0);
    int lane = 0;
    for (const ByteModel& bm : bms) {
      cpu::simd_kernels::MsvGroupModel md;
      md.lane_lo = static_cast<std::uint8_t>(lane);
      md.lanes = static_cast<std::uint8_t>(bm.M / Q + 1);
      md.bias = bm.bias;
      md.tbm = bm.tbm;
      md.tec = bm.tec;
      md.base = bm.base;
      md.sat = bm.sat();
      for (int j = 0; j < md.lanes; ++j) bias[md.lane_lo + j] = bm.bias;
      const cpu::Striping st{Q, N};
      for (int x = 0; x < bio::kKp; ++x)
        for (int k = 1; k <= bm.M; ++k)
          rows[static_cast<std::size_t>(x) * st.size() + st.slot(k) +
               md.lane_lo] =
              bm.cost[static_cast<std::size_t>(x) * bm.M + k - 1];
      lane += md.lanes;
      models.push_back(md);
    }
    view.rows = rows.data();
    view.bias = bias.data();
    view.models = models.data();
    view.n_models = static_cast<int>(models.size());
    view.Q = Q;
  }
};

/// A random byte model whose cells gain between gain_lo and gain_hi bytes
/// per row along a diagonal (cost = bias - gain), starting a byte or two
/// above zero, so row xE values step through every byte near sat.
ByteModel crafted_model(int M, std::uint8_t bias, std::uint8_t tec,
                        int gain_lo, int gain_hi, Pcg32& rng) {
  ByteModel bm;
  bm.M = M;
  bm.bias = bias;
  bm.tec = tec;
  bm.base = 190;
  bm.tbm = 189;  // xB starts at base - tjb - tbm, a byte or two
  bm.cost.resize(static_cast<std::size_t>(bio::kKp) * M);
  const auto span = static_cast<std::uint32_t>(gain_hi - gain_lo + 1);
  for (auto& c : bm.cost) {
    const int gain = gain_lo + static_cast<int>(rng.below(span));
    c = static_cast<std::uint8_t>(std::clamp(int(bias) - gain, 0, 255));
  }
  return bm;
}

TEST(MsvTriggerEdges, CappedTriggerCatchesOverflowAtExactlySatInGroups) {
  Pcg32 rng(2024);
  std::size_t at_sat = 0, below_sat = 0;
  for (int trial = 0; trial < 12; ++trial) {
    // Member 0: sat = 5 with tec = 9, so the trigger at xJ = 0 is the cap
    // sat - 1 = 4.  Member 1: an ordinary neighbour.  Member 2: bias 255
    // (sat = 0), which overflows on the first row.
    const std::vector<ByteModel> bms = {
        crafted_model(9 + trial, 250, 9, 0, 1, rng),
        crafted_model(6, 240, 3, -1, 2, rng),
        crafted_model(4, 255, 3, -3, 0, rng),
    };
    for (std::size_t L = 1; L <= 12; ++L) {
      std::vector<std::uint8_t> seq = bio::random_sequence(L, rng).codes;
      std::vector<DpRecord> want;
      std::vector<std::uint8_t> tjb;
      for (const ByteModel& bm : bms) {
        tjb.push_back(static_cast<std::uint8_t>(rng.below(3)));
        want.push_back(reference_dp(bm, tjb.back(), seq, false));
      }
      at_sat += want[0].overflowed && want[0].top_xe == bms[0].sat();
      below_sat += !want[0].overflowed && want[0].top_xe == bms[0].sat() - 1;
      std::vector<DpRecord> want_ssv;
      for (std::size_t m = 0; m < bms.size(); ++m)
        want_ssv.push_back(reference_dp(bms[m], tjb[m], seq, true));
      const auto words = bio::pack_residues(seq);
      const bio::PackedResidues packed(words.data());

      for (SimdTier tier : cpu::supported_simd_tiers()) {
        const auto& ops = cpu::backend::tier_kernels(tier);
        const int N = ops.u8_lanes;
        const int Q = fit_q({bms[0].M, bms[1].M, bms[2].M}, N);
        const CraftedGroup g(bms, N, Q);
        std::vector<std::uint8_t> lanes(3 * static_cast<std::size_t>(N));
        std::vector<std::uint8_t> xj(bms.size()), of(bms.size());
        std::vector<std::uint8_t> row(static_cast<std::size_t>(Q) * N);
        cpu::simd_kernels::MsvGroupState st;
        st.xb = lanes.data();
        st.trigger = lanes.data() + N;
        st.xe = lanes.data() + 2 * N;
        st.xj = xj.data();
        st.tjb = tjb.data();
        st.overflowed = of.data();
        for (int path = 0; path < 4; ++path) {
          const bool ssv = path >= 2;
          const bool pk = path % 2 == 1;
          if (ssv && pk)
            ops.ssv_group_packed(g.view, st, packed, L, row.data());
          else if (ssv)
            ops.ssv_group(g.view, st, seq.data(), L, row.data());
          else if (pk)
            ops.msv_group_packed(g.view, st, packed, L, row.data());
          else
            ops.msv_group(g.view, st, seq.data(), L, row.data());
          const auto& w = ssv ? want_ssv : want;
          for (std::size_t m = 0; m < bms.size(); ++m) {
            const std::string what =
                std::string("tier=") + cpu::simd_tier_name(tier) +
                (ssv ? " ssv_group" : " msv_group") + (pk ? " packed" : "") +
                " trial=" + std::to_string(trial) + " L=" +
                std::to_string(L) + " member=" + std::to_string(m);
            EXPECT_EQ(w[m].overflowed, of[m] != 0) << what;
            if (!w[m].overflowed) {
              EXPECT_EQ(w[m].xj, xj[m]) << what;
            }
          }
        }
      }
    }
  }
  EXPECT_GE(at_sat, 8u);
  EXPECT_GE(below_sat, 8u);
}

}  // namespace
