// The word Viterbi filter's floor argument, tested at every SIMD tier.
//
// simd_kernels::vit_kernel adds with sat_add_word only in its scalar
// specials.  Its seven transition adds use adds_trans_w (a plain
// saturating add that maps a -inf parameter to -inf) and its emission add
// uses adds_emit_w (that rule plus the -32767 clamp); a Lazy-F pass stops
// at the first stripe that does not improve.  The kernel's docs argue
// that every score stays bitwise vit_scalar's: pre-emission M is floored
// at xBv = xB (+) entry >= -32767, so the <= -32767 band where the adds
// differ from sat_add_word cannot reach the score.  The cases here aim at
// each edge of that argument:
//   * the lane ops at their saturation and -inf edges, against their
//     portable definition and against sat_add_word where the contracts
//     overlap;
//   * a model with a zero-probability transition of each of the seven
//     kinds mid-model, long enough (and scored against sequences long
//     enough) that xBv < 0, with sequences built so that a transition add
//     without its -inf rule changes the score;
//   * homologs that saturate at 32767, a nearly impossible residue whose
//     emission add only the -32767 clamp keeps finite, all-degenerate
//     sequences, and model lengths around every lane count.
// Each sensitive case proves its sensitivity with the scalar reference DP
// in this file, which takes the add of each term as a parameter.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bio/alphabet.hpp"
#include "bio/synthetic.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/simd_vec.hpp"
#include "cpu/vit_filter.hpp"
#include "cpu/vit_scalar.hpp"
#include "hmm/generator.hpp"
#include "hmm/plan7.hpp"
#include "hmm/profile.hpp"
#include "hmm/sampler.hpp"
#include "profile/vit_profile.hpp"

namespace {

using namespace finehmm;
using cpu::SimdTier;
using profile::kWordNegInf;
using profile::sat_add_word;

constexpr std::int16_t kWordMax = 32767;

// ---- The lane ops' definitions -------------------------------------------

std::int16_t clamp_word(int s, int lo) {
  return static_cast<std::int16_t>(std::clamp(s, lo, int(kWordMax)));
}
/// adds_trans_w per lane.
std::int16_t trans_def(std::int16_t a, std::int16_t t) {
  return t == kWordNegInf ? kWordNegInf : clamp_word(a + t, -32768);
}
/// adds_emit_w per lane.
std::int16_t emit_def(std::int16_t a, std::int16_t e) {
  return e == kWordNegInf ? kWordNegInf : clamp_word(a + e, -32767);
}

/// Operand pairs at the edges: each of {-32768, -32767, -1, 0, 1, 32767}
/// against each, plus sums landing exactly on -32768, -32767, 32767 and
/// 32768 and a -inf parameter against positive a.
std::vector<std::array<std::int16_t, 2>> edge_pairs() {
  const std::int16_t v[] = {-32768, -32767, -1, 0, 1, 32767};
  std::vector<std::array<std::int16_t, 2>> out;
  for (std::int16_t a : v)
    for (std::int16_t t : v) out.push_back({a, t});
  const std::array<std::int16_t, 2> sums[] = {
      {-16384, -16384}, {-1, -32767}, {-32767, -1},    // -32768
      {-16384, -16383}, {0, -32767},  {-32766, -1},    // -32767
      {16384, 16383},   {32766, 1},   {1, 32766},      // 32767
      {16384, 16384},   {32767, 1},   {-1, -32768},    // 32768 / -32769
      {5, -32768},      {12000, -32768}, {32766, -32768}};
  out.insert(out.end(), std::begin(sums), std::end(sums));
  return out;
}

/// Every edge pair in every lane of an N-lane vector (the other lanes
/// hold pairs rotated in from the list), through `op` on a and t arrays.
template <class Op>
void check_lanes(int N, Op op, const std::string& what) {
  const auto pairs = edge_pairs();
  std::vector<std::int16_t> a(N), t(N), tr(N), em(N);
  for (std::size_t base = 0; base < pairs.size(); ++base) {
    for (int j = 0; j < N; ++j) {
      const auto& p = pairs[(base + static_cast<std::size_t>(j) * 7) %
                            pairs.size()];
      a[j] = p[0];
      t[j] = p[1];
    }
    op(a.data(), t.data(), tr.data(), em.data());
    for (int j = 0; j < N; ++j) {
      ASSERT_EQ(tr[j], trans_def(a[j], t[j]))
          << what << " adds_trans_w lane " << j << " a=" << a[j]
          << " t=" << t[j];
      ASSERT_EQ(em[j], emit_def(a[j], t[j]))
          << what << " adds_emit_w lane " << j << " a=" << a[j]
          << " e=" << t[j];
    }
  }
}

template <int N>
void check_portable() {
  check_lanes(
      N,
      [](const std::int16_t* a, const std::int16_t* t, std::int16_t* tr,
         std::int16_t* em) {
        using V = cpu::I16xN<N>;
        adds_trans_w(V::load(a), V::load(t)).store(tr);
        adds_emit_w(V::load(a), V::load(t)).store(em);
      },
      "I16xN<" + std::to_string(N) + ">");
}

TEST(VitWordOps, EveryTierMatchesTheLaneDefinitionAtTheEdges) {
  check_portable<8>();
  check_portable<16>();
  check_portable<32>();
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    const auto& row = cpu::backend::tier_kernels(tier);
    check_lanes(
        row.i16_lanes,
        [&row](const std::int16_t* a, const std::int16_t* t,
               std::int16_t* tr, std::int16_t* em) {
          row.adds_trans_w(a, t, tr);
          row.adds_emit_w(a, t, em);
        },
        cpu::simd_tier_name(tier));
  }
}

TEST(VitWordOps, RandomLanesMatchTheLaneDefinitionOnEveryTier) {
  Pcg32 rng(11);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    const auto& row = cpu::backend::tier_kernels(tier);
    const int N = row.i16_lanes;
    std::vector<std::int16_t> a(N), t(N), tr(N), em(N);
    for (int rep = 0; rep < 2000; ++rep) {
      for (int j = 0; j < N; ++j) {
        a[j] = static_cast<std::int16_t>(int(rng.below(65536)) - 32768);
        // A -inf parameter in about one lane in eight.
        t[j] = rng.below(8) == 0
                   ? kWordNegInf
                   : static_cast<std::int16_t>(int(rng.below(65536)) - 32768);
      }
      row.adds_trans_w(a.data(), t.data(), tr.data());
      row.adds_emit_w(a.data(), t.data(), em.data());
      for (int j = 0; j < N; ++j) {
        ASSERT_EQ(tr[j], trans_def(a[j], t[j]))
            << cpu::simd_tier_name(tier) << " a=" << a[j] << " t=" << t[j];
        ASSERT_EQ(em[j], emit_def(a[j], t[j]))
            << cpu::simd_tier_name(tier) << " a=" << a[j] << " e=" << t[j];
      }
    }
  }
}

/// Both ops of one tier's row on the pairs (a[i], t[i]), N lanes per
/// call; a.size() must be a multiple of N.
void run_pairs(const cpu::backend::TierKernels& row,
               const std::vector<std::int16_t>& a,
               const std::vector<std::int16_t>& t,
               std::vector<std::int16_t>& tr, std::vector<std::int16_t>& em) {
  const std::size_t N = static_cast<std::size_t>(row.i16_lanes);
  tr.assign(a.size(), 0);
  em.assign(a.size(), 0);
  for (std::size_t i = 0; i < a.size(); i += N) {
    row.adds_trans_w(a.data() + i, t.data() + i, tr.data() + i);
    row.adds_emit_w(a.data() + i, t.data() + i, em.data() + i);
  }
}

TEST(VitWordOps, AgreeWithSatAddWordWhereTheirContractsOverlap) {
  std::vector<std::int16_t> vals = {-32768, -32767, -32766, -16384, -16383,
                                    -1,     0,      1,      16383,  16384,
                                    32766,  32767};
  for (int x = -32768; x <= 32767; x += 997)
    vals.push_back(static_cast<std::int16_t>(x));
  std::vector<std::int16_t> a, t;
  for (std::int16_t x : vals)
    for (std::int16_t y : vals) {
      a.push_back(x);
      t.push_back(y);
    }
  a.resize((a.size() + 31) / 32 * 32, 0);  // whole vectors at every width
  t.resize(a.size(), 0);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    std::vector<std::int16_t> tr, em;
    run_pairs(cpu::backend::tier_kernels(tier), a, t, tr, em);
    const std::string at = cpu::simd_tier_name(tier);
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::int16_t sticky = sat_add_word(a[i], t[i]);
      // Emission add: sat_add_word exactly whenever a is not -inf.
      if (a[i] != kWordNegInf) {
        ASSERT_EQ(em[i], sticky) << at << " emit a=" << a[i] << " e=" << t[i];
      }
      // Transition add with t <= 0 (what VitProfile guarantees): equal
      // wherever sat_add_word is above -32767, and both at or below it
      // elsewhere (the band the floor argument discards); -inf in either
      // operand gives -inf.
      if (t[i] > 0) continue;
      if (sticky > -32767) {
        ASSERT_EQ(tr[i], sticky) << at << " trans a=" << a[i] << " t=" << t[i];
      } else {
        ASSERT_LE(tr[i], -32767) << at << " trans a=" << a[i] << " t=" << t[i];
      }
      if (t[i] == kWordNegInf || a[i] == kWordNegInf) {
        ASSERT_EQ(tr[i], kWordNegInf)
            << at << " trans -inf a=" << a[i] << " t=" << t[i];
      }
    }
    // The case a plain PADDSW gets wrong: a -inf parameter with a > 0.
    const std::vector<std::int16_t> pos(32, 12000), ninf(32, kWordNegInf);
    run_pairs(cpu::backend::tier_kernels(tier), pos, ninf, tr, em);
    for (std::size_t i = 0; i < pos.size(); ++i) {
      EXPECT_EQ(tr[i], kWordNegInf) << at << " lane " << i;
      EXPECT_EQ(em[i], kWordNegInf) << at << " lane " << i;
    }
  }
}

// ---- Scalar reference DP with a parameterised add per term ---------------

enum Term { kMM, kIM, kDM, kMI, kII, kMD, kDD, kNTerms };
const char* const kTermNames[kNTerms] = {"tMM", "tIM", "tDM", "tMI",
                                         "tII", "tMD", "tDD"};

enum class Add {
  kSticky,  // sat_add_word (vit_scalar)
  kKernel,  // adds_trans_w
  kNoCap,   // a plain saturating add: no -inf rule
};

struct RefAdds {
  std::array<Add, kNTerms> term;
  bool emit_clamp = true;  // false: adds_emit_w without the -32767 clamp

  static RefAdds all(Add a) {
    RefAdds r;
    r.term.fill(a);
    return r;
  }
};

struct RefResult {
  float score = 0.0f;
  int min_xbv = 32767;  // smallest xB (+) entry over the rows
  int max_m = -32768;   // largest M cell
};

std::int16_t ref_add(Add how, std::int16_t a, std::int16_t t) {
  switch (how) {
    case Add::kSticky:
      return sat_add_word(a, t);
    case Add::kKernel:
      return trans_def(a, t);
    case Add::kNoCap:
      break;
  }
  return clamp_word(a + t, -32768);
}

/// vit_scalar's recurrence (same order, same specials), with each term's
/// add chosen by `adds`.  With RefAdds::all(Add::kSticky) it is
/// vit_scalar; with Add::kKernel everywhere it is the kernel's adds in
/// position order.
RefResult ref_vit(const profile::VitProfile& prof,
                  const std::vector<std::uint8_t>& seq, const RefAdds& adds) {
  const int M = prof.length();
  const auto lm = prof.length_model_for(static_cast<int>(seq.size()));
  auto add = [&adds](Term t, std::int16_t a, std::int16_t b) {
    return ref_add(adds.term[t], a, b);
  };
  std::vector<std::int16_t> pm(M + 1, kWordNegInf), pi(M + 1, kWordNegInf),
      pd(M + 1, kWordNegInf), cm(M + 1, kWordNegInf),
      ci(M + 1, kWordNegInf), cd(M + 1, kWordNegInf);
  std::int16_t xN = profile::VitProfile::kBase;
  std::int16_t xB = sat_add_word(xN, lm.move);
  std::int16_t xJ = kWordNegInf, xC = kWordNegInf;
  RefResult r;
  for (std::uint8_t x : seq) {
    const std::int16_t* msr = prof.msc_row(x);
    const std::int16_t xbv = sat_add_word(xB, prof.entry());
    r.min_xbv = std::min<int>(r.min_xbv, xbv);
    std::int16_t xE = kWordNegInf;
    for (int k = 1; k <= M; ++k) {
      std::int16_t m = xbv;
      m = std::max(m, add(kMM, pm[k - 1], prof.tmm_in(k)));
      m = std::max(m, add(kIM, pi[k - 1], prof.tim_in(k)));
      m = std::max(m, add(kDM, pd[k - 1], prof.tdm_in(k)));
      const std::int16_t e = msr[k - 1];
      m = adds.emit_clamp ? sat_add_word(m, e)
                          : (e == kWordNegInf ? kWordNegInf
                                              : clamp_word(m + e, -32768));
      cm[k] = m;
      xE = std::max(xE, m);
      r.max_m = std::max<int>(r.max_m, m);
      ci[k] = std::max(add(kMI, pm[k], prof.tmi_at(k)),
                       add(kII, pi[k], prof.tii_at(k)));
      cd[k] = k >= 2 ? std::max(add(kMD, cm[k - 1], prof.tmd_out(k - 1)),
                                add(kDD, cd[k - 1], prof.tdd_out(k - 1)))
                     : kWordNegInf;
    }
    xJ = std::max(sat_add_word(xJ, lm.loop), sat_add_word(xE, prof.e_j()));
    xC = std::max(sat_add_word(xC, lm.loop), sat_add_word(xE, prof.e_c()));
    xN = sat_add_word(xN, lm.loop);
    xB = std::max(sat_add_word(xN, lm.move), sat_add_word(xJ, lm.move));
    pm.swap(cm);
    pi.swap(ci);
    pd.swap(cd);
  }
  r.score = prof.score_from_words(xC, lm);
  return r;
}

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }

/// vit_scalar's score, which every supported tier must return bit for bit
/// (and the reference DP with either the sticky or the kernel's adds).
void expect_every_tier_matches_scalar(const profile::VitProfile& vit,
                                      const std::vector<std::uint8_t>& seq,
                                      const std::string& what,
                                      int* passes = nullptr) {
  const float want = cpu::vit_scalar(vit, seq.data(), seq.size()).score_nats;
  ASSERT_EQ(bits(ref_vit(vit, seq, RefAdds::all(Add::kSticky)).score),
            bits(want))
      << what << ": reference DP is not vit_scalar";
  EXPECT_EQ(bits(ref_vit(vit, seq, RefAdds::all(Add::kKernel)).score),
            bits(want))
      << what << ": the kernel's adds moved the scalar score";
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::VitFilter f(vit, tier);
    const float got = f.score(seq.data(), seq.size()).score_nats;
    EXPECT_EQ(bits(got), bits(want))
        << what << " " << cpu::simd_tier_name(tier) << ": " << got
        << " vs scalar " << want;
    if (passes != nullptr)
      passes[static_cast<int>(tier)] += f.last_lazyf_passes();
  }
}

// ---- The floor model ------------------------------------------------------

/// The highest-probability residue at model position k.
std::uint8_t best_residue(const hmm::Plan7Hmm& h, int k) {
  int best = 0;
  for (int a = 1; a < bio::kK; ++a)
    if (h.mat(k, a) > h.mat(k, best)) best = a;
  return static_cast<std::uint8_t>(best);
}

constexpr int kFloorM = 3000;
constexpr std::size_t kFloorL = 1000;
constexpr int kCut = kFloorM / 2;  // node k0 of the cut
constexpr std::uint8_t kRareW = 18;  // 'W' in kCanonical

/// A conserved M = 3000 model, local unihit, with:
///   * a cut at node k0: D_k0 is unreachable (node k0-1 has tMD = tDD =
///     0) and M_k0 can only enter an insert that never leaves (tMM = tMD
///     = tIM = 0, so tMI = tII = 1) — every path across k0 needs a fresh
///     B entry, and the tMM, tMD and tIM adds out of node k0 see a -inf
///     parameter against a saturated cell;
///   * the other three zero-probability kinds (tDM, tMI, tII) further up;
///   * 'W' nearly impossible at every position (an emission of about
///     -31000 words), so a row of W lies in the clamp band.
/// Unihit keeps xB at xN + move: a J path would lift xBv above the cut.
struct FloorModel {
  hmm::Plan7Hmm base;  // before the edits: what homologs are sampled from
  hmm::Plan7Hmm hmm;   // (the insert trap would never let a sample end)
  hmm::SearchProfile prof;
  profile::VitProfile vit;

  static hmm::Plan7Hmm make_base() {
    hmm::RandomHmmSpec spec;
    spec.length = kFloorM;
    spec.seed = 2024;
    spec.match_alpha = 0.05;
    return hmm::generate_hmm(spec);
  }
  static hmm::Plan7Hmm make(hmm::Plan7Hmm h) {
    h.tr(kCut - 1, hmm::kTMD) = 0.0f;
    h.tr(kCut - 1, hmm::kTDD) = 0.0f;
    h.tr(kCut, hmm::kTMM) = 0.0f;
    h.tr(kCut, hmm::kTMD) = 0.0f;
    h.tr(kCut, hmm::kTIM) = 0.0f;
    h.tr(kCut / 2, hmm::kTDM) = 0.0f;
    h.tr(kCut / 2 + 7, hmm::kTMI) = 0.0f;
    h.tr(kCut / 2 + 13, hmm::kTII) = 0.0f;
    for (int k = 1; k <= kFloorM; ++k) h.mat(k, kRareW) = 0.0f;
    h.renormalize();
    // Set after renormalising, so every position scores W the same.
    const float rare = bio::background_frequencies()[kRareW] * std::exp(-43.0f);
    for (int k = 1; k <= kFloorM; ++k) h.mat(k, kRareW) = rare;
    return h;
  }

  FloorModel()
      : base(make_base()),
        hmm(make(base)),
        prof(hmm, hmm::AlignMode::kLocalUnihit, static_cast<int>(kFloorL)),
        vit(prof) {}

  /// kFloorL residues: random background, then segment A (the best
  /// residues of positions k0-39..k0, which saturate M_k0), `gap` random
  /// residues, segment B (the best residues of positions b0..b0+nb-1),
  /// random background to the end.
  std::vector<std::uint8_t> cut_sequence(int gap, int b0, int nb,
                                         std::uint64_t seed) const {
    Pcg32 rng(seed);
    auto seq = bio::random_sequence(kFloorL, rng).codes;
    std::size_t i = 300;
    for (int k = kCut - 39; k <= kCut; ++k) seq[i++] = best_residue(hmm, k);
    i += static_cast<std::size_t>(gap);
    for (int k = b0; k < b0 + nb; ++k) seq[i++] = best_residue(hmm, k);
    return seq;
  }
};

const FloorModel& floor_model() {
  static const FloorModel m;
  return m;
}

TEST(VitFloor, ZeroProbabilityTransitionsAreNegInfWordsMidModel) {
  const auto& v = floor_model().vit;
  EXPECT_EQ(v.tmm_in(kCut + 1), kWordNegInf);
  EXPECT_EQ(v.tim_in(kCut + 1), kWordNegInf);
  EXPECT_EQ(v.tdm_in(kCut / 2 + 1), kWordNegInf);
  EXPECT_EQ(v.tmi_at(kCut / 2 + 7), kWordNegInf);
  EXPECT_EQ(v.tii_at(kCut / 2 + 13), kWordNegInf);
  EXPECT_EQ(v.tmd_out(kCut), kWordNegInf);
  EXPECT_EQ(v.tdd_out(kCut - 1), kWordNegInf);
  // The insert trap costs nothing to enter or stay in.
  EXPECT_EQ(v.tmi_at(kCut), 0);
  EXPECT_EQ(v.tii_at(kCut), 0);
  // The rare residue is finite, and deep enough that xBv + msc falls
  // below -32767 at every position.
  for (int k = 1; k <= kFloorM; ++k) {
    ASSERT_GT(v.msc(kRareW, k), kWordNegInf) << "k=" << k;
    ASSERT_LT(v.msc(kRareW, k), -30000) << "k=" << k;
  }
}

TEST(VitFloor, NegativeEntryFloorAndSaturatingHomologMatchScalar) {
  const FloorModel& fm = floor_model();
  // xBv on row 1 already: xN + move + entry with xN = kBase.
  const auto lm = fm.vit.length_model_for(static_cast<int>(kFloorL));
  const std::int16_t xbv0 =
      sat_add_word(sat_add_word(profile::VitProfile::kBase, lm.move),
                   fm.vit.entry());
  ASSERT_LT(xbv0, 0);
  const auto seq = fm.cut_sequence(0, kCut + 1, 0, 1);
  const RefResult r = ref_vit(fm.vit, seq, RefAdds::all(Add::kSticky));
  EXPECT_LT(r.min_xbv, 0);
  EXPECT_EQ(r.max_m, kWordMax) << "segment A must saturate";
  expect_every_tier_matches_scalar(fm.vit, seq, "saturating homolog");

  Pcg32 rng(3);
  for (int rep = 0; rep < 2; ++rep) {
    const auto hom = hmm::sample_homolog(fm.base, rng).codes;
    expect_every_tier_matches_scalar(fm.vit, hom,
                                     "homolog " + std::to_string(rep));
  }
}

/// For the tMM, tIM and tMD adds out of the cut: a sequence on which the
/// reference DP without that term's -inf rule scores differently — segment
/// B is lengthened until the uncapped path (starting at about -1 instead
/// of xBv) saturates where the true path does not.
TEST(VitFloor, CutSequencesThatADroppedNegInfRuleWouldMove) {
  const FloorModel& fm = floor_model();
  struct Variant {
    Term term;
    int gap;  // rows between segment A and segment B
    int b0;   // first model position of segment B
  };
  const Variant variants[] = {{kMM, 0, kCut + 1},   // M_k0 -> M_k0+1
                              {kIM, 1, kCut + 1},   // I_k0 -> M_k0+1
                              {kMD, 0, kCut + 2}};  // M_k0 -> D -> M
  for (const Variant& v : variants) {
    RefAdds uncapped = RefAdds::all(Add::kSticky);
    uncapped.term[v.term] = Add::kNoCap;
    bool found = false;
    // For this model the window opens at about 19 positions of segment B.
    for (int nb = 14; nb <= 40 && !found; ++nb) {
      const auto seq = fm.cut_sequence(v.gap, v.b0, nb, 2);
      const float want =
          ref_vit(fm.vit, seq, RefAdds::all(Add::kSticky)).score;
      if (bits(ref_vit(fm.vit, seq, uncapped).score) == bits(want)) continue;
      found = true;
      expect_every_tier_matches_scalar(
          fm.vit, seq,
          std::string("cut ") + kTermNames[v.term] + " nb=" +
              std::to_string(nb));
    }
    EXPECT_TRUE(found) << "no sequence is sensitive to the "
                       << kTermNames[v.term] << " -inf rule";
  }
}

TEST(VitFloor, EmissionClampKeepsARowOfTheRareResidueFinite) {
  const FloorModel& fm = floor_model();
  std::vector<std::uint8_t> seq(kFloorL, kRareW);
  const float want = cpu::vit_scalar(fm.vit, seq.data(), seq.size()).score_nats;
  ASSERT_TRUE(std::isfinite(want));
  RefAdds unclamped = RefAdds::all(Add::kSticky);
  unclamped.emit_clamp = false;
  ASSERT_EQ(ref_vit(fm.vit, seq, unclamped).score, -INFINITY)
      << "without the -32767 clamp every M cell would be -inf";
  expect_every_tier_matches_scalar(fm.vit, seq, "all W");
  // The same rows mixed with ordinary residues.
  Pcg32 rng(9);
  auto mixed = bio::random_sequence(kFloorL, rng).codes;
  for (std::size_t i = 0; i < mixed.size(); i += 2) mixed[i] = kRareW;
  expect_every_tier_matches_scalar(fm.vit, mixed, "W every other row");
}

// ---- Degenerate sequences and lane-boundary model lengths ----------------

struct SmallModel {
  hmm::Plan7Hmm hmm;
  hmm::SearchProfile prof;
  profile::VitProfile vit;

  SmallModel(int M, std::uint64_t seed, double delete_extend)
      : hmm([&] {
          hmm::RandomHmmSpec spec;
          spec.length = M;
          spec.seed = seed;
          spec.indel_open = 0.1;
          spec.delete_extend = delete_extend;
          return hmm::generate_hmm(spec);
        }()),
        prof(hmm, hmm::AlignMode::kLocalMultihit, 300),
        vit(prof) {}
};

TEST(VitFloor, AllDegenerateSequencesMatchScalar) {
  for (int M : {1, 17, 200, 1002}) {
    const SmallModel m(M, 40 + static_cast<std::uint64_t>(M), 0.5);
    Pcg32 rng(static_cast<std::uint64_t>(M));
    for (std::size_t L : {1, 5, 120, 700}) {
      std::vector<std::uint8_t> seq(L);
      for (auto& c : seq)
        c = static_cast<std::uint8_t>(bio::kCodeB + rng.below(6));
      expect_every_tier_matches_scalar(
          m.vit, seq,
          "degenerate M=" + std::to_string(M) + " L=" + std::to_string(L));
      const std::vector<std::uint8_t> all_x(L, bio::kCodeX);
      expect_every_tier_matches_scalar(
          m.vit, all_x,
          "all X M=" + std::to_string(M) + " L=" + std::to_string(L));
    }
  }
}

TEST(VitFloor, ModelLengthsAroundEveryLaneCountMatchScalar) {
  int passes[8] = {};
  for (int N : {8, 16, 32})
    for (int M : {1, 2, N - 1, N, N + 1, 2 * N + 1}) {
      // Long delete runs push D chains across lane boundaries (Lazy-F).
      const SmallModel m(M, 100 + static_cast<std::uint64_t>(M), 0.9);
      Pcg32 rng(static_cast<std::uint64_t>(M) * 7 + 1);
      const std::string at = "N=" + std::to_string(N) + " M=" +
                             std::to_string(M);
      for (std::size_t L : {1, 2, 60, 400})
        expect_every_tier_matches_scalar(
            m.vit, bio::random_sequence(L, rng).codes,
            at + " random L=" + std::to_string(L), passes);
      for (int rep = 0; rep < 4; ++rep)
        expect_every_tier_matches_scalar(
            m.vit, hmm::sample_homolog(m.hmm, rng).codes,
            at + " homolog " + std::to_string(rep), passes);
    }
  for (SimdTier tier : cpu::supported_simd_tiers())
    EXPECT_GT(passes[static_cast<int>(tier)], 0)
        << cpu::simd_tier_name(tier) << ": no case took a Lazy-F wrap pass";
}

}  // namespace
