// The portable lane classes are the specification of every native row.
//
// At each supported tier, every backend::TierKernels entry must return
// bit for bit what the same kernel returns when instantiated with
// cpu::U8xN / I16xN / F32xN at that tier's lane counts.  For the byte and
// word kernels that also follows from the scalar references; for the
// float kernels it is the whole contract: Forward/Backward sums round by
// lane count, so a native float class (and the way its TU is compiled —
// no FMA contraction) must add and multiply exactly as the spec does at
// the same width.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bio/packing.hpp"
#include "bio/synthetic.hpp"
#include "cpu/stripes.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/msv_group.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/denormals.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/simd_vec.hpp"
#include "cpu/trace.hpp"
#include "cpu/vit_filter.hpp"
#include "hmm/generator.hpp"
#include "hmm/profile.hpp"
#include "hmm/sampler.hpp"

namespace {

using namespace finehmm;
using cpu::FilterResult;
using cpu::SimdTier;
namespace backend = cpu::backend;
namespace k = cpu::simd_kernels;

/// The spec row at a native row's lane geometry.
const backend::TierKernels& spec_row(const backend::TierKernels& native) {
  using cpu::F32xN;
  using cpu::I16xN;
  using cpu::U8xN;
  constexpr SimdTier kSpec = SimdTier::kPortable;
  static constexpr backend::TierKernels kRows[] = {
      backend::make_tier_row<U8xN<16>, I16xN<8>, F32xN<4>>(kSpec),
      backend::make_tier_row<U8xN<32>, I16xN<16>, F32xN<8>>(kSpec),
      backend::make_tier_row<U8xN<64>, I16xN<32>, F32xN<16>>(kSpec)};
  for (const auto& row : kRows)
    if (row.u8_lanes == native.u8_lanes) return row;
  throw std::runtime_error("no spec row for this lane geometry");
}

struct Model {
  hmm::Plan7Hmm hmm;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;
  profile::VitProfile vit;
  profile::FwdProfile fwd;

  Model(int M, std::uint64_t seed)
      : hmm([&] {
          hmm::RandomHmmSpec spec;
          spec.length = M;
          spec.seed = seed;
          return hmm::generate_hmm(spec);
        }()),
        prof(hmm, hmm::AlignMode::kLocalMultihit, 400),
        msv(prof),
        vit(prof),
        fwd(prof) {}
};

/// Random draws of several lengths, a homolog, and a long repeat of the
/// residue the MSV profile scores best (drives the byte filters into
/// overflow and the word filter toward its clamp).
std::vector<std::vector<std::uint8_t>> test_sequences(const Model& m,
                                                      Pcg32& rng) {
  std::vector<std::vector<std::uint8_t>> seqs;
  for (std::size_t L : {1, 2, 37, 300})
    seqs.push_back(bio::random_sequence(L, rng).codes);
  seqs.push_back(hmm::sample_homolog(m.hmm, rng).codes);
  int best = 0;
  long best_cost = -1;
  for (int x = 0; x < bio::kK; ++x) {
    long cost = 0;
    for (int kk = 0; kk < m.msv.length(); ++kk) cost += m.msv.linear_row(x)[kk];
    if (best_cost < 0 || cost < best_cost) {
      best = x;
      best_cost = cost;
    }
  }
  seqs.emplace_back(600, static_cast<std::uint8_t>(best));
  return seqs;
}

void expect_same(const FilterResult& want, const FilterResult& got,
                 const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint32_t>(want.score_nats),
            std::bit_cast<std::uint32_t>(got.score_nats))
      << what << ": " << want.score_nats << " vs " << got.score_nats;
  EXPECT_EQ(want.overflowed, got.overflowed) << what;
}

void expect_same_floats(const std::vector<float>& want,
                        const std::vector<float>& got,
                        const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want[i]),
              std::bit_cast<std::uint32_t>(got[i]))
        << what << " at " << i << ": " << want[i] << " vs " << got[i];
}

/// Checkpointed Forward/Backward workspace for rows of n floats and a
/// length-L sequence (the FwdFilter::decode plan).
struct FwdBwdBuffers {
  std::vector<float> rows, snap, blk, row_xb, row_inv, bwd, mocc;
  std::vector<double> row_scale;
  k::FwdBwdScratch ws;

  FwdBwdBuffers(std::size_t n, std::size_t L) {
    ws.block = static_cast<int>(std::ceil(std::sqrt(double(L))));
    ws.n_blocks = static_cast<int>((L + ws.block - 1) / ws.block);
    rows.assign(3 * n, 0.0f);
    snap.assign(static_cast<std::size_t>(ws.n_blocks) * 3 * n, 0.0f);
    blk.assign(2 * static_cast<std::size_t>(ws.block) * n, 0.0f);
    row_xb.assign(L + 1, 0.0f);
    row_inv.assign(L + 1, 0.0f);
    row_scale.assign(L + 1, 0.0);
    bwd.assign(4 * n, 0.0f);
    mocc.assign(L, 0.0f);
    ws.mmx = rows.data();
    ws.imx = rows.data() + n;
    ws.dmx = rows.data() + 2 * n;
    ws.snap = snap.data();
    ws.blk_m = blk.data();
    ws.blk_i = blk.data() + static_cast<std::size_t>(ws.block) * n;
    ws.row_xb = row_xb.data();
    ws.row_inv = row_inv.data();
    ws.row_scale = row_scale.data();
    ws.bwd_m = bwd.data();
    ws.bwd_i = bwd.data() + n;
    ws.bwd_d = bwd.data() + 2 * n;
    ws.bwd_on = bwd.data() + 3 * n;
  }
};

/// Trace workspace and its outputs for rows of n floats over L residues.
struct TraceBuffers {
  std::vector<float> rows;
  std::vector<std::uint8_t> bp, bj, bc, bb;
  std::vector<int> be;
  k::TraceScratch ws;

  TraceBuffers(std::size_t n, std::size_t L)
      : rows(3 * n, 0.0f),
        bp((L + 1) * (n / 2), 0),
        bj(L + 1, 0),
        bc(L + 1, 0),
        bb(L + 1, 0),
        be(L + 1, 0) {
    ws.mmx = rows.data();
    ws.imx = rows.data() + n;
    ws.dmx = rows.data() + 2 * n;
    ws.bp = bp.data();
    ws.be = be.data();
    ws.bj = bj.data();
    ws.bc = bc.data();
    ws.bb = bb.data();
  }
};

/// Group scratch: xb | trigger | xe lanes, plus per-model outputs.
struct GroupBuffers {
  std::vector<std::uint8_t> lanes, xj, tjb, overflowed;
  k::MsvGroupState st;

  GroupBuffers(const cpu::FusedMsvGroup& g, std::size_t L)
      : lanes(3 * static_cast<std::size_t>(g.lanes()), 0),
        xj(g.size(), 0),
        tjb(g.size(), 0),
        overflowed(g.size(), 0) {
    for (std::size_t m = 0; m < g.size(); ++m)
      tjb[m] = g.member(m).tjb_for(static_cast<int>(L));
    st.xb = lanes.data();
    st.trigger = lanes.data() + g.lanes();
    st.xe = lanes.data() + 2 * g.lanes();
    st.xj = xj.data();
    st.tjb = tjb.data();
    st.overflowed = overflowed.data();
  }
};

/// Smallest stripe count that fits every member's span into N lanes.
int fit_q(const std::vector<const profile::MsvProfile*>& members, int N) {
  for (int Q = 1;; ++Q) {
    int used = 0;
    for (const auto* p : members) used += p->length() / Q + 1;
    if (used <= N) return Q;
  }
}

TEST(TierSpec, EveryRowEntryMatchesThePortableSpecAtItsWidth) {
  const Model nb1(30, 5), nb2(61, 6);  // fused-group neighbours
  for (int M : {48, 400, 1002}) {
    const Model m(M, 7);
    Pcg32 rng(static_cast<std::uint64_t>(M));
    const auto seqs = test_sequences(m, rng);
    const std::vector<const profile::MsvProfile*> members = {&nb1.msv, &m.msv,
                                                             &nb2.msv};
    for (SimdTier tier : cpu::supported_simd_tiers()) {
      const backend::TierKernels& nat = backend::tier_kernels(tier);
      const backend::TierKernels& spec = spec_row(nat);
      ASSERT_EQ(nat.i16_lanes, spec.i16_lanes);
      ASSERT_EQ(nat.f32_lanes, spec.f32_lanes);
      const std::string at = std::string(cpu::simd_tier_name(tier)) +
                             " M=" + std::to_string(M);

      const cpu::MsvStripes rows(m.msv, nat.u8_lanes);
      const cpu::VitStripes vst(m.vit, nat.i16_lanes);
      const cpu::FwdStripes fst(m.fwd, nat.f32_lanes);
      const cpu::TraceStripes tst(m.prof, tier);
      ASSERT_EQ(tst.tier(), tier);
      const cpu::FusedMsvGroup group(members, nat.u8_lanes,
                                     fit_q(members, nat.u8_lanes));
      const std::size_t n8 =
          static_cast<std::size_t>(rows.segments()) * rows.lanes();
      const std::size_t n16 =
          static_cast<std::size_t>(vst.segments()) * vst.lanes();
      const std::size_t n32 = fst.row_floats();
      const std::size_t ntr =
          static_cast<std::size_t>(tst.view().Q) * nat.f32_lanes;
      const std::size_t ngr =
          static_cast<std::size_t>(group.segments()) * group.lanes();
      backend::ScopedFlushDenormals ftz;  // as FwdFilter runs the kernels

      for (const auto& codes : seqs) {
        const std::size_t L = codes.size();
        const std::string w = at + " L=" + std::to_string(L);
        const auto words = bio::pack_residues(codes);
        const bio::PackedResidues packed(words.data());
        const std::uint8_t* seq = codes.data();

        std::vector<std::uint8_t> r8(n8);
        auto check_bytes = [&](auto spec_fn, auto nat_fn, auto s,
                               const char* what) {
          const int Q = rows.segments();
          expect_same(spec_fn(m.msv, rows.row(0), Q, s, L, r8.data()),
                      nat_fn(m.msv, rows.row(0), Q, s, L, r8.data()),
                      w + what);
        };
        check_bytes(spec.msv, nat.msv, seq, " msv");
        check_bytes(spec.msv_packed, nat.msv_packed, packed, " msv packed");
        check_bytes(spec.ssv, nat.ssv, seq, " ssv");
        check_bytes(spec.ssv_packed, nat.ssv_packed, packed, " ssv packed");

        std::vector<std::int16_t> r16(3 * n16);
        int spec_passes = -1, nat_passes = -2;
        expect_same(spec.vit(m.vit, vst.view(), seq, L, r16.data(),
                             r16.data() + n16, r16.data() + 2 * n16,
                             &spec_passes),
                    nat.vit(m.vit, vst.view(), seq, L, r16.data(),
                            r16.data() + n16, r16.data() + 2 * n16,
                            &nat_passes),
                    w + " vit");
        EXPECT_EQ(spec_passes, nat_passes) << w << " vit Lazy-F passes";

        std::vector<float> r32(3 * n32);
        const float fwd_want = spec.fwd(m.fwd, fst.view(), seq, L, r32.data(),
                                        r32.data() + n32, r32.data() + 2 * n32);
        const float fwd_got = nat.fwd(m.fwd, fst.view(), seq, L, r32.data(),
                                      r32.data() + n32, r32.data() + 2 * n32);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(fwd_want),
                  std::bit_cast<std::uint32_t>(fwd_got))
            << w << " fwd: " << fwd_want << " vs " << fwd_got;

        FwdBwdBuffers bw_want(n32, L), bw_got(n32, L);
        const float fb_want = spec.fwd_bwd(m.fwd, fst.view(), seq, L,
                                           bw_want.ws, bw_want.mocc.data());
        const float fb_got = nat.fwd_bwd(m.fwd, fst.view(), seq, L,
                                         bw_got.ws, bw_got.mocc.data());
        EXPECT_EQ(std::bit_cast<std::uint32_t>(fb_want),
                  std::bit_cast<std::uint32_t>(fb_got))
            << w << " fwd_bwd: " << fb_want << " vs " << fb_got;
        expect_same_floats(bw_want.mocc, bw_got.mocc, w + " fwd_bwd mocc");

        TraceBuffers tr_want(ntr, L), tr_got(ntr, L);
        const auto xs = m.prof.xsc_for(static_cast<int>(L));
        const float tr_s = spec.trace(tst.view(), xs, seq, L, tr_want.ws);
        const float tr_n = nat.trace(tst.view(), xs, seq, L, tr_got.ws);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(tr_s),
                  std::bit_cast<std::uint32_t>(tr_n))
            << w << " trace: " << tr_s << " vs " << tr_n;
        EXPECT_EQ(tr_want.bp, tr_got.bp) << w << " trace backpointers";
        EXPECT_EQ(tr_want.be, tr_got.be) << w << " trace exits";
        EXPECT_EQ(tr_want.bj, tr_got.bj) << w << " trace J";
        EXPECT_EQ(tr_want.bc, tr_got.bc) << w << " trace C";
        EXPECT_EQ(tr_want.bb, tr_got.bb) << w << " trace B";

        // Lanes-as-samples Forward: lane j scores this sequence rotated
        // left by j residues.
        const std::size_t nf = static_cast<std::size_t>(nat.f32_lanes);
        std::vector<std::uint8_t> lanes(nf * L);
        for (std::size_t j = 0; j < nf; ++j)
          std::rotate_copy(codes.begin(),
                           codes.begin() + static_cast<std::ptrdiff_t>(j % L),
                           codes.end(), lanes.begin() +
                                            static_cast<std::ptrdiff_t>(j * L));
        std::vector<float> fl_dp(3 * static_cast<std::size_t>(M) * nf);
        std::vector<float> fl_want(nf), fl_got(nf);
        spec.fwd_lanes(m.prof, lanes.data(), L, fl_dp.data(), fl_want.data());
        nat.fwd_lanes(m.prof, lanes.data(), L, fl_dp.data(), fl_got.data());
        expect_same_floats(fl_want, fl_got, w + " fwd_lanes");

        std::vector<std::uint8_t> rg(ngr);
        auto check_group = [&](auto spec_fn, auto nat_fn, auto s,
                               const char* what) {
          GroupBuffers want(group, L), got(group, L);
          spec_fn(group.view(), want.st, s, L, rg.data());
          nat_fn(group.view(), got.st, s, L, rg.data());
          EXPECT_EQ(want.xj, got.xj) << w << what << " xJ";
          EXPECT_EQ(want.overflowed, got.overflowed) << w << what;
        };
        check_group(spec.msv_group, nat.msv_group, seq, " msv_group");
        check_group(spec.msv_group_packed, nat.msv_group_packed, packed,
                    " msv_group packed");
        check_group(spec.ssv_group, nat.ssv_group, seq, " ssv_group");
        check_group(spec.ssv_group_packed, nat.ssv_group_packed, packed,
                    " ssv_group packed");
      }
    }
  }
}

}  // namespace
