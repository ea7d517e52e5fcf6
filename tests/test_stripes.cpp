// The one stripe layout: cpu::Striping and the three runtime-width
// parameter builders (MsvStripes, VitStripes, FwdStripes).
//
// Farrar striping at N lanes puts model position k = j*Q + q + 1 in
// stripe q, lane j, with Q = ceil(M/N) stripes.  These tests walk every
// (stripe, lane) slot of every array in that order — the inverse of the
// helper's formula — and check that a slot holds its position's
// per-profile value, or the family's neutral pad past position M: cost
// 255 for MSV bytes, -inf (-32768) for Viterbi words, 0 for Forward
// probabilities.  Every tier width of every family is covered (bytes
// 16/32/64, words 8/16/32, floats 4/8/16); the builders take any lane
// count, so each family runs at all five.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpu/stripes.hpp"
#include "hmm/generator.hpp"
#include "hmm/profile.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"

namespace {

using namespace finehmm;
using cpu::Striping;

constexpr int kWidths[] = {4, 8, 16, 32, 64};

std::vector<int> lengths_for(int N) {
  return {1, N - 1, N, N + 1, 2 * N + 1, 333};
}

struct Model {
  hmm::Plan7Hmm hmm;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;
  profile::VitProfile vit;
  profile::FwdProfile fwd;
  explicit Model(int M)
      : hmm(hmm::paper_model(M)),
        prof(hmm, hmm::AlignMode::kLocalMultihit, 400),
        msv(prof),
        vit(prof),
        fwd(prof) {}
};

std::string where(const char* what, int N, int M) {
  return std::string(what) + " N=" + std::to_string(N) +
         " M=" + std::to_string(M);
}

/// Walk a Q*N array stripe by stripe: slot q*N + j holds position
/// j*Q + q + 1 when that is <= M, else `pad`.  Returns the number of
/// mismatching slots (reported once, not per slot).
template <class T, class At>
int mismatches(const T* arr, int M, int N, int Q, T pad, At&& at) {
  int bad = 0;
  for (int q = 0; q < Q; ++q)
    for (int j = 0; j < N; ++j) {
      const int k = j * Q + q + 1;
      const T want = k <= M ? at(k) : pad;
      if (!(arr[static_cast<std::size_t>(q) * N + j] == want)) ++bad;
    }
  return bad;
}

TEST(StripeLayout, SlotIsStripeTimesLanesPlusLane) {
  for (int N : kWidths)
    for (int M : lengths_for(N)) {
      const Striping s = Striping::of(M, N);
      ASSERT_EQ(s.Q, (M + N - 1) / N) << where("Q", N, M);
      ASSERT_EQ(s.N, N);
      EXPECT_EQ(s.size(), static_cast<std::size_t>(s.Q) * N);
      for (int q = 0; q < s.Q; ++q)
        for (int j = 0; j < N; ++j) {
          const int k = j * s.Q + q + 1;
          if (k > M) continue;
          EXPECT_EQ(s.stripe(k), q) << where("stripe", N, M) << " k=" << k;
          EXPECT_EQ(s.lane(k), j) << where("lane", N, M) << " k=" << k;
          EXPECT_EQ(s.slot(k), static_cast<std::size_t>(q) * N + j)
              << where("slot", N, M) << " k=" << k;
        }
    }
}

TEST(StripeLayout, MsvStripesPlaceEveryCostAndPadWith255) {
  for (int N : kWidths)
    for (int M : lengths_for(N)) {
      const Model m(M);
      const cpu::MsvStripes st(m.msv, N);
      const int Q = (M + N - 1) / N;
      ASSERT_EQ(st.segments(), Q) << where("msv", N, M);
      ASSERT_EQ(st.lanes(), N);
      for (int x = 0; x < bio::kKp; ++x)
        EXPECT_EQ(mismatches(st.row(x), M, N, Q, std::uint8_t{255},
                             [&](int k) { return m.msv.cost(x, k); }),
                  0)
            << where("msv", N, M) << " x=" << x;
    }
}

TEST(StripeLayout, VitStripesPlaceEveryWordAndPadWithNegInf) {
  using profile::kWordNegInf;
  for (int N : kWidths)
    for (int M : lengths_for(N)) {
      const Model m(M);
      const cpu::VitStripes st(m.vit, N);
      const int Q = (M + N - 1) / N;
      ASSERT_EQ(st.segments(), Q) << where("vit", N, M);
      ASSERT_EQ(st.lanes(), N);
      const auto v = st.view();
      ASSERT_EQ(v.Q, Q);
      const std::size_t row = static_cast<std::size_t>(Q) * N;
      for (int x = 0; x < bio::kKp; ++x)
        EXPECT_EQ(mismatches(v.msc + x * row, M, N, Q, kWordNegInf,
                             [&](int k) { return m.vit.msc(x, k); }),
                  0)
            << where("vit msc", N, M) << " x=" << x;
      const profile::VitProfile& p = m.vit;
      auto check = [&](const std::int16_t* arr, auto at, const char* what) {
        EXPECT_EQ(mismatches(arr, M, N, Q, kWordNegInf, at), 0)
            << where(what, N, M);
      };
      check(v.tmm, [&](int k) { return p.tmm_in(k); }, "vit tmm");
      check(v.tim, [&](int k) { return p.tim_in(k); }, "vit tim");
      check(v.tdm, [&](int k) { return p.tdm_in(k); }, "vit tdm");
      check(v.tmi, [&](int k) { return p.tmi_at(k); }, "vit tmi");
      check(v.tii, [&](int k) { return p.tii_at(k); }, "vit tii");
      check(v.tmd, [&](int k) { return p.tmd_out(k); }, "vit tmd");
      check(v.tdd, [&](int k) { return p.tdd_out(k); }, "vit tdd");
    }
}

TEST(StripeLayout, FwdStripesPlaceEveryProbabilityAndPadWithZero) {
  for (int N : kWidths)
    for (int M : lengths_for(N)) {
      const Model m(M);
      const cpu::FwdStripes st(m.fwd, N);
      const int Q = (M + N - 1) / N;
      ASSERT_EQ(st.segments(), Q) << where("fwd", N, M);
      ASSERT_EQ(st.lanes(), N);
      ASSERT_EQ(st.row_floats(), static_cast<std::size_t>(Q) * N);
      const auto v = st.view();
      ASSERT_EQ(v.Q, Q);
      EXPECT_EQ(v.entry, m.fwd.entry());
      const std::size_t row = st.row_floats();
      for (int x = 0; x < bio::kKp; ++x)
        EXPECT_EQ(mismatches(v.odds + x * row, M, N, Q, 0.0f,
                             [&](int k) { return m.fwd.odds_at(x, k); }),
                  0)
            << where("fwd odds", N, M) << " x=" << x;
      const profile::FwdProfile& p = m.fwd;
      auto check = [&](const float* arr, auto at, const char* what) {
        EXPECT_EQ(mismatches(arr, M, N, Q, 0.0f, at), 0) << where(what, N, M);
      };
      check(v.tmm, [&](int k) { return p.tmm_at(k); }, "fwd tmm");
      check(v.tim, [&](int k) { return p.tim_at(k); }, "fwd tim");
      check(v.tdm, [&](int k) { return p.tdm_at(k); }, "fwd tdm");
      check(v.tmi, [&](int k) { return p.tmi_at(k); }, "fwd tmi");
      check(v.tii, [&](int k) { return p.tii_at(k); }, "fwd tii");
      check(v.tmd, [&](int k) { return p.tmd_in_at(k); }, "fwd tmd");
      check(v.tdd, [&](int k) { return p.tdd_in_at(k); }, "fwd tdd");
      // Out-indexed: position k holds the k -> k+1 value, zero at k = M.
      auto next = [&](float (profile::FwdProfile::*at)(int) const) {
        return [&p, at, M](int k) { return k < M ? (p.*at)(k + 1) : 0.0f; };
      };
      check(v.tmm_out, next(&profile::FwdProfile::tmm_at), "fwd tmm_out");
      check(v.tim_out, next(&profile::FwdProfile::tim_at), "fwd tim_out");
      check(v.tdm_out, next(&profile::FwdProfile::tdm_at), "fwd tdm_out");
      check(v.tmd_out, next(&profile::FwdProfile::tmd_in_at), "fwd tmd_out");
      check(v.tdd_out, next(&profile::FwdProfile::tdd_in_at), "fwd tdd_out");
    }
}

}  // namespace
