// Width-templated striped MSV: every lane count must reproduce the
// scalar reference byte-exactly.
#include <gtest/gtest.h>

#include "bio/synthetic.hpp"
#include "cpu/msv_scalar.hpp"
#include "cpu/stripes.hpp"
#include "hmm/generator.hpp"
#include "hmm/sampler.hpp"

namespace {

using namespace finehmm;

template <int N>
void check_width(int M, std::uint64_t seed) {
  auto model = hmm::paper_model(M);
  hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 400);
  profile::MsvProfile msv(prof);
  cpu::MsvStripes stripes(msv, N);
  Pcg32 rng(seed);
  for (int rep = 0; rep < 12; ++rep) {
    auto seq = rep % 3 == 0 ? hmm::sample_homolog(model, rng)
                            : bio::random_sequence(1 + rng.below(400), rng);
    auto ref = cpu::msv_scalar(msv, seq.codes.data(), seq.length());
    auto wide =
        cpu::msv_striped_wide<N>(msv, stripes, seq.codes.data(), seq.length());
    EXPECT_EQ(wide.overflowed, ref.overflowed)
        << "N=" << N << " M=" << M << " rep=" << rep;
    EXPECT_FLOAT_EQ(wide.score_nats, ref.score_nats)
        << "N=" << N << " M=" << M << " rep=" << rep;
  }
}

class WideMsv : public ::testing::TestWithParam<int> {};

TEST_P(WideMsv, SseWidthMatchesScalar) { check_width<16>(GetParam(), 3); }
TEST_P(WideMsv, Avx2WidthMatchesScalar) { check_width<32>(GetParam(), 4); }
TEST_P(WideMsv, Avx512WidthMatchesScalar) { check_width<64>(GetParam(), 5); }
TEST_P(WideMsv, TinyWidthMatchesScalar) { check_width<4>(GetParam(), 6); }

INSTANTIATE_TEST_SUITE_P(Sizes, WideMsv,
                         ::testing::Values(1, 15, 16, 17, 63, 64, 65, 200),
                         ::testing::PrintToStringParamName());

TEST(WideMsv, AllWidthsAgreeWithEachOther) {
  auto model = hmm::paper_model(100);
  hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 400);
  profile::MsvProfile msv(prof);
  cpu::MsvStripes s16(msv, 16);
  cpu::MsvStripes s32(msv, 32);
  cpu::MsvStripes s64(msv, 64);
  Pcg32 rng(7);
  auto seq = bio::random_sequence(333, rng);
  auto a = cpu::msv_striped_wide<16>(msv, s16, seq.codes.data(), 333);
  auto b = cpu::msv_striped_wide<32>(msv, s32, seq.codes.data(), 333);
  auto c = cpu::msv_striped_wide<64>(msv, s64, seq.codes.data(), 333);
  EXPECT_FLOAT_EQ(a.score_nats, b.score_nats);
  EXPECT_FLOAT_EQ(b.score_nats, c.score_nats);
}

}  // namespace
