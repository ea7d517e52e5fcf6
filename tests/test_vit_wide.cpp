// Width-templated ViterbiFilter: bit-exact with the scalar reference at
// every lane count, including delete-heavy Lazy-F stress.
#include <gtest/gtest.h>

#include "bio/synthetic.hpp"
#include "cpu/vit_scalar.hpp"
#include "cpu/stripes.hpp"
#include "hmm/generator.hpp"
#include "hmm/sampler.hpp"

namespace {

using namespace finehmm;

template <int N>
void check_width(int M, double delete_extend, std::uint64_t seed) {
  hmm::RandomHmmSpec spec;
  spec.length = M;
  spec.seed = seed;
  spec.delete_extend = delete_extend;
  spec.indel_open = delete_extend > 0.7 ? 0.1 : 0.02;
  auto model = hmm::generate_hmm(spec);
  hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 300);
  profile::VitProfile vit(prof);
  cpu::VitStripes stripes(vit, N);
  Pcg32 rng(seed + 1);
  for (int rep = 0; rep < 10; ++rep) {
    auto seq = rep % 3 == 0 ? hmm::sample_homolog(model, rng)
                            : bio::random_sequence(1 + rng.below(350), rng);
    auto ref = cpu::vit_scalar(vit, seq.codes.data(), seq.length());
    auto wide =
        cpu::vit_striped_wide<N>(vit, stripes, seq.codes.data(), seq.length());
    EXPECT_FLOAT_EQ(wide.score_nats, ref.score_nats)
        << "N=" << N << " M=" << M << " rep=" << rep;
  }
}

class WideVit : public ::testing::TestWithParam<int> {};

TEST_P(WideVit, SseWidthMatchesScalar) { check_width<8>(GetParam(), 0.5, 3); }
TEST_P(WideVit, Avx2WidthMatchesScalar) {
  check_width<16>(GetParam(), 0.5, 4);
}
TEST_P(WideVit, Avx512WidthMatchesScalar) {
  check_width<32>(GetParam(), 0.5, 5);
}
TEST_P(WideVit, DeleteHeavyLazyFAllWidths) {
  check_width<8>(GetParam(), 0.85, 6);
  check_width<16>(GetParam(), 0.85, 6);
  check_width<32>(GetParam(), 0.85, 6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WideVit,
                         ::testing::Values(1, 7, 8, 9, 31, 33, 128),
                         ::testing::PrintToStringParamName());

}  // namespace
