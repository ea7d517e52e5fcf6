// google-benchmark micro suite: real host-machine throughput of every
// scoring engine (these are wall-clock numbers on THIS machine, unlike
// the figure benches, which model the paper's hardware).
#include <benchmark/benchmark.h>

#include "bio/packing.hpp"
#include "bio/synthetic.hpp"
#include "cpu/fwd_filter.hpp"
#include "cpu/generic.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/msv_scalar.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/stripes.hpp"
#include "cpu/vit_filter.hpp"
#include "cpu/vit_scalar.hpp"
#include "gpu/search.hpp"
#include "hmm/generator.hpp"

namespace {

using namespace finehmm;

struct MicroFixture {
  hmm::Plan7Hmm model;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;
  profile::VitProfile vit;
  bio::Sequence seq;

  explicit MicroFixture(int M)
      : model(hmm::paper_model(M)),
        prof(model, hmm::AlignMode::kLocalMultihit, 400),
        msv(prof),
        vit(prof) {
    Pcg32 rng(1);
    seq = bio::random_sequence(400, rng);
  }
};

MicroFixture& fixture(int M) {
  static MicroFixture f100(100);
  static MicroFixture f400(400);
  static MicroFixture f1002(1002);
  if (M == 100) return f100;
  if (M == 400) return f400;
  return f1002;
}

void set_cell_rate(benchmark::State& state, int M) {
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 400.0 * M,
      benchmark::Counter::kIsRate);
}

void BM_MsvScalar(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cpu::msv_scalar(f.msv, f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_MsvScalar)->Arg(100)->Arg(400)->Arg(1002);

void BM_MsvStriped(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  cpu::MsvFilter filter(f.msv);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        filter.score(f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_MsvStriped)->Arg(100)->Arg(400)->Arg(1002);

// msv_striped_wide<N> is the portable specification at width N (U8xN<N>
// lane loops), not a native tier: the AVX2/AVX-512 MSV rates are
// BM_MsvStripedTier's.
template <int N>
void BM_MsvWide(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  cpu::MsvStripes stripes(f.msv, N);
  for (auto _ : state)
    benchmark::DoNotOptimize(cpu::msv_striped_wide<N>(
        f.msv, stripes, f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_MsvWide<32>)->Arg(400);
BENCHMARK(BM_MsvWide<64>)->Arg(400);

// Per-tier variants: range(1) is the SimdTier (0 portable / 1 sse2 /
// 2 avx2); tiers this host can't run are skipped, not failed.  The AVX2
// vs. portable ratio here is the tentpole's headline number.
void BM_MsvStripedTier(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  const auto tier = static_cast<cpu::SimdTier>(state.range(1));
  if (!cpu::simd_tier_supported(tier)) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  cpu::MsvFilter filter(f.msv, tier);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        filter.score(f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
  state.SetLabel(cpu::simd_tier_name(filter.tier()));
}
BENCHMARK(BM_MsvStripedTier)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Args({400, 2})
    ->Args({1002, 0})
    ->Args({1002, 2});

void BM_VitStripedTier(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  const auto tier = static_cast<cpu::SimdTier>(state.range(1));
  if (!cpu::simd_tier_supported(tier)) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  cpu::VitFilter filter(f.vit, tier);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        filter.score(f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
  state.SetLabel(cpu::simd_tier_name(filter.tier()));
}
BENCHMARK(BM_VitStripedTier)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Args({400, 2})
    ->Args({1002, 0})
    ->Args({1002, 2});

void BM_VitScalar(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cpu::vit_scalar(f.vit, f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_VitScalar)->Arg(100)->Arg(400);

void BM_VitStriped(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  cpu::VitFilter filter(f.vit);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        filter.score(f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_VitStriped)->Arg(100)->Arg(400);

void BM_SsvStriped(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  cpu::MsvFilter filter(f.msv);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        filter.ssv(f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_SsvStriped)->Arg(100)->Arg(400);

void BM_FwdFilterStriped(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  profile::FwdProfile fwd(f.prof);
  cpu::FwdFilter filter(fwd);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        filter.score(f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_FwdFilterStriped)->Arg(100)->Arg(400);

void BM_GenericForward(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cpu::generic_forward(f.prof, f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_GenericForward)->Arg(100)->Arg(400);

void BM_SimtMsvKernel(benchmark::State& state) {
  // Functional simulator speed (not GPU speed): warp MSV over a small DB.
  const int M = static_cast<int>(state.range(0));
  auto& f = fixture(M);
  Pcg32 rng(7);
  bio::SequenceDatabase db;
  for (int i = 0; i < 16; ++i) db.add(bio::random_sequence(300, rng));
  bio::PackedDatabase packed(db);
  gpu::GpuSearch search(simt::DeviceSpec::tesla_k40());
  for (auto _ : state)
    benchmark::DoNotOptimize(
        search.run_msv(f.msv, packed, gpu::ParamPlacement::kShared));
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 16 * 300.0 * M,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimtMsvKernel)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_ResiduePacking(benchmark::State& state) {
  Pcg32 rng(3);
  auto seq = bio::random_sequence(10000, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(bio::pack_residues(seq.codes));
  state.counters["residues/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 10000.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ResiduePacking);

}  // namespace

BENCHMARK_MAIN();
