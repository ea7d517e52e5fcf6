#include "pipeline/batch_scanner.hpp"

#include <memory>

#include "cpu/simd_backend/backend.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace finehmm::pipeline {

BatchScanner::BatchScanner(const profile::MsvProfile& msv,
                           const profile::VitProfile& vit,
                           const profile::FwdProfile* fwd,
                           std::size_t workers, cpu::SimdTier tier)
    : tier_(cpu::resolve_simd_tier(tier)) {
  FH_REQUIRE(workers >= 1, "need at least one worker");

  // Immutable stripes for the resolved tier, built once and shared by
  // every worker.
  const cpu::backend::TierKernels& ops = cpu::backend::tier_kernels(tier_);
  auto msv_stripes = std::make_shared<const cpu::MsvStripes>(msv, ops.u8_lanes);
  auto vit_stripes =
      std::make_shared<const cpu::VitStripes>(vit, ops.i16_lanes);
  std::shared_ptr<const cpu::FwdStripes> fwd_stripes;
  if (fwd != nullptr)
    fwd_stripes = std::make_shared<const cpu::FwdStripes>(*fwd, ops.f32_lanes);

  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    Worker worker{cpu::MsvFilter(msv, tier_, msv_stripes),
                  cpu::VitFilter(vit, tier_, vit_stripes), std::nullopt,
                  WorkerLoad{}};
    if (fwd != nullptr) worker.fwd.emplace(*fwd, tier_, fwd_stripes);
    workers_.push_back(std::move(worker));
  }
}

namespace {

// Kernels require L >= 1; an empty sequence cannot contain a match, so
// every stage scores it as the default no-hit result (-inf nats).
constexpr bool empty_no_hit(std::size_t L) { return L == 0; }

}  // namespace

cpu::FilterResult BatchScanner::ssv(std::size_t w, const std::uint8_t* seq,
                                    std::size_t L) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.ssv_calls;
  workers_[w].load.residues += L;
  return workers_[w].msv.ssv(seq, L);
}

cpu::FilterResult BatchScanner::ssv(std::size_t w, bio::PackedResidues seq,
                                    std::size_t L) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.ssv_calls;
  workers_[w].load.residues += L;
  return workers_[w].msv.ssv(seq, L);
}

cpu::FilterResult BatchScanner::msv(std::size_t w, const std::uint8_t* seq,
                                    std::size_t L) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.msv_calls;
  workers_[w].load.residues += L;
  return workers_[w].msv.score(seq, L);
}

cpu::FilterResult BatchScanner::msv(std::size_t w, bio::PackedResidues seq,
                                    std::size_t L) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.msv_calls;
  workers_[w].load.residues += L;
  return workers_[w].msv.score(seq, L);
}

cpu::FilterResult BatchScanner::vit(std::size_t w, const std::uint8_t* seq,
                                    std::size_t L) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.vit_calls;
  workers_[w].load.residues += L;
  return workers_[w].vit.score(seq, L);
}

float BatchScanner::fwd(std::size_t w, const std::uint8_t* seq,
                        std::size_t L) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  FH_REQUIRE(workers_[w].fwd.has_value(),
             "BatchScanner built without a Forward profile");
  if (empty_no_hit(L)) return cpu::FilterResult{}.score_nats;
  ++workers_[w].load.fwd_calls;
  workers_[w].load.residues += L;
  return workers_[w].fwd->score(seq, L);
}

float BatchScanner::decode(std::size_t w, const std::uint8_t* seq,
                           std::size_t L, std::vector<float>& mocc) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  FH_REQUIRE(workers_[w].fwd.has_value(),
             "BatchScanner built without a Forward profile");
  if (empty_no_hit(L)) {
    mocc.clear();
    return cpu::FilterResult{}.score_nats;
  }
  ++workers_[w].load.bwd_calls;
  workers_[w].load.residues += L;
  return workers_[w].fwd->decode(seq, L, mocc);
}

}  // namespace finehmm::pipeline
