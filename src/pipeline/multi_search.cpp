#include "pipeline/multi_search.hpp"

#include "util/error.hpp"

namespace finehmm::pipeline {

MultiSearch::MultiSearch(std::vector<hmm::Plan7Hmm> models,
                         Thresholds thresholds,
                         stats::CalibrateOptions calib) {
  FH_REQUIRE(!models.empty(), "need at least one model");
  searches_.reserve(models.size());
  for (auto& m : models) searches_.emplace_back(m, thresholds, calib);
}

std::vector<ModelResult> MultiSearch::run_cpu(
    const bio::SequenceDatabase& db) const {
  std::vector<ModelResult> out;
  out.reserve(searches_.size());
  for (const auto& search : searches_) {
    ModelResult r;
    r.model_name = search.profile().name();
    r.model_length = search.profile().length();
    r.result = search.run_cpu(db);
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<ModelResult> MultiSearch::run_cpu_parallel(
    const bio::SequenceDatabase& db, std::size_t threads) const {
  ThreadPool pool(threads);
  return collect(HmmSearch::scan(pointers(), ScanSource(db), pool,
                                 /*plan=*/nullptr, /*schedule=*/nullptr,
                                 /*rec=*/nullptr, "cpu_parallel"));
}

std::vector<int> MultiSearch::model_lengths() const {
  std::vector<int> out;
  out.reserve(searches_.size());
  for (const auto& search : searches_)
    out.push_back(search.profile().length());
  return out;
}

std::vector<ModelResult> MultiSearch::run_cpu_fused(
    const bio::SequenceDatabase& db, std::size_t threads,
    const hmm::FusePlan* plan, obs::ScanTelemetry* telemetry) const {
  ThreadPool pool(threads);
  auto scan = HmmSearch::run_cpu_fused(pointers(), ScanSource(db), pool, plan);
  if (telemetry != nullptr) *telemetry = std::move(scan.telemetry);
  return collect(std::move(scan));
}

std::vector<const HmmSearch*> MultiSearch::pointers() const {
  std::vector<const HmmSearch*> ptrs;
  ptrs.reserve(searches_.size());
  for (const auto& search : searches_) ptrs.push_back(&search);
  return ptrs;
}

std::vector<ModelResult> MultiSearch::collect(
    HmmSearch::CoalescedScan scan) const {
  std::vector<ModelResult> out;
  out.reserve(searches_.size());
  for (std::size_t i = 0; i < searches_.size(); ++i) {
    ModelResult r;
    r.model_name = searches_[i].profile().name();
    r.model_length = searches_[i].profile().length();
    r.result = std::move(scan.per_model[i]);
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<ModelResult> MultiSearch::run_gpu(
    const simt::DeviceSpec& dev, const bio::SequenceDatabase& db,
    const bio::PackedDatabase& packed) const {
  std::vector<ModelResult> out;
  out.reserve(searches_.size());
  for (const auto& search : searches_) {
    ModelResult r;
    r.model_name = search.profile().name();
    r.model_length = search.profile().length();
    r.msv_placement =
        gpu::choose_placement(gpu::Stage::kMsv, r.model_length, dev)
            .placement;
    r.result = search.run_gpu_auto(dev, db, packed);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace finehmm::pipeline
