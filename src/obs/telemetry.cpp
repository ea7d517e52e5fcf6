#include "obs/telemetry.hpp"

#include <ostream>
#include <sstream>

namespace finehmm::obs {

std::string json_rate(double units, double seconds) {
  if (!valid_rate(units, seconds)) return "null";
  std::ostringstream os;
  os << units / seconds;
  return os.str();
}

std::string prometheus_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 4);
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

const StageTelemetry* ScanTelemetry::stage(const std::string& name) const {
  for (const auto& s : stages)
    if (s.stage == name) return &s;
  return nullptr;
}

namespace {

// Every number goes through here: JSON has no inf/nan, so unusable
// values serialize as null rather than poisoning the document.
void num(std::ostream& os, double v) {
  if (std::isfinite(v))
    os << v;
  else
    os << "null";
}

void indent_to(std::ostream& os, int n) {
  for (int i = 0; i < n; ++i) os << ' ';
}

}  // namespace

void ScanTelemetry::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << "{\n";
  os << pad << "  \"schema\": \"finehmm.scan_telemetry.v1\",\n";
  os << pad << "  \"engine\": \"" << engine << "\",\n";
  os << pad << "  \"threads\": " << threads << ",\n";
  os << pad << "  \"sequences\": " << sequences << ",\n";
  os << pad << "  \"residues\": " << residues << ",\n";
  os << pad << "  \"wall_seconds\": ";
  num(os, wall_seconds);
  os << ",\n";
  os << pad << "  \"total_cells\": ";
  num(os, total_cells());
  os << ",\n";
  os << pad << "  \"cells_per_sec\": " << json_rate(total_cells(), wall_seconds)
     << ",\n";
  os << pad << "  \"bytes\": {\"zero_copy\": " << (zero_copy ? "true" : "false")
     << ", \"mapped\": " << mapped_bytes << ", \"heap\": " << heap_bytes
     << ", \"decoded\": " << decoded_bytes << "},\n";

  os << pad << "  \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& s = stages[i];
    os << (i ? "," : "") << "\n";
    indent_to(os, indent + 4);
    os << "{\"stage\": \"" << s.stage << "\", \"n_in\": " << s.n_in
       << ", \"n_passed\": " << s.n_passed << ", \"pass_rate\": ";
    num(os, s.pass_rate());
    os << ", \"cells\": ";
    num(os, s.cells);
    os << ",\n";
    indent_to(os, indent + 5);
    os << "\"wall_seconds\": ";
    num(os, s.wall_seconds);
    os << ", \"busy_seconds\": ";
    num(os, s.busy_seconds);
    os << ", \"cells_per_sec_wall\": " << json_rate(s.cells, s.wall_seconds)
       << ", \"cells_per_sec_busy\": " << json_rate(s.cells, s.busy_seconds);
    if (!s.counters.empty()) {
      os << ",\n";
      indent_to(os, indent + 5);
      os << "\"counters\": {";
      for (std::size_t k = 0; k < s.counters.size(); ++k) {
        os << (k ? ", " : "") << "\"" << s.counters[k].first << "\": ";
        num(os, s.counters[k].second);
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n";
  indent_to(os, indent + 2);
  os << "],\n";

  if (queue) {
    os << pad << "  \"queue\": {\"capacity\": " << queue->capacity
       << ", \"enqueued\": " << queue->enqueued
       << ", \"dequeued\": " << queue->dequeued
       << ", \"enqueue_stalls\": " << queue->enqueue_stalls
       << ", \"help_first_rescues\": " << queue->help_first_rescues
       << ", \"max_depth\": " << queue->max_depth << "},\n";
  } else {
    os << pad << "  \"queue\": null,\n";
  }

  os << pad << "  \"buckets\": [";
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    os << (i ? ", " : "") << "{\"sequences\": " << buckets[i].sequences
       << ", \"residues\": " << buckets[i].residues << "}";
  }
  os << "],\n";

  os << pad << "  \"per_thread\": [";
  for (std::size_t i = 0; i < per_thread.size(); ++i) {
    const auto& t = per_thread[i];
    os << (i ? "," : "") << "\n";
    indent_to(os, indent + 4);
    os << "{\"thread\": " << t.thread << ", \"busy_seconds\": {";
    for (int s = 0; s < kStageCount; ++s) {
      os << (s ? ", " : "") << "\"" << stage_name(static_cast<Stage>(s))
         << "\": ";
      num(os, t.stage_busy_seconds[s]);
    }
    os << "}, \"items\": {";
    for (int s = 0; s < kStageCount; ++s) {
      os << (s ? ", " : "") << "\"" << stage_name(static_cast<Stage>(s))
         << "\": " << t.stage_items[s];
    }
    os << "},\n";
    indent_to(os, indent + 5);
    os << "\"sequences_scored\": " << t.sequences_scored
       << ", \"help_first_rescues\": " << t.help_first_rescues
       << ", \"decoded_bytes\": " << t.decoded_bytes
       << ", \"spans\": " << t.spans
       << ", \"spans_dropped\": " << t.spans_dropped << "}";
  }
  os << "\n";
  indent_to(os, indent + 2);
  os << "]\n";
  os << pad << "}";
}

void write_prometheus_family(std::ostream& os, const char* name,
                             const char* type, const char* help) {
  os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " " << type << "\n";
}

void ScanTelemetry::write_prometheus(std::ostream& os) const {
  // All free-form label values (engine, stage, counter keys) are
  // escaped; a hostile name cannot break the exposition.
  const std::string eng = "engine=\"" + prometheus_escape_label(engine) + "\"";
  write_prometheus_family(os, "finehmm_scan_wall_seconds", "gauge",
                          "End-to-end scan wall clock in seconds.");
  os << "finehmm_scan_wall_seconds{" << eng << "} ";
  num(os, wall_seconds);
  os << "\n";
  write_prometheus_family(os, "finehmm_scan_sequences", "gauge",
                          "Database sequences covered by the scan.");
  os << "finehmm_scan_sequences{" << eng << "} " << sequences << "\n";
  write_prometheus_family(os, "finehmm_scan_cells_total", "counter",
                          "DP cells evaluated across all stages.");
  os << "finehmm_scan_cells_total{" << eng << "} ";
  num(os, total_cells());
  os << "\n";

  write_prometheus_family(os, "finehmm_stage_seconds", "gauge",
                          "Per-stage wall and merged busy seconds.");
  for (const auto& s : stages) {
    const std::string stg = prometheus_escape_label(s.stage);
    os << "finehmm_stage_seconds{" << eng << ",stage=\"" << stg
       << "\",kind=\"wall\"} ";
    num(os, s.wall_seconds);
    os << "\n";
    os << "finehmm_stage_seconds{" << eng << ",stage=\"" << stg
       << "\",kind=\"busy\"} ";
    num(os, s.busy_seconds);
    os << "\n";
  }
  write_prometheus_family(os, "finehmm_stage_sequences", "gauge",
                          "Sequences entering and surviving each filter "
                          "stage.");
  for (const auto& s : stages) {
    const std::string stg = prometheus_escape_label(s.stage);
    os << "finehmm_stage_sequences{" << eng << ",stage=\"" << stg
       << "\",dir=\"in\"} " << s.n_in << "\n";
    os << "finehmm_stage_sequences{" << eng << ",stage=\"" << stg
       << "\",dir=\"passed\"} " << s.n_passed << "\n";
  }
  write_prometheus_family(os, "finehmm_stage_cells_total", "counter",
                          "DP cells evaluated per stage.");
  for (const auto& s : stages) {
    os << "finehmm_stage_cells_total{" << eng << ",stage=\""
       << prometheus_escape_label(s.stage) << "\"} ";
    num(os, s.cells);
    os << "\n";
  }
  {
    bool any = false;
    for (const auto& s : stages) any = any || !s.counters.empty();
    if (any)
      write_prometheus_family(os, "finehmm_stage_counter", "gauge",
                              "Engine-specific per-stage counters (SIMT "
                              "PerfCounters).");
    for (const auto& s : stages) {
      for (const auto& [key, value] : s.counters) {
        os << "finehmm_stage_counter{" << eng << ",stage=\""
           << prometheus_escape_label(s.stage) << "\",counter=\""
           << prometheus_escape_label(key) << "\"} ";
        num(os, value);
        os << "\n";
      }
    }
  }

  if (queue) {
    write_prometheus_family(os, "finehmm_queue_enqueued_total", "counter",
                            "Survivors pushed into the overlapped queue.");
    os << "finehmm_queue_enqueued_total{" << eng << "} " << queue->enqueued
       << "\n";
    write_prometheus_family(os, "finehmm_queue_dequeued_total", "counter",
                            "Survivors drained from the overlapped queue.");
    os << "finehmm_queue_dequeued_total{" << eng << "} " << queue->dequeued
       << "\n";
    write_prometheus_family(os, "finehmm_queue_enqueue_stalls_total", "counter",
                            "try_push rejections (ring full).");
    os << "finehmm_queue_enqueue_stalls_total{" << eng << "} "
       << queue->enqueue_stalls << "\n";
    write_prometheus_family(os, "finehmm_queue_help_first_rescues_total",
                            "counter",
                            "Producers that drained one survivor themselves.");
    os << "finehmm_queue_help_first_rescues_total{" << eng << "} "
       << queue->help_first_rescues << "\n";
    write_prometheus_family(os, "finehmm_queue_max_depth", "gauge",
                            "High-water occupancy of the overlapped queue.");
    os << "finehmm_queue_max_depth{" << eng << "} " << queue->max_depth
       << "\n";
  }

  write_prometheus_family(os, "finehmm_thread_busy_seconds", "gauge",
                          "Per-worker busy seconds by stage.");
  for (const auto& t : per_thread) {
    for (int s = 0; s < kStageCount; ++s) {
      if (t.stage_busy_seconds[s] == 0.0) continue;
      os << "finehmm_thread_busy_seconds{" << eng << ",thread=\"" << t.thread
         << "\",stage=\"" << stage_name(static_cast<Stage>(s)) << "\"} ";
      num(os, t.stage_busy_seconds[s]);
      os << "\n";
    }
  }

  write_prometheus_family(os, "finehmm_bucket_sequences", "gauge",
                          "Sequences per geometric length bucket of the scan "
                          "schedule.");
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    os << "finehmm_bucket_sequences{" << eng << ",bucket=\"" << b << "\"} "
       << buckets[b].sequences << "\n";
  }
}

std::vector<std::pair<std::string, double>> counters_kv(
    const simt::PerfCounters& c) {
  return {
      {"alu", static_cast<double>(c.alu)},
      {"shuffles", static_cast<double>(c.shuffles)},
      {"votes", static_cast<double>(c.votes)},
      {"syncs", static_cast<double>(c.syncs)},
      {"smem_accesses", static_cast<double>(c.smem_accesses)},
      {"smem_cycles", static_cast<double>(c.smem_cycles)},
      {"gmem_transactions", static_cast<double>(c.gmem_transactions)},
      {"gmem_bytes", static_cast<double>(c.gmem_bytes)},
      {"gmem_cached_tx", static_cast<double>(c.gmem_cached_tx)},
      {"lazyf_outer", static_cast<double>(c.lazyf_outer)},
      {"lazyf_inner", static_cast<double>(c.lazyf_inner)},
      {"sequences", static_cast<double>(c.sequences)},
      {"residues", static_cast<double>(c.residues)},
      {"cells", static_cast<double>(c.cells)},
  };
}

}  // namespace finehmm::obs
