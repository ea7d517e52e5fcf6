#include "server/client.hpp"

#include <sstream>
#include <utility>

#include "hmm/binary_io.hpp"

namespace finehmm::server {

BlockingClient::BlockingClient(std::unique_ptr<Connection> conn)
    : conn_(std::move(conn)) {
  FH_REQUIRE(conn_ != nullptr, "client needs a live connection");
}

BlockingClient::~BlockingClient() { conn_->shutdown(); }

template <class Out, class Wire>
Out BlockingClient::exchange(
    MsgType verb, const std::vector<std::uint8_t>& payload, MsgType ok_type,
    Wire (*decode)(const std::vector<std::uint8_t>&)) {
  Out out;  // kDisconnected until a well-formed reply says otherwise
  if (!send_frame(*conn_, verb, next_id_++, payload)) return out;
  Frame reply;
  if (recv_frame(*conn_, reply) != RecvStatus::kFrame) return out;
  try {
    if (reply.type() == ok_type) {
      out.result = decode(reply.payload);
      out.status = ClientStatus::kOk;
    } else if (reply.type() == MsgType::kError) {
      out.error = decode_error(reply.payload);
      out.status = ClientStatus::kError;
    } else if (reply.type() == MsgType::kOverload) {
      out.overload = decode_overload(reply.payload);
      out.status = ClientStatus::kOverloaded;
    }
  } catch (const ProtocolError&) {
    out.status = ClientStatus::kDisconnected;
  }
  return out;
}

RemoteResult BlockingClient::search(std::uint32_t db_id,
                                    const hmm::Plan7Hmm& model,
                                    const stats::ModelStats* model_stats,
                                    double evalue, std::uint32_t deadline_ms) {
  std::ostringstream blob;
  hmm::write_hmm_binary(blob, model, model_stats);
  const std::string bytes = blob.str();
  return search_blob(db_id,
                     std::vector<std::uint8_t>(bytes.begin(), bytes.end()),
                     evalue, deadline_ms);
}

RemoteResult BlockingClient::search_pressed(std::uint32_t db_id,
                                            const std::string& model_name,
                                            double evalue,
                                            std::uint32_t deadline_ms,
                                            std::uint64_t z_override) {
  SearchRequest req;
  req.db_id = db_id;
  req.model_kind = ModelRefKind::kPressed;
  req.model_name = model_name;
  req.evalue = evalue;
  req.deadline_ms = deadline_ms;
  req.z_override = z_override;
  return exchange<RemoteResult>(MsgType::kSearch, encode_search_request(req),
                                MsgType::kResult, decode_search_result);
}

RemoteResult BlockingClient::search_blob(std::uint32_t db_id,
                                         std::vector<std::uint8_t> blob,
                                         double evalue,
                                         std::uint32_t deadline_ms,
                                         std::uint64_t z_override) {
  SearchRequest req;
  req.db_id = db_id;
  req.model_kind = ModelRefKind::kInline;
  req.model_blob = std::move(blob);
  req.evalue = evalue;
  req.deadline_ms = deadline_ms;
  req.z_override = z_override;
  return exchange<RemoteResult>(MsgType::kSearch, encode_search_request(req),
                                MsgType::kResult, decode_search_result);
}

RemoteScanResult BlockingClient::scan(std::uint32_t db_id, double evalue,
                                      std::uint32_t deadline_ms,
                                      std::uint64_t z_override) {
  ScanRequest req;
  req.db_id = db_id;
  req.evalue = evalue;
  req.deadline_ms = deadline_ms;
  req.z_override = z_override;
  return exchange<RemoteScanResult>(MsgType::kScan, encode_scan_request(req),
                                    MsgType::kScanResult, decode_scan_result);
}

bool BlockingClient::ping() { return ping_info().has_value(); }

std::optional<PingInfo> BlockingClient::ping_info() {
  const std::uint32_t id = next_id_++;
  if (!send_frame(*conn_, MsgType::kPing, id, encode_ping(PingInfo{})))
    return std::nullopt;
  Frame reply;
  if (recv_frame(*conn_, reply) != RecvStatus::kFrame ||
      reply.type() != MsgType::kPong)
    return std::nullopt;
  try {
    return decode_ping(reply.payload);
  } catch (const ProtocolError&) {
    return std::nullopt;
  }
}

std::optional<std::string> BlockingClient::stats_json() {
  const std::uint32_t id = next_id_++;
  if (!send_frame(*conn_, MsgType::kStats, id, {})) return std::nullopt;
  Frame reply;
  if (recv_frame(*conn_, reply) != RecvStatus::kFrame ||
      reply.type() != MsgType::kStatsResult)
    return std::nullopt;
  return std::string(reply.payload.begin(), reply.payload.end());
}

}  // namespace finehmm::server
