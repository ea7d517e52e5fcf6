// finehmmd wire protocol: framed, length-prefixed, little-endian binary.
//
// The daemon's analog of HMMER's hmmpgmd protocol, specified in
// docs/server.md.  Every message is one frame:
//
//   u8 version | u8 type | u32 request_id | u32 payload_len | payload
//
// The 10-byte header is fixed; payload_len is bounded by kMaxPayload so
// a malformed or hostile length can never drive an allocation.  Floats
// and doubles travel as IEEE-754 bit patterns (u32/u64), never as text,
// so hits round-trip bit-identically — the loopback integration test
// asserts remote == local scores with operator==, not a tolerance.
//
// Encoding/decoding never trusts the peer: every read is bounds-checked
// and a malformed payload raises ProtocolError, which the server answers
// with an ERROR frame (kBadRequest) instead of tearing down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "util/error.hpp"

namespace finehmm::server {

inline constexpr std::uint8_t kProtocolVersion = 1;
/// Application-level wire revision, carried in the PING/PONG handshake
/// (PingInfo).  The frame-header version byte pins the *framing* layer
/// and stays at 1; this revision pins the *payload* encodings, which
/// gained optional fields (z_override, result flags) for the cluster
/// layer.  Peers that decode revision-2 payloads with revision-1 code
/// would misparse silently, so the handshake rejects mismatches with a
/// structured kVersionMismatch ERROR instead (docs/cluster.md).
inline constexpr std::uint16_t kWireRevision = 2;
inline constexpr std::size_t kFrameHeaderSize = 10;
/// Hard payload bound: a model blob is a few MB at most; anything larger
/// is a corrupt or hostile frame.
inline constexpr std::size_t kMaxPayload = std::size_t{64} << 20;

/// Raised when a peer's bytes do not parse; the connection survives (the
/// framing layer already consumed the whole payload).
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

enum class MsgType : std::uint8_t {
  kPing = 1,         // client -> server, PingInfo payload (empty = legacy)
  kPong = 2,         // server -> client, PingInfo payload (empty = legacy)
  kSearch = 3,       // client -> server, SearchRequest payload
  kResult = 4,       // server -> client, SearchResultWire payload
  kError = 5,        // server -> client, ErrorInfo payload
  kOverload = 6,     // server -> client, OverloadInfo payload (shed)
  kStats = 7,        // client -> server, empty payload
  kStatsResult = 8,  // server -> client, JSON text payload
  kScan = 9,         // client -> server, ScanRequest payload
  kScanResult = 10,  // server -> client, ScanResultWire payload
};

/// Machine-readable reason codes carried by kError frames.
enum class ErrorCode : std::uint16_t {
  kBadRequest = 1,       // payload failed to decode
  kUnknownDatabase = 2,  // db_id names no resident database
  kUnknownModel = 3,     // pressed-model reference not in any library
  kDeadlineExpired = 4,  // request sat queued past its deadline
  kShuttingDown = 5,     // daemon is draining; retry elsewhere
  kInternal = 6,         // scan failed server-side
  kVersionMismatch = 7,  // peer's wire revision is incompatible (PingInfo)
};

/// What a node is, carried in the PING/PONG handshake so a coordinator
/// can refuse to scatter onto another coordinator (or vice versa) and so
/// operators can see topology from any client.
enum class NodeRole : std::uint8_t {
  kStandalone = 0,   // a plain finehmmd
  kShard = 1,        // a finehmmd serving one shard of a sharded database
  kCoordinator = 2,  // a finehmm_clusterd scatter-gather front end
};

/// PING/PONG payload.  An empty payload decodes as a revision-1 legacy
/// peer (the pre-cluster protocol sent empty pings), which lets the
/// handshake detect old binaries and answer kVersionMismatch instead of
/// misdecoding their frames later.
struct PingInfo {
  std::uint16_t wire_revision = kWireRevision;
  NodeRole role = NodeRole::kStandalone;
  std::uint32_t shard_id = 0;  // meaningful for kShard only
};

std::vector<std::uint8_t> encode_ping(const PingInfo& info);
PingInfo decode_ping(const std::vector<std::uint8_t>& payload);

struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t type = 0;
  std::uint32_t request_id = 0;
  std::uint32_t payload_len = 0;
};

/// One decoded frame (header + owned payload bytes).
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  MsgType type() const { return static_cast<MsgType>(header.type); }
};

void encode_header(const FrameHeader& h, std::uint8_t out[kFrameHeaderSize]);
/// Parses and validates a header; throws ProtocolError on a bad version
/// or an oversized payload length.
FrameHeader decode_header(const std::uint8_t in[kFrameHeaderSize]);

/// How the request names its query model.
enum class ModelRefKind : std::uint8_t {
  kInline = 0,   // payload carries a binary profile blob (hmm/binary_io)
  kPressed = 1,  // payload carries a model name resolved in the daemon's
                 // loaded .fhpdb libraries
};

struct SearchRequest {
  std::uint32_t db_id = 0;
  ModelRefKind model_kind = ModelRefKind::kInline;
  double evalue = 10.0;          // report threshold
  std::uint32_t deadline_ms = 0; // 0 = no deadline
  /// Effective database size Z for E-value computation; 0 = use the
  /// resident database's own sequence count.  A cluster coordinator sets
  /// this to the cluster-total sequence count so every shard scores
  /// against the same Z and the merged E-values are bit-identical to an
  /// unsharded scan (docs/cluster.md).  Encoded behind a flags bit, so a
  /// zero override leaves the revision-1 byte stream unchanged.
  std::uint64_t z_override = 0;
  std::string model_name;        // kPressed only
  std::vector<std::uint8_t> model_blob;  // kInline only
};

std::vector<std::uint8_t> encode_search_request(const SearchRequest& req);
SearchRequest decode_search_request(const std::vector<std::uint8_t>& payload);

/// The result frame: enough to reproduce hmmsearch_tool's report and
/// tblout output byte for byte on the client (pipeline/report.hpp takes
/// the db summary + stage stats + hits; alignments/domains are not
/// carried — docs/server.md).
struct SearchResultWire {
  /// Server-assigned 64-bit trace id (nonzero once admitted): quote it
  /// when asking the operator "where did my request's time go" — STATS
  /// v2's recent_traces and the slow-request log both key on it.
  std::uint64_t trace_id = 0;
  std::uint64_t db_sequences = 0;
  std::uint64_t db_residues = 0;
  pipeline::StageStats ssv, msv, vit, fwd, bwd;  // seconds not carried (= 0)
  std::vector<pipeline::Hit> hits;          // alignments/domains empty
  /// Result flags (kResultDegraded).  Encoded as an optional trailing
  /// byte only when nonzero, so a clean result's bytes are unchanged
  /// from wire revision 1.
  std::uint8_t flags = 0;
};

/// SearchResultWire/ScanResultWire flags bits.
inline constexpr std::uint8_t kResultDegraded = 0x1;  // >=1 shard missing

std::vector<std::uint8_t> encode_search_result(const SearchResultWire& res);
SearchResultWire decode_search_result(const std::vector<std::uint8_t>& payload);

/// The SCAN verb: score one resident database against EVERY model in the
/// daemon's loaded .fhpdb libraries in a single fused many-model sweep
/// (HmmSearch::scan with the library's fuse plan; docs/multi_model.md).
/// Concurrent SCANs of the same database coalesce into one sweep, like
/// SEARCHes do.  The
/// resident library scans at the default report threshold (E = 10), so a
/// request's evalue can only tighten the hit lists, never widen them.
struct ScanRequest {
  std::uint32_t db_id = 0;
  double evalue = 10.0;          // report threshold (<= the resident 10.0)
  std::uint32_t deadline_ms = 0; // 0 = no deadline
  /// Effective database size Z for E-value computation; 0 = shard-local.
  /// The resident sweep scores at the shard-local Z; when set, the
  /// daemon recomputes each reported hit's E-value from its P-value as
  /// p * z_override before applying the request threshold — bit-identical
  /// to scoring against Z directly, since both are the same one multiply
  /// (docs/cluster.md).  Encoded behind a flags bit like SearchRequest's.
  std::uint64_t z_override = 0;
};

std::vector<std::uint8_t> encode_scan_request(const ScanRequest& req);
ScanRequest decode_scan_request(const std::vector<std::uint8_t>& payload);

/// Per-model slice of a SCAN result, in library load order.
struct ScanModelHits {
  std::string model_name;
  std::vector<pipeline::Hit> hits;  // sorted by E-value, like a SEARCH
};

struct ScanResultWire {
  std::uint64_t trace_id = 0;      // server-assigned (see SearchResultWire)
  std::uint64_t db_sequences = 0;
  std::uint64_t db_residues = 0;
  std::uint64_t fuse_groups = 0;   // fused groups in the sweep's plan
  std::uint64_t fused_models = 0;  // models scored via fused groups
  double lane_occupancy = 0.0;     // cell-weighted mean, 0..1
  std::vector<ScanModelHits> models;
  std::uint8_t flags = 0;          // kResultDegraded; optional trailing byte
};

std::vector<std::uint8_t> encode_scan_result(const ScanResultWire& res);
ScanResultWire decode_scan_result(const std::vector<std::uint8_t>& payload);

struct ErrorInfo {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

std::vector<std::uint8_t> encode_error(const ErrorInfo& err);
ErrorInfo decode_error(const std::vector<std::uint8_t>& payload);

/// Carried by kOverload so clients can size their backoff.
struct OverloadInfo {
  std::uint32_t queue_capacity = 0;
};

std::vector<std::uint8_t> encode_overload(const OverloadInfo& info);
OverloadInfo decode_overload(const std::vector<std::uint8_t>& payload);

}  // namespace finehmm::server
