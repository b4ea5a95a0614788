// Wire protocol of the bdsd optimization daemon.
//
// Transport: a Unix-domain stream socket carrying length-prefixed frames.
// Every frame is
//
//     u32 payload_length (little-endian) | u8 (0xB0 | revision) | u8 type |
//     payload bytes
//
// and this build speaks exactly one revision, kProtocolRevision. Client and
// daemon ship together, so read_frame() rejects any other marker byte --
// an older peer's bare `length | type` header or a rev-3 marker alike --
// with a SerializeError that names the revision this build speaks, which
// tells a version skew apart from corruption.
//
// Every multi-byte integer inside a payload is little-endian, so the
// format is host-order independent. Strings are u32 length + raw bytes.
// A malformed or oversized frame raises bds::SerializeError.
//
// The exchange is strict request/response: a client sends kOptimizeRequest
// or kServerStatsRequest and reads exactly one response frame. Connections
// may carry any number of such exchanges before either side closes.
#pragma once

#include <cstdint>
#include <string>

#include "opt/request_options.hpp"

namespace bds::service {

/// The protocol revision this build speaks.
inline constexpr std::uint8_t kProtocolRevision = 4;

/// High nibble of the header byte after the length prefix; the low nibble
/// carries the revision.
inline constexpr std::uint8_t kRevisionMarker = 0xB0;

/// Frame type tags (the u8 after the revision marker).
enum class FrameType : std::uint8_t {
  kOptimizeRequest = 1,
  kOptimizeResponse = 2,
  kServerStatsRequest = 3,
  kServerStatsResponse = 4,
};

/// Ceiling on a single frame payload; a peer announcing more is treated as
/// corrupt (SerializeError) rather than trusted with the allocation.
inline constexpr std::uint32_t kMaxFramePayload = 256u << 20;

/// OptimizeRequest wire flag bits (the encoding of RequestOptions::check
/// and ::bypass_cache).
inline constexpr std::uint8_t kFlagBypassCache = 1u << 0;  ///< skip ResultCache
inline constexpr std::uint8_t kFlagCheck = 1u << 1;  ///< per-pass CEC checkpoint

/// One optimization job: a BLIF network plus the shared request options
/// (script, ceilings, time limit, flags -- see
/// opt/request_options.hpp, the single definition all three binaries use).
struct OptimizeRequest {
  std::string blif;            ///< BLIF text of the input network
  opt::RequestOptions options;
};

/// Status codes of OptimizeResponse, aligned with the optimize_blif exit
/// codes so scripted callers can share the mapping. kOverloaded and
/// kShuttingDown exist only at the service layer.
enum class Status : std::uint8_t {
  kOk = 0,         ///< optimized, all checkpoints passed
  kDegraded = 1,   ///< correct result, but a budget forced fallbacks
  kCheckFailed = 2,  ///< a CEC checkpoint found a mismatch (kFlagCheck)
  kScriptError = 3,  ///< malformed or unknown script
  kParseError = 4,   ///< malformed BLIF text
  kNetworkError = 5,  ///< structurally invalid network
  kBudgetExceeded = 6,  ///< the time limit ended the run
  kInternalError = 7,   ///< anything else; `error` carries what()
  kOverloaded = 8,    ///< shed at admission; retry after `retry_after_ms`
  kShuttingDown = 9,  ///< daemon draining; find another daemon or retry
};

struct OptimizeResponse {
  Status status = Status::kOk;
  std::uint64_t request_id = 0;  ///< server-assigned, roots the telemetry span
  std::string error;             ///< empty unless status >= kCheckFailed
  std::string blif;              ///< optimized network, BLIF text
  std::string stats_table;       ///< format_pass_table() rendering
  std::uint64_t cache_hits = 0;    ///< supernodes served from the ResultCache
  std::uint64_t cache_misses = 0;  ///< supernodes decomposed fresh
  /// With kOverloaded: the server's estimate of when capacity frees up,
  /// derived from its service-time EWMA and current backlog. A hint for
  /// the client's backoff, not a promise. 0 otherwise.
  std::uint32_t retry_after_ms = 0;
};

/// Aggregate daemon counters (kServerStatsRequest has an empty payload).
struct ServerStats {
  std::uint64_t requests = 0;  ///< optimize requests accepted so far
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t pool_idle = 0;         ///< ManagerPool managers parked
  std::uint64_t pool_constructed = 0;  ///< managers ever constructed
  // Admission layer (see service/admission.hpp and DESIGN.md §5h).
  std::uint64_t admitted = 0;          ///< requests accepted into the queue
  std::uint64_t sheds = 0;             ///< requests answered kOverloaded
  std::uint64_t deadline_rejects = 0;  ///< expired before their turn came
  std::uint64_t drained = 0;           ///< finished during drain or stop
  std::uint64_t queue_depth = 0;       ///< admitted, waiting for a turn
  std::uint64_t queue_bytes = 0;       ///< bytes held by waiting requests
  std::uint64_t in_flight = 0;         ///< admitted and running
  std::uint64_t draining = 0;          ///< 1 after SIGTERM, else 0
};

// --- Payload codecs (frame body, excluding the length/type header). ---
// Decoders validate exhaustively and throw bds::SerializeError on
// truncation, trailing bytes, or a field out of range. They are pure byte
// transforms, usable without a socket (the unit tests round-trip them
// through strings).

std::string encode_optimize_request(const OptimizeRequest& req);
OptimizeRequest decode_optimize_request(const std::string& payload);

std::string encode_optimize_response(const OptimizeResponse& resp);
OptimizeResponse decode_optimize_response(const std::string& payload);

std::string encode_server_stats(const ServerStats& stats);
ServerStats decode_server_stats(const std::string& payload);

// --- Framed socket I/O. ---

/// Writes one frame to the socket `fd`, handling short writes and EINTR.
/// Throws bds::SerializeError when the payload exceeds kMaxFramePayload
/// and bds::Error on a socket write failure, including a peer that hung
/// up (never SIGPIPE).
void write_frame(int fd, FrameType type, const std::string& payload);

/// Reads one frame from `fd`. Returns false on clean EOF at a frame
/// boundary (the peer closed); throws bds::SerializeError on a torn frame,
/// an oversized length, an unknown frame type, or a header that is not
/// this build's revision marker (the message names the revision this
/// build speaks); bds::Error on a read failure.
bool read_frame(int fd, FrameType& type, std::string& payload);

}  // namespace bds::service
