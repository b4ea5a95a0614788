#include "service/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace bds::service {
namespace {

// Little-endian scalar writers/readers. Explicit byte shuffling rather
// than memcpy keeps the wire format independent of host byte order.

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void put_str(std::string& out, const std::string& s) {
  if (s.size() > kMaxFramePayload) {
    throw SerializeError("bdsd protocol: string field exceeds frame ceiling");
  }
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Byte cursor over a payload; every read is bounds-checked so a truncated
/// or lying frame surfaces as SerializeError, never as a wild read.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s = bytes_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  /// Decoders call this last: leftover bytes mean the frame is corrupt (or
  /// the peer speaks another dialect under the same revision byte) --
  /// reject rather than guess.
  void done() const {
    if (pos_ != bytes_.size()) {
      throw SerializeError("bdsd protocol: trailing bytes after payload");
    }
  }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) {
      throw SerializeError("bdsd protocol: truncated payload");
    }
  }
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

void write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that hung up (or a connection the daemon shut
    // down under a blocked write) is an EPIPE error here, not a SIGPIPE
    // that would kill the whole process.
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("bdsd protocol: socket write failed: ") +
                  std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Reads exactly `n` bytes. Returns false on EOF before the first byte
/// when `eof_ok`; EOF mid-buffer is always a torn frame.
bool read_all(int fd, char* data, std::size_t n, bool eof_ok) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, data + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("bdsd protocol: socket read failed: ") +
                  std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw SerializeError("bdsd protocol: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

std::string encode_optimize_request(const OptimizeRequest& req) {
  std::string out;
  put_str(out, req.blif);
  put_str(out, req.options.script);
  put_u64(out, req.options.node_limit);
  put_u64(out, req.options.byte_limit);
  put_u64(out, req.options.time_limit_ms);
  put_u32(out, req.options.jobs);
  std::uint8_t flags = 0;
  if (req.options.bypass_cache) flags |= kFlagBypassCache;
  if (req.options.check) flags |= kFlagCheck;
  put_u8(out, flags);
  put_str(out, req.options.map_lib);
  put_u32(out, req.options.lut_k);
  return out;
}

OptimizeRequest decode_optimize_request(const std::string& payload) {
  Reader r(payload);
  OptimizeRequest req;
  req.blif = r.str();
  req.options.script = r.str();
  req.options.node_limit = r.u64();
  req.options.byte_limit = r.u64();
  req.options.time_limit_ms = r.u64();
  req.options.jobs = r.u32();
  const std::uint8_t flags = r.u8();
  req.options.map_lib = r.str();
  req.options.lut_k = r.u32();
  r.done();
  constexpr std::uint8_t known = kFlagBypassCache | kFlagCheck;
  if ((flags & ~known) != 0) {
    throw SerializeError("bdsd protocol: unknown request flag bits");
  }
  req.options.bypass_cache = (flags & kFlagBypassCache) != 0;
  req.options.check = (flags & kFlagCheck) != 0;
  if (req.options.time_limit_ms > opt::kMaxTimeLimitMs) {
    throw SerializeError("bdsd protocol: request time_limit_ms out of range");
  }
  if (req.options.lut_k != 0 &&
      (req.options.lut_k < 2 || req.options.lut_k > 6)) {
    throw SerializeError("bdsd protocol: request lut_k out of range");
  }
  return req;
}

std::string encode_optimize_response(const OptimizeResponse& resp) {
  std::string out;
  put_u8(out, static_cast<std::uint8_t>(resp.status));
  put_u64(out, resp.request_id);
  put_str(out, resp.error);
  put_str(out, resp.blif);
  put_str(out, resp.stats_table);
  put_u64(out, resp.cache_hits);
  put_u64(out, resp.cache_misses);
  put_u32(out, resp.retry_after_ms);
  return out;
}

OptimizeResponse decode_optimize_response(const std::string& payload) {
  Reader r(payload);
  OptimizeResponse resp;
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(Status::kShuttingDown)) {
    throw SerializeError("bdsd protocol: unknown response status");
  }
  resp.status = static_cast<Status>(status);
  resp.request_id = r.u64();
  resp.error = r.str();
  resp.blif = r.str();
  resp.stats_table = r.str();
  resp.cache_hits = r.u64();
  resp.cache_misses = r.u64();
  resp.retry_after_ms = r.u32();
  r.done();
  return resp;
}

std::string encode_server_stats(const ServerStats& stats) {
  std::string out;
  put_u64(out, stats.requests);
  put_u64(out, stats.cache_hits);
  put_u64(out, stats.cache_misses);
  put_u64(out, stats.cache_insertions);
  put_u64(out, stats.cache_evictions);
  put_u64(out, stats.cache_entries);
  put_u64(out, stats.cache_bytes);
  put_u64(out, stats.pool_idle);
  put_u64(out, stats.pool_constructed);
  put_u64(out, stats.admitted);
  put_u64(out, stats.sheds);
  put_u64(out, stats.deadline_rejects);
  put_u64(out, stats.drained);
  put_u64(out, stats.queue_depth);
  put_u64(out, stats.queue_bytes);
  put_u64(out, stats.in_flight);
  put_u64(out, stats.draining);
  return out;
}

ServerStats decode_server_stats(const std::string& payload) {
  Reader r(payload);
  ServerStats stats;
  stats.requests = r.u64();
  stats.cache_hits = r.u64();
  stats.cache_misses = r.u64();
  stats.cache_insertions = r.u64();
  stats.cache_evictions = r.u64();
  stats.cache_entries = r.u64();
  stats.cache_bytes = r.u64();
  stats.pool_idle = r.u64();
  stats.pool_constructed = r.u64();
  stats.admitted = r.u64();
  stats.sheds = r.u64();
  stats.deadline_rejects = r.u64();
  stats.drained = r.u64();
  stats.queue_depth = r.u64();
  stats.queue_bytes = r.u64();
  stats.in_flight = r.u64();
  stats.draining = r.u64();
  r.done();
  return stats;
}

void write_frame(int fd, FrameType type, const std::string& payload) {
  if (payload.size() > kMaxFramePayload) {
    throw SerializeError("bdsd protocol: frame payload exceeds ceiling");
  }
  std::string header;
  put_u32(header, static_cast<std::uint32_t>(payload.size()));
  put_u8(header, kRevisionMarker | kProtocolRevision);
  put_u8(header, static_cast<std::uint8_t>(type));
  write_all(fd, header.data(), header.size());
  write_all(fd, payload.data(), payload.size());
}

bool read_frame(int fd, FrameType& type, std::string& payload) {
  char header[5];
  if (!read_all(fd, header, sizeof header, /*eof_ok=*/true)) return false;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(header[i]))
              << (8 * i);
  }
  if (length > kMaxFramePayload) {
    throw SerializeError("bdsd protocol: announced frame exceeds ceiling");
  }
  const auto marker = static_cast<std::uint8_t>(header[4]);
  if (marker != (kRevisionMarker | kProtocolRevision)) {
    // Name what the peer sent, so a version skew reads differently from
    // corruption: a bare type byte here is an unversioned revision-1 frame.
    const std::string sent =
        (marker & 0xF0u) == kRevisionMarker
            ? "a revision-" + std::to_string(marker & 0x0Fu) + " frame"
            : "an unversioned (revision-1) or corrupt frame header";
    throw SerializeError("bdsd protocol: peer sent " + sent +
                         ", this build speaks revision " +
                         std::to_string(kProtocolRevision));
  }
  char type_byte = 0;
  read_all(fd, &type_byte, 1, /*eof_ok=*/false);
  const auto t = static_cast<std::uint8_t>(type_byte);
  if (t < static_cast<std::uint8_t>(FrameType::kOptimizeRequest) ||
      t > static_cast<std::uint8_t>(FrameType::kServerStatsResponse)) {
    throw SerializeError("bdsd protocol: unknown frame type");
  }
  type = static_cast<FrameType>(t);
  payload.resize(length);
  if (length > 0) read_all(fd, payload.data(), length, /*eof_ok=*/false);
  return true;
}

}  // namespace bds::service
