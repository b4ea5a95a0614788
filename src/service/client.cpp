#include "service/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/error.hpp"

namespace bds::service {

std::uint32_t retry_backoff_ms(const RetryPolicy& policy, unsigned attempt,
                               std::uint32_t retry_after_hint_ms, Rng& rng) {
  // Exponential growth, saturating at the cap (the shift alone would
  // overflow past attempt 31, so grow in 64 bits and clamp).
  std::uint64_t delay = policy.base_backoff_ms;
  delay <<= std::min(attempt, 31u);
  delay = std::min<std::uint64_t>(delay, policy.max_backoff_ms);
  // The server's hint is a floor, not a replacement: it estimates when a
  // slot frees up, and backing off for less than that just earns another
  // shed.
  delay = std::max<std::uint64_t>(delay, retry_after_hint_ms);
  if (delay == 0) return 0;
  // Jitter to uniform [delay/2, delay]: floods that were shed together
  // must not retry together.
  const std::uint64_t half = delay / 2;
  return static_cast<std::uint32_t>(half + rng.below(delay - half + 1));
}

Client::Client(std::string socket_path) : path_(std::move(socket_path)) {}

Client::~Client() { close(); }

void Client::connect() {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.empty() || path_.size() >= sizeof(addr.sun_path)) {
    throw Error("bds-client: socket path empty or too long: \"" + path_ +
                "\"");
  }
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw Error(std::string("bds-client: socket: ") + std::strerror(errno));
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved_errno = errno;
    close();
    throw ConnectError(path_, saved_errno,
                       "bds-client: cannot connect to " + path_ + ": " +
                           std::strerror(saved_errno) +
                           " (is the daemon running?)");
  }
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

OptimizeResponse Client::optimize(const OptimizeRequest& request) {
  if (fd_ < 0) throw Error("bds-client: optimize() before connect()");
  write_frame(fd_, FrameType::kOptimizeRequest,
              encode_optimize_request(request));
  FrameType type{};
  std::string payload;
  if (!read_frame(fd_, type, payload)) {
    throw Error("bds-client: daemon closed the connection without a reply");
  }
  if (type != FrameType::kOptimizeResponse) {
    throw SerializeError("bds-client: expected an optimize response frame");
  }
  return decode_optimize_response(payload);
}

OptimizeResponse Client::optimize_with_retry(const OptimizeRequest& request,
                                             const RetryPolicy& policy) {
  Rng rng(policy.jitter_seed);
  OptimizeResponse response = optimize(request);
  for (unsigned attempt = 0; attempt < policy.max_retries; ++attempt) {
    if (response.status != Status::kOverloaded &&
        response.status != Status::kShuttingDown) {
      return response;
    }
    const std::uint32_t delay =
        retry_backoff_ms(policy, attempt, response.retry_after_ms, rng);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    // A draining daemon hangs up once it is done; a restarted daemon needs
    // a fresh connection anyway. Reconnect failures propagate as
    // ConnectError -- by then the daemon is genuinely gone.
    if (!connected()) connect();
    try {
      response = optimize(request);
    } catch (const Error&) {
      // The daemon hung up between accept and reply (e.g. drain completed
      // under us). One reconnect attempt per retry slot.
      connect();
      response = optimize(request);
    }
  }
  return response;
}

ServerStats Client::server_stats() {
  if (fd_ < 0) throw Error("bds-client: server_stats() before connect()");
  write_frame(fd_, FrameType::kServerStatsRequest, std::string());
  FrameType type{};
  std::string payload;
  if (!read_frame(fd_, type, payload)) {
    throw Error("bds-client: daemon closed the connection without a reply");
  }
  if (type != FrameType::kServerStatsResponse) {
    throw SerializeError("bds-client: expected a server-stats response frame");
  }
  return decode_server_stats(payload);
}

}  // namespace bds::service
