// bdsd: the long-lived optimization daemon.
//
//   bdsd -socket /tmp/bds.sock [-c N] [-queue-depth N] [-queue-bytes N]
//        [-cache-bytes N] [-trace-dir DIR]
//
// Listens on a Unix-domain socket for framed optimize requests (see
// src/service/protocol.hpp). Each connection's thread runs its own
// requests once a bounded admission gate gives them a turn (at most -c at
// once), and work is amortized across requests through the shared
// content-addressed ResultCache (-cache-bytes 0 turns it off) and the
// global BDD ManagerPool. Requests beyond the gate's depth or byte
// ceiling are shed immediately with kOverloaded and a retry hint instead
// of piling up.
//
// Shutdown: SIGTERM drains gracefully -- everything already admitted runs
// to completion and is delivered while new requests are answered
// kShuttingDown; SIGINT stops hard -- requests still waiting for a turn
// are answered kShuttingDown, only work already running finishes. Either
// way the socket file is removed on exit.
//
// Exit codes: 0 clean shutdown, 1 startup/serve failure, 2 usage (an
// unknown flag or a malformed or out-of-range number; nothing is bound).
#include <charconv>
#include <csignal>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "service/server.hpp"

namespace {

bds::service::Server* g_server = nullptr;

/// Most requests -c may run at once: each is a pool thread.
constexpr unsigned long long kMaxConcurrency = 1024;
constexpr unsigned long long kMaxSize =
    std::numeric_limits<std::size_t>::max();

/// Parses a flag value that must be a plain decimal number in [lo, hi]: no
/// sign, no blanks, no trailing characters.
bool parse_count(const char* text, unsigned long long lo,
                 unsigned long long hi, unsigned long long& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end && out >= lo && out <= hi;
}

void on_sigint(int) {
  if (g_server != nullptr) g_server->stop();
}

void on_sigterm(int) {
  if (g_server != nullptr) g_server->request_drain();
}

int usage() {
  std::cerr
      << "usage: bdsd -socket PATH [options]\n"
         "  -socket PATH      Unix-domain socket to listen on (required)\n"
         "  -c N              requests optimized at once, at most 1024 "
         "(default 0: hardware)\n"
         "  -queue-depth N    pending-request ceiling before shedding, >= 1 "
         "(default 64)\n"
         "  -queue-bytes N    pending-payload byte ceiling (default 64 MiB, "
         "0 = unlimited)\n"
         "  -cache-bytes N    result-cache byte budget (default 64 MiB, "
         "0 = no cache)\n"
         "  -trace-dir DIR    write request-<id>.jsonl telemetry traces\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bds::service::ServerOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Reads the number after a numeric flag; false on a bad value.
    unsigned long long value = 0;
    const auto number = [&](unsigned long long lo, unsigned long long hi) {
      const char* text = argv[++i];
      if (parse_count(text, lo, hi, value)) return true;
      std::cerr << "bdsd: " << arg << ": expected an integer in [" << lo
                << ", " << hi << "], got \"" << text << "\"\n";
      return false;
    };
    if (arg == "-socket" && i + 1 < argc) {
      options.socket_path = argv[++i];
    } else if (arg == "-c" && i + 1 < argc) {
      if (!number(0, kMaxConcurrency)) return usage();
      options.concurrency = static_cast<unsigned>(value);
    } else if (arg == "-queue-depth" && i + 1 < argc) {
      if (!number(1, kMaxSize)) return usage();
      options.queue_depth = value;
    } else if (arg == "-queue-bytes" && i + 1 < argc) {
      if (!number(0, kMaxSize)) return usage();
      options.queue_bytes = value;
    } else if (arg == "-cache-bytes" && i + 1 < argc) {
      if (!number(0, kMaxSize)) return usage();
      options.cache_bytes = value;
    } else if (arg == "-trace-dir" && i + 1 < argc) {
      options.trace_dir = argv[++i];
    } else if (arg == "-h" || arg == "-help" || arg == "--help") {
      usage();
      return 0;
    } else {
      std::cerr << "bdsd: unknown argument: " << arg << "\n";
      return usage();
    }
  }
  if (options.socket_path.empty()) return usage();

  try {
    bds::service::Server server(std::move(options));
    server.start();
    g_server = &server;
    std::signal(SIGINT, on_sigint);    // hard stop
    std::signal(SIGTERM, on_sigterm);  // graceful drain
    std::cerr << "bdsd: listening on " << server.socket_path() << "\n";
    server.serve();
    g_server = nullptr;
    const bds::service::ServerStats stats = server.stats();
    std::cerr << "bdsd: served " << stats.requests << " request(s), admitted "
              << stats.admitted << ", shed " << stats.sheds
              << ", deadline-rejected " << stats.deadline_rejects
              << ", cache " << stats.cache_hits << " hit(s) / "
              << stats.cache_misses << " miss(es)\n";
  } catch (const std::exception& e) {
    std::cerr << "bdsd: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
