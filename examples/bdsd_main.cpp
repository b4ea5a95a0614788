// bdsd: the long-lived optimization daemon.
//
//   bdsd -socket /tmp/bds.sock [-c N] [-queue-depth N] [-queue-bytes N]
//        [-cache-bytes N] [-no-cache] [-trace-dir DIR]
//
// Listens on a Unix-domain socket for framed optimize requests (see
// src/service/protocol.hpp). Each connection's thread runs its own
// requests once a bounded admission gate gives them a turn (at most -c at
// once), and work is amortized across requests through the shared
// content-addressed ResultCache and the global BDD ManagerPool. Requests
// beyond the gate's depth or byte ceiling are shed immediately with
// kOverloaded and a retry hint instead of piling up.
//
// Shutdown: SIGTERM drains gracefully -- everything already admitted runs
// to completion and is delivered while new requests are answered
// kShuttingDown; SIGINT stops hard -- requests still waiting for a turn
// are answered kShuttingDown, only work already running finishes. Either
// way the socket file is removed on exit.
//
// Exit codes: 0 clean shutdown, 1 startup/serve failure, 2 usage.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include "service/server.hpp"

namespace {

bds::service::Server* g_server = nullptr;

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
         "  -c N              requests optimized at once (default: "
         "hardware)\n"
         "  -queue-depth N    pending-request ceiling before shedding "
         "(default 64)\n"
         "  -queue-bytes N    pending-payload byte ceiling (default 64 MiB, "
         "0 = unlimited)\n"
         "  -cache-bytes N    result-cache byte budget (default 64 MiB)\n"
         "  -no-cache         disable the cross-request result cache\n"
         "  -trace-dir DIR    write request-<id>.jsonl telemetry traces\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bds::service::ServerOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-socket" && i + 1 < argc) {
      options.socket_path = argv[++i];
    } else if (arg == "-c" && i + 1 < argc) {
      options.concurrency =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "-queue-depth" && i + 1 < argc) {
      options.queue_depth = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "-queue-bytes" && i + 1 < argc) {
      options.queue_bytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "-cache-bytes" && i + 1 < argc) {
      options.cache_bytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "-no-cache") {
      options.enable_cache = false;
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
