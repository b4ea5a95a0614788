// bds-client: submits a BLIF to a running bdsd daemon.
//
//   bds-client -socket /tmp/bds.sock circuit.blif [-o out.blif]
//              [-script TEXT] [-j N] [-node-limit N] [-byte-limit N]
//              [-time-limit SECONDS] [-check] [-no-cache] [-retries N]
//              [-stats]
//   bds-client -socket /tmp/bds.sock -server-stats
//
// The request knobs are the shared opt::RequestOptions flags (one parser
// for this CLI, optimize_blif, and the wire protocol). `-time-limit` is
// measured from the daemon's read of the request, so queue wait counts
// against it. When the daemon sheds the request (kOverloaded) or is
// draining (kShuttingDown), the client retries with jittered exponential
// backoff honoring the daemon's retry_after_ms hint, up to -retries times
// (default 4; 0 = fail fast).
//
// Exit codes mirror optimize_blif where the failure modes overlap:
//   0 optimized (possibly degraded under a budget)
//   1 I/O failure, or the daemon reported a checkpoint mismatch
//   2 usage error or script rejected by the daemon
//   3 the daemon could not parse the BLIF
//   4 structurally invalid network
//   5 the request's resource budget ended the run
//   6 cannot connect to the daemon socket
//   7 request shed (overloaded/shutting down) even after retries
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "service/client.hpp"
#include "util/error.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: bds-client -socket PATH circuit.blif [options]\n"
         "       bds-client -socket PATH -server-stats\n"
         "  -o FILE           write the optimized BLIF here (default stdout)\n"
      << bds::opt::RequestOptions::cli_help()
      << "  -retries N        resubmits after a shed (default 4, 0 = fail "
         "fast)\n"
         "  -stats            print the per-pass table and cache counters\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bds::service;

  std::string socket_path;
  std::string input_path;
  std::string output_path;
  bool server_stats = false;
  bool show_stats = false;
  OptimizeRequest request;
  RetryPolicy retry;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (request.options.parse_cli_arg(argc, argv, i)) {
        continue;
      } else if (arg == "-socket" && i + 1 < argc) {
        socket_path = argv[++i];
      } else if (arg == "-o" && i + 1 < argc) {
        output_path = argv[++i];
      } else if (arg == "-retries" && i + 1 < argc) {
        retry.max_retries =
            static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      } else if (arg == "-stats") {
        show_stats = true;
      } else if (arg == "-server-stats") {
        server_stats = true;
      } else if (arg == "-h" || arg == "-help" || arg == "--help") {
        usage();
        return 0;
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "bds-client: unknown argument: " << arg << "\n";
        return usage();
      } else if (input_path.empty()) {
        input_path = arg;
      } else {
        return usage();
      }
    }
    request.options.validate();
  } catch (const bds::ParseError& e) {
    std::cerr << "bds-client: " << e.what() << "\n";
    return usage();
  }
  if (socket_path.empty() || (input_path.empty() && !server_stats)) {
    return usage();
  }

  try {
    Client client(socket_path);
    client.connect();

    if (server_stats) {
      const ServerStats s = client.server_stats();
      std::cout << "requests          " << s.requests << "\n"
                << "cache hits        " << s.cache_hits << "\n"
                << "cache misses      " << s.cache_misses << "\n"
                << "cache insertions  " << s.cache_insertions << "\n"
                << "cache evictions   " << s.cache_evictions << "\n"
                << "cache entries     " << s.cache_entries << "\n"
                << "cache bytes       " << s.cache_bytes << "\n"
                << "pool idle         " << s.pool_idle << "\n"
                << "pool constructed  " << s.pool_constructed << "\n"
                << "admitted          " << s.admitted << "\n"
                << "sheds             " << s.sheds << "\n"
                << "deadline rejects  " << s.deadline_rejects << "\n"
                << "drained           " << s.drained << "\n"
                << "queue depth       " << s.queue_depth << "\n"
                << "queue bytes       " << s.queue_bytes << "\n"
                << "in flight         " << s.in_flight << "\n"
                << "draining          " << s.draining << "\n";
      return 0;
    }

    std::ifstream in(input_path);
    if (!in) {
      std::cerr << "bds-client: cannot open " << input_path << "\n";
      return 1;
    }
    std::ostringstream blif;
    blif << in.rdbuf();
    request.blif = blif.str();

    // Seed the backoff jitter from the pid so a flood of shed clients
    // spreads its retries instead of stampeding back in lockstep.
    retry.jitter_seed = static_cast<std::uint64_t>(::getpid());
    const OptimizeResponse response =
        retry.max_retries > 0 ? client.optimize_with_retry(request, retry)
                              : client.optimize(request);

    switch (response.status) {
      case Status::kOk:
      case Status::kDegraded:
        break;
      case Status::kCheckFailed:
        std::cerr << "bds-client: " << response.error << "\n";
        return 1;
      case Status::kScriptError:
        std::cerr << "bds-client: script error: " << response.error << "\n";
        return 2;
      case Status::kParseError:
        std::cerr << "bds-client: parse error: " << response.error << "\n";
        return 3;
      case Status::kNetworkError:
        std::cerr << "bds-client: network error: " << response.error << "\n";
        return 4;
      case Status::kBudgetExceeded:
        std::cerr << "bds-client: budget exceeded: " << response.error << "\n";
        return 5;
      case Status::kInternalError:
        std::cerr << "bds-client: daemon error: " << response.error << "\n";
        return 1;
      case Status::kOverloaded:
        std::cerr << "bds-client: shed by the daemon (overloaded): "
                  << response.error << "\n";
        return 7;
      case Status::kShuttingDown:
        std::cerr << "bds-client: daemon shutting down: " << response.error
                  << "\n";
        return 7;
    }

    if (response.status == Status::kDegraded) {
      std::cerr << "bds-client: degraded result (a resource ceiling forced "
                   "fallbacks)\n";
    }
    if (show_stats) {
      std::cerr << response.stats_table;
      std::cerr << "request " << response.request_id << ": cache "
                << response.cache_hits << " hit(s), " << response.cache_misses
                << " miss(es)\n";
    }

    if (output_path.empty()) {
      std::cout << response.blif;
    } else {
      std::ofstream out(output_path);
      if (!out) {
        std::cerr << "bds-client: cannot write " << output_path << "\n";
        return 1;
      }
      out << response.blif;
    }
  } catch (const ConnectError& e) {
    std::cerr << e.what() << "\n";
    return 6;
  } catch (const std::exception& e) {
    std::cerr << "bds-client: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
