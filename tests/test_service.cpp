// The bdsd service layer: wire-codec round-trips and typed rejection of
// malformed frames, every revision but the current one rejected by name,
// error-to-status mapping, and the tentpole contract over a real Unix
// socket -- a repeated identical request is served from the
// content-addressed result cache with a byte-identical BLIF.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>

#include "net/network.hpp"
#include "opt/manager.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/error.hpp"

namespace bds::service {
namespace {

const char kBlif[] =
    ".model svc\n"
    ".inputs a b c d e\n"
    ".outputs f g\n"
    ".names a b c x\n"
    "111 1\n"
    "1-0 1\n"
    "011 1\n"
    ".names x d y\n"
    "10 1\n"
    "01 1\n"
    ".names y e c f\n"
    "1-1 1\n"
    "011 1\n"
    "110 1\n"
    ".names x y g\n"
    "11 1\n"
    "00 1\n"
    ".end\n";

std::string unique_socket_path(const char* tag) {
  return "/tmp/bds-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

TEST(ServiceProtocol, RequestRoundTripsAllFields) {
  OptimizeRequest req;
  req.blif = kBlif;
  req.options.script = "bds";
  req.options.node_limit = 12345;
  req.options.byte_limit = 1u << 20;
  req.options.time_limit_ms = 2500;
  req.options.jobs = 4;
  req.options.bypass_cache = true;
  req.options.check = true;
  req.options.map_lib = "cells.genlib";
  req.options.lut_k = 5;

  const OptimizeRequest out =
      decode_optimize_request(encode_optimize_request(req));
  EXPECT_EQ(out.blif, req.blif);
  EXPECT_EQ(out.options.script, req.options.script);
  EXPECT_EQ(out.options.node_limit, req.options.node_limit);
  EXPECT_EQ(out.options.byte_limit, req.options.byte_limit);
  EXPECT_EQ(out.options.time_limit_ms, req.options.time_limit_ms);
  EXPECT_EQ(out.options.jobs, req.options.jobs);
  EXPECT_TRUE(out.options.bypass_cache);
  EXPECT_TRUE(out.options.check);
  EXPECT_EQ(out.options.map_lib, "cells.genlib");
  EXPECT_EQ(out.options.lut_k, 5u);
}

TEST(ServiceProtocol, ResponseAndStatsRoundTrip) {
  OptimizeResponse resp;
  resp.status = Status::kDegraded;
  resp.request_id = 77;
  resp.error = "partial";
  resp.blif = ".model m\n.end\n";
  resp.stats_table = "pass table";
  resp.cache_hits = 3;
  resp.cache_misses = 1;
  resp.retry_after_ms = 40;
  const OptimizeResponse r =
      decode_optimize_response(encode_optimize_response(resp));
  EXPECT_EQ(r.status, Status::kDegraded);
  EXPECT_EQ(r.request_id, 77u);
  EXPECT_EQ(r.error, "partial");
  EXPECT_EQ(r.blif, resp.blif);
  EXPECT_EQ(r.stats_table, resp.stats_table);
  EXPECT_EQ(r.cache_hits, 3u);
  EXPECT_EQ(r.cache_misses, 1u);
  EXPECT_EQ(r.retry_after_ms, 40u);

  ServerStats stats;
  stats.requests = 9;
  stats.cache_hits = 8;
  stats.cache_bytes = 4096;
  stats.pool_constructed = 2;
  stats.admitted = 7;
  stats.sheds = 2;
  stats.deadline_rejects = 1;
  stats.drained = 3;
  stats.queue_depth = 5;
  stats.in_flight = 2;
  const ServerStats s = decode_server_stats(encode_server_stats(stats));
  EXPECT_EQ(s.requests, 9u);
  EXPECT_EQ(s.cache_hits, 8u);
  EXPECT_EQ(s.cache_bytes, 4096u);
  EXPECT_EQ(s.pool_constructed, 2u);
  EXPECT_EQ(s.admitted, 7u);
  EXPECT_EQ(s.sheds, 2u);
  EXPECT_EQ(s.deadline_rejects, 1u);
  EXPECT_EQ(s.drained, 3u);
  EXPECT_EQ(s.queue_depth, 5u);
  EXPECT_EQ(s.in_flight, 2u);
}

TEST(ServiceProtocol, MalformedPayloadsRaiseSerializeError) {
  const std::string good = encode_optimize_request(OptimizeRequest{});
  // Truncation at every prefix boundary (rev-4 layout).
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_THROW(decode_optimize_request(good.substr(0, n)), SerializeError);
  }
  // Trailing bytes (a newer dialect of the same revision) are rejected,
  // not ignored.
  EXPECT_THROW(decode_optimize_request(good + "y"), SerializeError);
  // Unknown flag bits (the flags byte sits 8 bytes from the rev-4 tail:
  // u32 map_lib length + u32 lut_k follow it).
  {
    std::string bad = good;
    bad[bad.size() - 9] = static_cast<char>(0x80);
    EXPECT_THROW(decode_optimize_request(bad), SerializeError);
  }
  // lut_k out of range (trailing u32).
  {
    std::string bad = good;
    bad[bad.size() - 4] = static_cast<char>(1);
    EXPECT_THROW(decode_optimize_request(bad), SerializeError);
  }
  // A time limit past the ceiling (arrival + limit must not overflow).
  {
    OptimizeRequest req;
    req.options.time_limit_ms = opt::kMaxTimeLimitMs + 1;
    EXPECT_THROW(decode_optimize_request(encode_optimize_request(req)),
                 SerializeError);
  }
  // Unknown response status byte.
  {
    std::string bad = encode_optimize_response(OptimizeResponse{});
    bad[0] = static_cast<char>(0x63);
    EXPECT_THROW(decode_optimize_response(bad), SerializeError);
  }
  // A string field lying about its length.
  {
    std::string bad = encode_optimize_request(OptimizeRequest{});
    bad[0] = static_cast<char>(0xff);  // blif length low byte
    EXPECT_THROW(decode_optimize_request(bad), SerializeError);
  }
}

// Any frame header other than the current revision's marker -- an older
// peer's bare rev-1 header, a rev-3 marker, an unknown future revision --
// is rejected with a message naming what the peer sent and the revision
// this build speaks: the one diagnostic that separates version skew from
// corruption.
TEST(ServiceProtocol, UnknownRevisionRejectedByName) {
  struct Case {
    char header_byte;
    const char* sent;
  };
  const Case cases[] = {
      {static_cast<char>(0xB7), "revision-7"},  // unknown future revision
      {static_cast<char>(0xB3), "revision-3"},  // the previous revision
      {static_cast<char>(0xB2), "revision-2"},
      {static_cast<char>(FrameType::kOptimizeRequest), "revision-1"},
  };
  OptimizeRequest req;
  req.blif = kBlif;
  const std::string payload = encode_optimize_request(req);
  for (const Case& c : cases) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // A whole optimize-request frame under the header byte being tested.
    std::string frame;
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<char>((payload.size() >> (8 * i)) & 0xffu));
    }
    frame.push_back(c.header_byte);
    frame.push_back(static_cast<char>(FrameType::kOptimizeRequest));
    frame += payload;
    ASSERT_EQ(::write(fds[0], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    FrameType type{};
    std::string read_payload;
    try {
      read_frame(fds[1], type, read_payload);
      ADD_FAILURE() << c.sent << " frame was accepted";
    } catch (const SerializeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.sent), std::string::npos) << what;
      EXPECT_NE(what.find("this build speaks revision 4"), std::string::npos)
          << what;
    }
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

TEST(ServiceServer, HandleMapsFailuresToTypedStatuses) {
  ServerOptions options;
  options.socket_path = unique_socket_path("handle");
  Server server(std::move(options));  // handle() needs no socket

  {
    OptimizeRequest req;
    req.blif = "this is not blif";
    const OptimizeResponse resp = server.handle(req);
    EXPECT_EQ(resp.status, Status::kParseError);
    EXPECT_FALSE(resp.error.empty());
  }
  {
    OptimizeRequest req;
    req.blif = kBlif;
    req.options.script = "no_such_pass -x";
    const OptimizeResponse resp = server.handle(req);
    EXPECT_EQ(resp.status, Status::kScriptError);
    EXPECT_FALSE(resp.error.empty());
  }
  {
    OptimizeRequest req;
    req.blif = kBlif;
    const OptimizeResponse resp = server.handle(req);
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_TRUE(resp.error.empty());
    EXPECT_FALSE(resp.blif.empty());
    EXPECT_FALSE(resp.stats_table.empty());
  }
}

// The tentpole contract, end to end over the socket: the second identical
// request is served from the result cache (hit counter up, no misses) and
// the optimized BLIF is byte-identical to the cold run's.
TEST(ServiceServer, SecondIdenticalRequestHitsTheCache) {
  ServerOptions options;
  options.socket_path = unique_socket_path("cache");
  Server server(std::move(options));
  server.start();
  std::thread serve_thread([&server] { server.serve(); });

  {
    Client client(server.socket_path());
    client.connect();

    OptimizeRequest req;
    req.blif = kBlif;
    req.options.jobs = 2;
    const OptimizeResponse cold = client.optimize(req);
    ASSERT_EQ(cold.status, Status::kOk) << cold.error;
    EXPECT_EQ(cold.cache_hits, 0u);
    EXPECT_GT(cold.cache_misses, 0u);

    const OptimizeResponse warm = client.optimize(req);
    ASSERT_EQ(warm.status, Status::kOk) << warm.error;
    EXPECT_GT(warm.cache_hits, 0u);
    EXPECT_EQ(warm.cache_misses, 0u);
    EXPECT_EQ(warm.blif, cold.blif) << "cache changed the emitted network";

    const ServerStats stats = client.server_stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_GT(stats.cache_hits, 0u);
    EXPECT_GT(stats.cache_insertions, 0u);
    EXPECT_EQ(stats.admitted, 2u);
    EXPECT_EQ(stats.sheds, 0u);
  }

  server.stop();
  serve_thread.join();
}

// kFlagBypassCache gives cache-free runs from a warm daemon -- the knob
// the -j determinism comparisons rely on.
TEST(ServiceServer, BypassFlagLeavesTheCacheCold) {
  ServerOptions options;
  options.socket_path = unique_socket_path("bypass");
  Server server(std::move(options));
  server.start();
  std::thread serve_thread([&server] { server.serve(); });

  {
    Client client(server.socket_path());
    client.connect();

    OptimizeRequest req;
    req.blif = kBlif;
    req.options.bypass_cache = true;
    const OptimizeResponse first = client.optimize(req);
    const OptimizeResponse second = client.optimize(req);
    ASSERT_EQ(first.status, Status::kOk) << first.error;
    ASSERT_EQ(second.status, Status::kOk) << second.error;
    EXPECT_EQ(first.cache_hits, 0u);
    EXPECT_EQ(second.cache_hits, 0u);
    EXPECT_EQ(second.blif, first.blif);

    const ServerStats stats = client.server_stats();
    EXPECT_EQ(stats.cache_insertions, 0u);
    EXPECT_EQ(stats.cache_entries, 0u);
  }

  server.stop();
  serve_thread.join();
}

// A request's `jobs` reaches the daemon's worker pool only through the
// bds_decompose -j parse, which refuses counts above 1024: a runaway count
// is answered with a script error and the pool does not grow.
TEST(ServiceServer, RunawayJobsCountIsRefused) {
  ServerOptions options;
  options.socket_path = unique_socket_path("jobs");
  Server server(std::move(options));  // handle() needs no socket
  const unsigned workers = server.workers();

  for (const std::uint32_t jobs : {1025u, 0xffffffffu}) {
    OptimizeRequest req;
    req.blif = kBlif;
    req.options.jobs = jobs;
    const OptimizeResponse resp =
        server.handle(decode_optimize_request(encode_optimize_request(req)));
    EXPECT_EQ(resp.status, Status::kScriptError) << "jobs " << jobs;
    EXPECT_FALSE(resp.error.empty()) << "jobs " << jobs;
  }
  EXPECT_EQ(server.workers(), workers);

  OptimizeRequest ok;
  ok.blif = kBlif;
  ok.options.jobs = 2;
  EXPECT_EQ(server.handle(ok).status, Status::kOk);
}

// Mapping options ride the request end to end: a daemon request with
// map_lib / lut_k set produces exactly the netlist the same script and
// to_script_params() produce in-process (the optimize_blif path) -- the
// acceptance criterion that the CLI and daemon mapping paths agree.
TEST(ServiceServer, MappingOptionsMatchInProcessPipeline) {
  ServerOptions options;
  options.socket_path = unique_socket_path("map");
  Server server(std::move(options));  // handle() needs no socket

  OptimizeRequest req;
  req.blif = kBlif;
  req.options.map_lib = "mcnc";
  req.options.lut_k = 0;
  const OptimizeResponse resp = server.handle(req);
  ASSERT_EQ(resp.status, Status::kOk) << resp.error;
  EXPECT_NE(resp.stats_table.find("map"), std::string::npos)
      << resp.stats_table;
  EXPECT_NE(resp.stats_table.find("mapped_area"), std::string::npos)
      << resp.stats_table;

  net::Network net = net::parse_blif_string(kBlif);
  opt::PassManager manager =
      opt::PassManager::from_script("bds", req.options.to_script_params());
  manager.run(net, opt::PipelineOptions{});
  EXPECT_EQ(resp.blif, net::to_blif_string(net));

  // Same agreement for LUT covering.
  req.options.map_lib.clear();
  req.options.lut_k = 4;
  const OptimizeResponse lut_resp = server.handle(req);
  ASSERT_EQ(lut_resp.status, Status::kOk) << lut_resp.error;
  EXPECT_NE(lut_resp.stats_table.find("lut_count"), std::string::npos)
      << lut_resp.stats_table;

  net::Network lut_net = net::parse_blif_string(kBlif);
  opt::PassManager lut_manager =
      opt::PassManager::from_script("bds", req.options.to_script_params());
  lut_manager.run(lut_net, opt::PipelineOptions{});
  EXPECT_EQ(lut_resp.blif, net::to_blif_string(lut_net));
}

}  // namespace
}  // namespace bds::service
