// The route-serving daemon, locked down:
//  - byte-pinned ORTP v1 golden frames (a wire-format change cannot land
//    silently — the hex literals here are the protocol spec),
//  - a differential oracle: answers served over a real socketpair must be
//    bit-identical to the in-memory scheme's next_hop for every ordered
//    pair, for all seven serializable scheme kinds,
//  - hot reload mid-stream: swapping the artifact under a live connection
//    drops zero in-flight requests and transitions answers atomically,
//  - pinned serve.* counter deltas for the dispatch core.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bitio/crc32.hpp"
#include "core/experiment.hpp"
#include "core/graph_io.hpp"
#include "graph/generators.hpp"
#include "model/scheme.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/full_table.hpp"
#include "schemes/hierarchical.hpp"
#include "schemes/hub.hpp"
#include "schemes/landmark.hpp"
#include "schemes/routing_center.hpp"
#include "schemes/sequential_search.hpp"
#include "schemes/serialization.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::Rng;

Graph certified(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return core::certified_random_graph(n, rng);
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

/// Scratch directory removed on scope exit.
struct TempDir {
  std::filesystem::path path;
  TempDir() {
    char tmpl[] = "/tmp/serve_test.XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

/// One served fixture: a stem plus the in-memory scheme it was built from
/// (the differential oracle).
struct Fixture {
  std::string stem;
  std::unique_ptr<model::RoutingScheme> scheme;
};

/// Writes `<stem>.eg` + `<stem>.ort` and returns the oracle scheme.
template <typename SchemeT>
Fixture add_fixture(const TempDir& dir, const std::string& stem,
                    const Graph& g, SchemeT scheme) {
  core::save_graph(dir.file(stem + ".eg"), g);
  schemes::save_artifact(dir.file(stem + ".ort"), schemes::serialize(scheme));
  return {stem, std::make_unique<SchemeT>(std::move(scheme))};
}

/// Inverts the middle byte of a file on disk (inside an artifact's
/// payload, so its frame CRC must catch it).
void flip_middle_byte(const std::string& path) {
  std::vector<std::uint8_t> raw;
  {
    std::ifstream in(path, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(in), {});
  }
  raw[raw.size() / 2] ^= 0xFF;
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(raw.data()),
            static_cast<std::streamsize>(raw.size()));
}

/// All eight serializable kinds over one graph, as served fixtures
/// g0..g7 (ids are sorted-stem ranks, so id == index here).
std::vector<Fixture> all_kinds(const TempDir& dir, const Graph& g) {
  std::vector<Fixture> fixtures;
  fixtures.push_back(add_fixture(dir, "g0", g, schemes::CompactDiam2Scheme(g, {})));
  fixtures.push_back(
      add_fixture(dir, "g1", g, schemes::FullTableScheme::standard(g)));
  fixtures.push_back(add_fixture(dir, "g2", g, schemes::HubScheme(g)));
  fixtures.push_back(add_fixture(dir, "g3", g, schemes::RoutingCenterScheme(g)));
  fixtures.push_back(add_fixture(dir, "g4", g, schemes::LandmarkScheme(g)));
  fixtures.push_back(add_fixture(dir, "g5", g, schemes::HierarchicalScheme(g)));
  fixtures.push_back(
      add_fixture(dir, "g6", g, schemes::SequentialSearchScheme(g)));
  fixtures.push_back(add_fixture(dir, "g7", g, schemes::TzScheme(g)));
  return fixtures;
}

/// all_kinds on one graph plus a full-table artifact g8 on a second
/// certified graph with the same n: nine artifacts on two distinct .eg
/// files.
std::vector<Fixture> two_graph_kinds(const TempDir& dir) {
  const Graph g = certified(48, 1996);
  const Graph h = certified(48, 2026);
  EXPECT_FALSE(g == h);
  std::vector<Fixture> fixtures = all_kinds(dir, g);
  fixtures.push_back(
      add_fixture(dir, "g8", h, schemes::FullTableScheme::standard(h)));
  return fixtures;
}

/// Cuts the last three bytes off a file on disk.
void truncate_tail(const std::string& path) {
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
}

/// An in-process server: no listeners, connections arrive as socketpair
/// ends through adopt_connection.
class Harness {
 public:
  explicit Harness(serve::ArtifactStore& store, std::size_t threads = 4) {
    serve::ServerConfig config;
    config.threads = threads;
    config.poll_interval_ms = 5;
    server_ = std::make_unique<serve::Server>(store, config);
    runner_ = std::thread([this] { server_->run(); });
  }

  ~Harness() {
    server_->stop();
    runner_.join();
  }

  [[nodiscard]] serve::Client client() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server_->adopt_connection(sv[0]);
    return serve::Client(sv[1]);
  }

  [[nodiscard]] serve::Server& server() { return *server_; }

 private:
  std::unique_ptr<serve::Server> server_;
  std::thread runner_;
};

// ---- Golden frames: the ORTP v1 wire format, byte for byte ---------------

TEST(ServeProtocolGolden, RequestFramesArePinned) {
  EXPECT_EQ(hex(serve::encode_frame(serve::make_ping_request())),
            "4f5254500101000000000000000000000000000000000000");
  const serve::QueryPair one{3, 17};
  EXPECT_EQ(
      hex(serve::encode_frame(
          serve::make_next_hop_request(0, std::span<const serve::QueryPair>(
                                              &one, 1)))),
      "4f5254500102000000000000010000000800000070e808030300000011000000");
  const serve::QueryPair two[2] = {{3, 17}, {40, 5}};
  EXPECT_EQ(hex(serve::encode_frame(serve::make_route_request(1, two))),
            "4f52545001030000010000000200000010000000e5d7834f0300000011000000"
            "2800000005000000");
  EXPECT_EQ(hex(serve::encode_frame(serve::make_list_request())),
            "4f5254500104000000000000000000000000000000000000");
  EXPECT_EQ(hex(serve::encode_frame(serve::make_reload_request())),
            "4f5254500105000000000000000000000000000000000000");
}

TEST(ServeProtocolGolden, ResponseFramesArePinned) {
  EXPECT_EQ(hex(serve::encode_frame(serve::make_error_response(
                7, serve::WireError::kBadPair, "pair 0 out of range or equal"))),
            "4f525450017f000007000000000000001d0000008e3369a109706169722030206f"
            "7574206f662072616e6765206f7220657175616c");
  serve::Frame ok;
  ok.opcode = static_cast<std::uint8_t>(2 | serve::kResponseBit);
  ok.pair_count = 1;
  serve::put_u32(ok.payload, 17);
  EXPECT_EQ(hex(serve::encode_frame(ok)),
            "4f52545001820000000000000100000004000000e6efe1c911000000");
}

TEST(ServeProtocolGolden, PinnedFramesRoundTrip) {
  const serve::QueryPair one{3, 17};
  const serve::Frame request =
      serve::make_next_hop_request(0, std::span<const serve::QueryPair>(&one, 1));
  std::size_t consumed = 0;
  const serve::Frame back =
      serve::parse_frame(serve::encode_frame(request), &consumed);
  EXPECT_EQ(back, request);
  EXPECT_EQ(consumed, serve::kWireHeaderBytes + 8);
  const auto pairs = serve::decode_query_pairs(back);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], one);
}

TEST(ServeProtocol, WireCrcIsZlibCompatible) {
  // The golden next_hop request's CRC field (0x0308e870) must equal
  // zlib's crc32 over its payload — same convention as the ORT2 frame.
  const std::uint8_t payload[] = {3, 0, 0, 0, 17, 0, 0, 0};
  EXPECT_EQ(bitio::crc32(payload, sizeof payload), 0x0308e870u);
}

TEST(ServeProtocol, HeaderRejectionsAreTyped) {
  const auto code_of = [](std::vector<std::uint8_t> bytes) {
    try {
      (void)serve::parse_header(bytes);
      return serve::WireError{};
    } catch (const serve::ProtocolError& e) {
      return e.code();
    }
  };
  std::vector<std::uint8_t> good =
      serve::encode_frame(serve::make_ping_request());

  EXPECT_EQ(code_of({good.begin(), good.begin() + 10}),
            serve::WireError::kTruncated);
  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(code_of(bad_magic), serve::WireError::kBadMagic);
  auto bad_version = good;
  bad_version[4] = 9;
  EXPECT_EQ(code_of(bad_version), serve::WireError::kVersionMismatch);
  auto bad_opcode = good;
  bad_opcode[5] = 0x42;
  EXPECT_EQ(code_of(bad_opcode), serve::WireError::kBadOpcode);
  auto bad_reserved = good;
  bad_reserved[6] = 1;
  EXPECT_EQ(code_of(bad_reserved), serve::WireError::kMalformed);
  auto huge_payload = good;
  huge_payload[18] = 0xFF;  // payload_len byte 2 → 16 MiB
  EXPECT_EQ(code_of(huge_payload), serve::WireError::kResourceLimit);
  auto huge_pairs = good;
  huge_pairs[14] = 0xFF;  // pair_count byte 2 → > 2^16
  EXPECT_EQ(code_of(huge_pairs), serve::WireError::kResourceLimit);
  auto bad_crc = serve::encode_frame(serve::make_next_hop_request(
      0, std::vector<serve::QueryPair>{{1, 2}}));
  bad_crc.back() ^= 1;  // payload bit flip → checksum catches it
  try {
    (void)serve::parse_frame(bad_crc);
    FAIL() << "corrupt payload must not parse";
  } catch (const serve::ProtocolError& e) {
    EXPECT_EQ(e.code(), serve::WireError::kChecksumMismatch);
  }
}

// ---- Served answers == the in-memory oracle, all seven kinds -------------

TEST(ServeServer, DifferentialOracleAllKinds) {
  const Graph g = certified(48, 1996);
  const auto n = static_cast<NodeId>(g.node_count());
  TempDir dir;
  const std::vector<Fixture> fixtures = all_kinds(dir, g);

  serve::ArtifactStore store(dir.str());
  const serve::LoadReport report = store.load();
  ASSERT_TRUE(report.ok()) << serve::format_load_failure(report.failures[0]);
  ASSERT_EQ(report.loaded, fixtures.size());

  Harness harness(store);
  serve::Client client = harness.client();

  std::vector<serve::QueryPair> pairs;
  pairs.reserve(static_cast<std::size_t>(n) * (n - 1));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) pairs.push_back({u, v});
    }
  }

  for (std::size_t id = 0; id < fixtures.size(); ++id) {
    const model::RoutingScheme& oracle = *fixtures[id].scheme;
    const auto hops =
        client.next_hops(static_cast<std::uint32_t>(id), pairs);
    ASSERT_EQ(hops.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      model::MessageHeader header;
      const NodeId expect = oracle.next_hop(
          pairs[i].src, oracle.label_of(pairs[i].dst), header);
      ASSERT_EQ(hops[i], expect)
          << oracle.name() << ": src=" << pairs[i].src
          << " dst=" << pairs[i].dst;
    }
  }
}

TEST(ServeServer, RoutesMatchTheOracleWalk) {
  const Graph g = certified(32, 7);
  TempDir dir;
  // The two header-stateful kinds exercise the persistent-header walk.
  std::vector<Fixture> fixtures;
  fixtures.push_back(
      add_fixture(dir, "g0", g, schemes::HierarchicalScheme(g)));
  fixtures.push_back(
      add_fixture(dir, "g1", g, schemes::SequentialSearchScheme(g)));

  serve::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.load().ok());
  Harness harness(store);
  serve::Client client = harness.client();

  const auto n = static_cast<NodeId>(g.node_count());
  std::vector<serve::QueryPair> pairs;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) pairs.push_back({u, v});
    }
  }
  for (std::size_t id = 0; id < fixtures.size(); ++id) {
    const model::RoutingScheme& oracle = *fixtures[id].scheme;
    const auto paths = client.routes(static_cast<std::uint32_t>(id), pairs);
    ASSERT_EQ(paths.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      // Local oracle walk, persistent header — the daemon's kRoute
      // semantics (and the CLI route command's).
      std::vector<NodeId> expect;
      model::MessageHeader header;
      NodeId at = pairs[i].src;
      const NodeId dest_label = oracle.label_of(pairs[i].dst);
      while (at != pairs[i].dst) {
        const NodeId next = oracle.next_hop(at, dest_label, header);
        header.came_from = at;
        at = next;
        expect.push_back(at);
      }
      ASSERT_EQ(paths[i], expect)
          << oracle.name() << ": src=" << pairs[i].src
          << " dst=" << pairs[i].dst;
    }
  }
}

TEST(ServeServer, PingListAndTypedRequestErrors) {
  const Graph g = certified(32, 11);
  TempDir dir;
  const std::vector<Fixture> fixtures = all_kinds(dir, g);
  serve::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.load().ok());
  Harness harness(store);
  serve::Client client = harness.client();

  client.ping();  // throws on failure

  const auto rows = client.list();
  ASSERT_EQ(rows.size(), fixtures.size());
  for (std::size_t id = 0; id < rows.size(); ++id) {
    EXPECT_EQ(rows[id].id, id);
    EXPECT_EQ(rows[id].name, fixtures[id].stem);
    EXPECT_EQ(rows[id].node_count, g.node_count());
  }
  EXPECT_EQ(static_cast<schemes::SchemeKind>(rows[1].kind),
            schemes::SchemeKind::kFullTable);

  EXPECT_EQ(client.reload(), fixtures.size());

  // Request-level failures come back as typed error frames on a healthy
  // connection — the client surfaces them as ProtocolError.
  try {
    (void)client.next_hops(99, std::vector<serve::QueryPair>{{0, 1}});
    FAIL() << "unknown artifact must be rejected";
  } catch (const serve::ProtocolError& e) {
    EXPECT_EQ(e.code(), serve::WireError::kUnknownArtifact);
  }
  try {
    (void)client.next_hops(0, std::vector<serve::QueryPair>{{0, 999}});
    FAIL() << "out-of-range pair must be rejected";
  } catch (const serve::ProtocolError& e) {
    EXPECT_EQ(e.code(), serve::WireError::kBadPair);
  }
  try {
    (void)client.next_hops(0, std::vector<serve::QueryPair>{{5, 5}});
    FAIL() << "src == dst must be rejected";
  } catch (const serve::ProtocolError& e) {
    EXPECT_EQ(e.code(), serve::WireError::kBadPair);
  }
  client.ping();  // the connection survived every typed error
}

// ---- Hot reload under live traffic ---------------------------------------

TEST(ServeServer, HotReloadMidStreamDropsNothing) {
  const Graph g = certified(48, 1996);
  const auto n = static_cast<NodeId>(g.node_count());
  TempDir dir;
  // Full-table routes to the least shortest-path successor; the hub
  // scheme detours via its hub — observably different answers, so the
  // reload transition is visible in the served hops.
  const schemes::FullTableScheme before = schemes::FullTableScheme::standard(g);
  const schemes::HubScheme after(g);
  core::save_graph(dir.file("g0.eg"), g);
  schemes::save_artifact(dir.file("g0.ort"), schemes::serialize(before));

  std::vector<serve::QueryPair> pairs;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) pairs.push_back({u, v});
    }
  }
  const auto oracle_of = [&](const model::RoutingScheme& s) {
    std::vector<NodeId> hops(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      model::MessageHeader header;
      hops[i] = s.next_hop(pairs[i].src, s.label_of(pairs[i].dst), header);
    }
    return hops;
  };
  const std::vector<NodeId> oracle_a = oracle_of(before);
  const std::vector<NodeId> oracle_b = oracle_of(after);
  ASSERT_NE(oracle_a, oracle_b)
      << "fixture schemes must answer differently somewhere";

  serve::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.load().ok());
  Harness harness(store);

  std::atomic<bool> reloaded{false};
  std::atomic<bool> stop{false};
  std::size_t matched_a = 0;
  std::size_t matched_b = 0;
  std::size_t matched_b_after_reload = 0;
  std::size_t after_reload = 0;
  std::string failure;

  std::thread querier([&, client = harness.client()]() mutable {
    while (!stop.load()) {
      const bool sent_after_reload = reloaded.load();
      std::vector<NodeId> hops;
      try {
        hops = client.next_hops(0, pairs);
      } catch (const std::exception& e) {
        failure = e.what();  // any dropped/failed request fails the test
        return;
      }
      if (hops == oracle_a) {
        ++matched_a;
      } else if (hops == oracle_b) {
        ++matched_b;
      } else {
        failure = "served answers matched neither artifact";
        return;
      }
      if (sent_after_reload) {
        ++after_reload;
        if (hops == oracle_b) ++matched_b_after_reload;
      }
    }
  });

  // Let traffic flow on the old artifact, swap it (atomic tmp+rename),
  // reload over a second connection, then let traffic continue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  schemes::save_artifact(dir.file("g0.ort"), schemes::serialize(after));
  {
    serve::Client admin = harness.client();
    EXPECT_EQ(admin.reload(), 1u);
  }
  reloaded.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  querier.join();

  EXPECT_TRUE(failure.empty()) << failure;
  EXPECT_GT(matched_a, 0u) << "no request was served by the old artifact";
  EXPECT_GT(after_reload, 0u) << "no request was sent after the reload";
  // A request sent after reload() returned must answer from the new
  // catalog: the swap happened-before the reload response.
  EXPECT_EQ(matched_b_after_reload, after_reload);
  EXPECT_GT(matched_b, 0u);
}

TEST(ServeServer, ReloadStormMidStreamNeverServesATornCatalog) {
  // The SIGHUP-storm scenario (optrtd maps SIGHUP to exactly this
  // store.load() path): N rapid artifact swaps while a querier streams
  // batches. Every batch must answer entirely from one catalog — all
  // hops matching one artifact's oracle, never a mix — and zero requests
  // may drop. The catalog epoch pins the swap count: monotone, one
  // increment per successful reload.
  const Graph g = certified(40, 2024);
  const auto n = static_cast<NodeId>(g.node_count());
  TempDir dir;
  const schemes::FullTableScheme scheme_a = schemes::FullTableScheme::standard(g);
  const schemes::HubScheme scheme_b(g);
  core::save_graph(dir.file("g0.eg"), g);
  schemes::save_artifact(dir.file("g0.ort"), schemes::serialize(scheme_a));

  std::vector<serve::QueryPair> pairs;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) pairs.push_back({u, v});
    }
  }
  const auto oracle_of = [&](const model::RoutingScheme& s) {
    std::vector<NodeId> hops(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      model::MessageHeader header;
      hops[i] = s.next_hop(pairs[i].src, s.label_of(pairs[i].dst), header);
    }
    return hops;
  };
  const std::vector<NodeId> oracle_a = oracle_of(scheme_a);
  const std::vector<NodeId> oracle_b = oracle_of(scheme_b);
  ASSERT_NE(oracle_a, oracle_b);

  serve::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.load().ok());
  EXPECT_EQ(store.catalog()->epoch, 1u);
  Harness harness(store);

  std::atomic<bool> stop{false};
  std::size_t batches = 0;
  std::size_t matched_a = 0;
  std::size_t matched_b = 0;
  std::string failure;
  std::thread querier([&, client = harness.client()]() mutable {
    while (!stop.load()) {
      std::vector<NodeId> hops;
      try {
        hops = client.next_hops(0, pairs);
      } catch (const std::exception& e) {
        failure = e.what();
        return;
      }
      ++batches;
      if (hops == oracle_a) {
        ++matched_a;
      } else if (hops == oracle_b) {
        ++matched_b;
      } else {
        failure = "torn catalog: a batch matched neither oracle";
        return;
      }
    }
  });

  // The storm: 16 swaps alternating the artifact under the live stream,
  // each followed by an immediate reload over its own admin connection.
  constexpr std::size_t kSwaps = 16;
  for (std::size_t i = 0; i < kSwaps; ++i) {
    schemes::save_artifact(
        dir.file("g0.ort"),
        i % 2 == 0 ? schemes::serialize(scheme_b) : schemes::serialize(scheme_a));
    serve::Client admin = harness.client();
    EXPECT_EQ(admin.reload(), 1u);
    EXPECT_EQ(store.catalog()->epoch, i + 2) << "epoch must track every swap";
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  querier.join();

  EXPECT_TRUE(failure.empty()) << failure;
  EXPECT_GT(batches, 0u);
  EXPECT_EQ(matched_a + matched_b, batches) << "every batch answered whole";
  EXPECT_EQ(store.catalog()->epoch, kSwaps + 1);
}

// ---- One connection, buffers reused as requests shrink and grow ---------

/// Reads one whole response frame off a blocking socket.
std::vector<std::uint8_t> read_frame(int fd) {
  const auto read_into = [fd](std::uint8_t* at, std::size_t n) {
    for (std::size_t done = 0; done < n;) {
      const ssize_t r = ::recv(fd, at + done, n - done, 0);
      if (r <= 0) throw std::runtime_error("connection ended mid-frame");
      done += static_cast<std::size_t>(r);
    }
  };
  std::vector<std::uint8_t> frame(serve::kWireHeaderBytes);
  read_into(frame.data(), frame.size());
  const serve::FrameHeader header = serve::parse_header(frame);
  frame.resize(serve::kWireHeaderBytes + header.payload_len);
  read_into(frame.data() + serve::kWireHeaderBytes, header.payload_len);
  return frame;
}

TEST(ServeServer, OneConnectionMixedTrafficMatchesHandleRequest) {
  const Graph g = certified(48, 1996);
  const auto n = static_cast<NodeId>(g.node_count());
  TempDir dir;
  const std::vector<Fixture> fixtures = all_kinds(dir, g);
  serve::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.load().ok());
  Harness harness(store);

  Rng rng(4096);
  std::vector<serve::QueryPair> big(4096);
  for (serve::QueryPair& pair : big) {
    pair.src = static_cast<NodeId>(rng() % n);
    pair.dst = static_cast<NodeId>((pair.src + 1 + rng() % (n - 1)) % n);
  }
  const std::vector<serve::QueryPair> one{{3, 17}};
  const std::vector<serve::QueryPair> bad{{0, 1}, {5, 5}};
  std::vector<std::uint8_t> flipped =
      serve::encode_frame(serve::make_next_hop_request(7, big));
  flipped[serve::kWireHeaderBytes + 1000] ^= 0x10;

  // In order, on one connection: the largest request, the smallest, two
  // request-level errors, every other opcode, then the largest again.
  const std::vector<std::pair<std::string, std::vector<std::uint8_t>>> stream{
      {"next_hop 4096", serve::encode_frame(serve::make_next_hop_request(7, big))},
      {"next_hop 1", serve::encode_frame(serve::make_next_hop_request(4, one))},
      {"bad pair", serve::encode_frame(serve::make_next_hop_request(7, bad))},
      {"flipped payload bit", flipped},
      {"route", serve::encode_frame(serve::make_route_request(5, big))},
      {"list", serve::encode_frame(serve::make_list_request())},
      {"ping", serve::encode_frame(serve::make_ping_request())},
      {"next_hop 4096 again",
       serve::encode_frame(serve::make_next_hop_request(7, big))},
  };

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  harness.server().adopt_connection(sv[0]);
  const serve::Client owner(sv[1]);  // closes the descriptor at scope exit
  for (const auto& [what, request] : stream) {
    for (std::size_t done = 0; done < request.size();) {
      const ssize_t w = ::send(sv[1], request.data() + done,
                               request.size() - done, MSG_NOSIGNAL);
      ASSERT_GT(w, 0) << what;
      done += static_cast<std::size_t>(w);
    }
    const std::vector<std::uint8_t> served = read_frame(sv[1]);
    EXPECT_EQ(served, harness.server().handle_request(request)) << what;
  }

  // The replies themselves: hops equal the oracle's, errors are typed.
  const auto reply = [&](std::size_t i) {
    return serve::parse_frame(harness.server().handle_request(stream[i].second));
  };
  const std::vector<NodeId> hops = serve::decode_next_hops(reply(0));
  ASSERT_EQ(hops.size(), big.size());
  const model::RoutingScheme& tz = *fixtures[7].scheme;
  for (std::size_t i = 0; i < big.size(); ++i) {
    model::MessageHeader header;
    ASSERT_EQ(hops[i], tz.next_hop(big[i].src, tz.label_of(big[i].dst), header));
  }
  EXPECT_EQ(serve::decode_error(reply(2)).code, serve::WireError::kBadPair);
  EXPECT_EQ(serve::decode_error(reply(3)).code,
            serve::WireError::kChecksumMismatch);
  EXPECT_EQ(serve::decode_routes(reply(4)).size(), big.size());
  EXPECT_EQ(serve::decode_artifact_list(reply(5)).size(), fixtures.size());
}

TEST(ServeServer, OversizedRouteReplyIsAResourceLimitError) {
  // 65,536 pairs across a 128-node chain need 32 MiB of paths, more than
  // any client accepts: the server answers with a typed error instead of
  // growing its response buffer past kMaxPayloadBytes.
  const Graph g = graph::chain(128);
  TempDir dir;
  core::save_graph(dir.file("g0.eg"), g);
  schemes::save_artifact(
      dir.file("g0.ort"),
      schemes::serialize(schemes::FullTableScheme::standard(g)));
  serve::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.load().ok());
  serve::Server server(store, {});
  const std::vector<serve::QueryPair> pairs(serve::kMaxPairsPerRequest,
                                            serve::QueryPair{0, 127});
  const serve::Frame reply = serve::parse_frame(server.handle_request(
      serve::encode_frame(serve::make_route_request(0, pairs))));
  ASSERT_TRUE(reply.is_error());
  EXPECT_EQ(serve::decode_error(reply).code, serve::WireError::kResourceLimit);
}

TEST(ServeServer, LatencyBucketsAreLogLinear) {
  const std::vector<std::uint64_t> bounds = serve::latency_buckets();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 256u);
  EXPECT_GE(bounds.back(), std::uint64_t{1} << 32);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    ASSERT_GT(bounds[i], bounds[i - 1]) << i;
    // Within 1/32 of the lower bound: a p99 and a p999 a few percent
    // apart land in different buckets.
    ASSERT_LE((bounds[i] - bounds[i - 1]) * 32, bounds[i - 1]) << i;
  }
}

// ---- Pinned serve.* counter deltas ---------------------------------------

TEST(ServeServer, CounterDeltasArePinned) {
  const Graph g = certified(32, 3);
  TempDir dir;
  core::save_graph(dir.file("g0.eg"), g);
  schemes::save_artifact(dir.file("g0.ort"),
                         schemes::serialize(schemes::FullTableScheme::standard(g)));

  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();

  serve::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.load().ok());
  EXPECT_EQ(reg.counter_value("serve.reloads"), 1u);
  EXPECT_EQ(reg.counter_value("serve.artifact_mmaps"), 1u);
  EXPECT_EQ(reg.gauge_value("serve.artifacts"), 1);

  // The pure dispatch core, no sockets: every counter below is a direct
  // consequence of exactly one frame.
  serve::Server server(store, {});
  const auto call = [&](const serve::Frame& f) {
    return serve::parse_frame(server.handle_request(serve::encode_frame(f)));
  };

  EXPECT_FALSE(call(serve::make_ping_request()).is_error());
  EXPECT_EQ(reg.counter_value("serve.requests"), 1u);
  EXPECT_EQ(reg.counter_value("serve.requests.ping"), 1u);

  const std::vector<serve::QueryPair> three{{0, 1}, {1, 2}, {2, 3}};
  EXPECT_FALSE(call(serve::make_next_hop_request(0, three)).is_error());
  EXPECT_EQ(reg.counter_value("serve.requests"), 2u);
  EXPECT_EQ(reg.counter_value("serve.requests.next_hop"), 1u);
  EXPECT_EQ(reg.counter_value("serve.pairs"), 3u);

  auto bad_magic = serve::encode_frame(serve::make_ping_request());
  bad_magic[0] ^= 0xFF;
  const serve::Frame err = serve::parse_frame(server.handle_request(bad_magic));
  ASSERT_TRUE(err.is_error());
  EXPECT_EQ(serve::decode_error(err).code, serve::WireError::kBadMagic);
  EXPECT_EQ(reg.counter_value("serve.requests"), 3u);
  EXPECT_EQ(reg.counter_value("serve.errors"), 1u);
  EXPECT_EQ(reg.counter_value("serve.errors.bad-magic"), 1u);

  const serve::Frame unknown =
      call(serve::make_next_hop_request(42, three));
  ASSERT_TRUE(unknown.is_error());
  EXPECT_EQ(serve::decode_error(unknown).code,
            serve::WireError::kUnknownArtifact);
  EXPECT_EQ(reg.counter_value("serve.errors"), 2u);
  EXPECT_EQ(reg.counter_value("serve.errors.unknown-artifact"), 1u);

  EXPECT_FALSE(call(serve::make_reload_request()).is_error());
  EXPECT_EQ(reg.counter_value("serve.reloads"), 2u);
}

/// A reload parses and checksums each artifact's frame once: the decode
/// that builds the fast path also reports the kind the store serves.
TEST(ServeStore, LoadParsesEachFrameOnce) {
  const Graph g = certified(48, 1996);
  TempDir dir;
  const std::vector<Fixture> fixtures = all_kinds(dir, g);

  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  serve::ArtifactStore store(dir.str());
  for (std::uint64_t round = 1; round <= 2; ++round) {
    const serve::LoadReport report = store.load();
    ASSERT_TRUE(report.ok()) << serve::format_load_failure(report.failures[0]);
    ASSERT_EQ(report.loaded, fixtures.size());
    EXPECT_EQ(reg.counter_value("schemes.artifact.frames_read"),
              round * fixtures.size());
    EXPECT_EQ(reg.counter_value("artifact.decode_ok"), round * fixtures.size());
    EXPECT_EQ(reg.counter_value("artifact.decode_rejected"), 0u);
  }
  // Fixture ids follow SchemeKind order (g0 = compact-diam2 … g7 = tz).
  for (const auto& artifact : store.catalog()->artifacts) {
    EXPECT_EQ(static_cast<std::uint32_t>(artifact->kind), artifact->id + 1)
        << artifact->name;
  }

  // A corrupt frame is still parsed once and rejected once.
  flip_middle_byte(dir.file("g1.ort"));
  EXPECT_FALSE(store.load().ok());
  EXPECT_EQ(reg.counter_value("schemes.artifact.frames_read"),
            3 * fixtures.size());
  EXPECT_EQ(reg.counter_value("artifact.decode_rejected"), 1u);
  EXPECT_EQ(reg.counter_value("artifact.crc_mismatch"), 1u);
}

/// load() must never swap in a half-loaded catalog: a corrupt artifact
/// keeps the previous snapshot serving, with the failure attributed to
/// the right file in reject_file format.
TEST(ServeStore, FailedReloadKeepsTheOldCatalog) {
  const Graph g = certified(32, 5);
  TempDir dir;
  core::save_graph(dir.file("g0.eg"), g);
  schemes::save_artifact(dir.file("g0.ort"),
                         schemes::serialize(schemes::FullTableScheme::standard(g)));
  serve::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.load().ok());
  const auto catalog = store.catalog();

  // Corrupt the artifact on disk and reload: report the .ort, keep serving.
  flip_middle_byte(dir.file("g0.ort"));
  const serve::LoadReport bad = store.load();
  EXPECT_FALSE(bad.ok());
  ASSERT_EQ(bad.failures.size(), 1u);
  EXPECT_EQ(bad.failures[0].path, dir.file("g0.ort"));
  EXPECT_EQ(serve::format_load_failure(bad.failures[0]).rfind("error: ", 0), 0u);
  EXPECT_EQ(store.catalog(), catalog) << "failed reload must not swap";
  EXPECT_EQ(store.catalog()->epoch, 1u) << "epoch counts successful swaps only";
}

/// A TZ artifact whose .eg leaves a node unreachable from every landmark
/// is a typed load failure, never a crash: the 6-cycle's artifact against
/// two disjoint triangles. The degrees are equal, so every stored port
/// validates; landmark seed 2 puts every landmark in one triangle.
TEST(ServeStore, TzArtifactOnAGraphNoLandmarkSpansKeepsTheOldCatalog) {
  const Graph ring = graph::TopologyFamily::ring().make(6, 0);
  TempDir dir;
  core::save_graph(dir.file("g0.eg"), ring);
  const schemes::TzScheme scheme(ring, {.seed = 2});
  schemes::save_artifact(dir.file("g0.ort"), schemes::serialize(scheme));
  serve::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.load().ok());
  const auto catalog = store.catalog();

  const std::vector<graph::Edge> triangles = {{0, 1}, {1, 2}, {0, 2},
                                              {3, 4}, {4, 5}, {3, 5}};
  core::save_graph(dir.file("g0.eg"), Graph(6, triangles));
  const serve::LoadReport bad = store.load();
  ASSERT_EQ(bad.failures.size(), 1u);
  EXPECT_EQ(bad.failures[0].path, dir.file("g0.ort"));
  EXPECT_NE(bad.failures[0].message.find("semantic-invalid"), std::string::npos)
      << bad.failures[0].message;
  EXPECT_EQ(store.catalog(), catalog) << "failed reload must not swap";
}

/// Artifacts whose .eg bytes are equal share one decode per load, and
/// nothing carries over to the next load. Every artifact must answer every
/// pair like its own in-memory scheme, so one paired with the other
/// graph fails.
TEST(ServeStore, LoadDecodesEachDistinctGraphOnce) {
  TempDir dir;
  const std::vector<Fixture> fixtures = two_graph_kinds(dir);

  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  serve::ArtifactStore store(dir.str());
  for (std::uint64_t round = 1; round <= 2; ++round) {
    const serve::LoadReport report = store.load();
    ASSERT_TRUE(report.ok()) << serve::format_load_failure(report.failures[0]);
    ASSERT_EQ(report.loaded, fixtures.size());
    EXPECT_EQ(reg.counter_value("serve.graph_decodes"), 2 * round);
    EXPECT_EQ(reg.counter_value("serve.artifact_mmaps"),
              round * fixtures.size());
  }

  const auto catalog = store.catalog();
  ASSERT_EQ(catalog->artifacts.size(), fixtures.size());
  for (std::size_t k = 0; k < fixtures.size(); ++k) {
    const serve::ServedArtifact& artifact = *catalog->artifacts[k];
    ASSERT_EQ(artifact.name, fixtures[k].stem);
    const model::RoutingScheme& oracle = *fixtures[k].scheme;
    const auto n = static_cast<NodeId>(oracle.node_count());
    std::vector<model::RoutePair> pairs;
    std::vector<NodeId> expected;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (u == v) continue;
        const NodeId dest = oracle.label_of(v);
        model::MessageHeader header;
        pairs.push_back({u, dest});
        expected.push_back(oracle.next_hop(u, dest, header));
      }
    }
    std::vector<NodeId> hops(pairs.size());
    artifact.compiled.fast->route_batch(pairs, hops);
    EXPECT_EQ(hops, expected) << artifact.name;
  }
}

/// Under the caller's trace a load records one serve.store.load span, and
/// inside it one decode_graph per graph decoded and one load_artifact per
/// artifact.
TEST(ServeStore, LoadRecordsOneSpanPerStage) {
  TempDir dir;
  const std::vector<Fixture> fixtures = two_graph_kinds(dir);
  serve::ArtifactStore store(dir.str());
  obs::Trace trace;
  {
    const obs::TraceScope scope(trace);
    ASSERT_TRUE(store.load().ok());
  }
  std::map<std::string, std::uint64_t> counts;
  for (const auto& row : trace.summary()) counts[row.name] = row.count;
  EXPECT_EQ(counts["serve.store.load"], 1u);
  EXPECT_EQ(counts["serve.store.decode_graph"], 2u);
  EXPECT_EQ(counts["serve.store.load_artifact"], fixtures.size());

  std::uint32_t load_depth = 0;
  for (const auto& e : trace.events()) {
    if (e.name == "serve.store.load") load_depth = e.depth;
  }
  for (const auto& e : trace.events()) {
    if (e.name == "serve.store.decode_graph" ||
        e.name == "serve.store.load_artifact") {
      EXPECT_EQ(e.depth, load_depth + 1) << e.name;
    }
  }
}

/// A bad .eg fails its own artifact with the error core::load_graph throws
/// for the same bytes, and is never interned: a file equal to another
/// that decoded still decodes, and two equal bad files fail twice.
TEST(ServeStore, BadGraphFileKeepsTheOldCatalog) {
  const Graph g = certified(32, 7);
  TempDir dir;
  add_fixture(dir, "g0", g, schemes::FullTableScheme::standard(g));
  add_fixture(dir, "g1", g, schemes::HubScheme(g));
  serve::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.load().ok());
  const auto catalog = store.catalog();

  truncate_tail(dir.file("g1.eg"));
  std::string expected;
  try {
    (void)core::load_graph(dir.file("g1.eg"));
  } catch (const schemes::DecodeError& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty()) << "a truncated .eg must not decode";

  serve::LoadReport bad = store.load();
  ASSERT_EQ(bad.failures.size(), 1u);
  EXPECT_EQ(bad.failures[0].path, dir.file("g1.eg"));
  EXPECT_EQ(bad.failures[0].message, expected);
  EXPECT_EQ(store.catalog(), catalog) << "failed reload must not swap";

  truncate_tail(dir.file("g0.eg"));
  bad = store.load();
  ASSERT_EQ(bad.failures.size(), 2u);
  EXPECT_EQ(bad.failures[0].path, dir.file("g0.eg"));
  EXPECT_EQ(bad.failures[1].path, dir.file("g1.eg"));
  EXPECT_EQ(bad.failures[0].message, expected);
  EXPECT_EQ(bad.failures[1].message, expected);
  EXPECT_EQ(store.catalog(), catalog);

  core::save_graph(dir.file("g0.eg"), g);
  std::filesystem::remove(dir.file("g1.eg"));
  bad = store.load();
  ASSERT_EQ(bad.failures.size(), 1u);
  EXPECT_EQ(bad.failures[0].path, dir.file("g1.eg"));
  EXPECT_NE(bad.failures[0].message.find(dir.file("g1.eg")), std::string::npos)
      << bad.failures[0].message;
  EXPECT_EQ(store.catalog(), catalog);
}

}  // namespace
}  // namespace optrt
