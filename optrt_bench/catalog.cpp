// catalog: the daemon's SIGHUP path. Each op reloads a directory of eight
// artifacts through serve::ArtifactStore::load (mmap, frame CRC, decode,
// compile_fast) and then answers the same seeded pairs through every
// served kind's route_batch, so a change that buys lookup speed with
// compile time shows in the same op.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>

#include "bitio/crc32.hpp"
#include "core/graph_io.hpp"
#include "model/fastpath.hpp"
#include "schemes/serialization.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "workloads.hpp"

namespace optrt::bench {

namespace {

struct CatalogState {
  CatalogState(graph::Graph d, graph::Graph s)
      : dense(std::move(d)), sparse(std::move(s)) {}

  graph::Graph dense;   ///< certified G(n, 1/2): the seven paper kinds
  graph::Graph sparse;  ///< ba:2: TZ
  /// Indexed like scheme_kinds().
  std::vector<std::unique_ptr<model::RoutingScheme>> schemes;
  std::unique_ptr<serve::ArtifactStore> store;
};

std::unique_ptr<CatalogState> set_up(const Context& ctx,
                                     const std::string& art_dir) {
  obs::Trace* trace = ctx.tracer.trace();
  const Options& opt = ctx.opt;
  std::unique_ptr<CatalogState> s;
  {
    obs::TraceSpan span(trace, "graph.generate_s");
    s = std::make_unique<CatalogState>(
        uniform_graph(opt.smoke ? 64 : 256, derive_seed(opt, kGraphAxis)),
        power_law_graph(opt.smoke ? 64 : 512, derive_seed(opt, kGraphAxis, 1)));
  }
  {
    obs::TraceSpan span(trace, "schemes.build_s");
    const graph::Graph& g = s->dense;
    auto& out = s->schemes;
    out.push_back(std::make_unique<schemes::CompactDiam2Scheme>(
        g, schemes::CompactDiam2Scheme::Options::for_model(model::kIIalpha)));
    out.push_back(std::make_unique<schemes::FullTableScheme>(
        schemes::FullTableScheme::standard(g)));
    out.push_back(std::make_unique<schemes::HubScheme>(g));
    out.push_back(std::make_unique<schemes::RoutingCenterScheme>(g));
    out.push_back(std::make_unique<schemes::LandmarkScheme>(g));
    out.push_back(std::make_unique<schemes::HierarchicalScheme>(g));
    out.push_back(std::make_unique<schemes::SequentialSearchScheme>(g));
    out.push_back(std::make_unique<schemes::TzScheme>(
        s->sparse, schemes::TzOptions{.seed = derive_seed(opt, kSchemeAxis)}));
  }
  std::filesystem::create_directories(art_dir);
  {
    obs::TraceSpan span(trace, "schemes.serialize_s");
    for (std::size_t k = 0; k < scheme_kinds().size(); ++k) {
      const std::string stem = art_dir + "/" + scheme_kinds()[k];
      core::save_graph(stem + ".eg", scheme_kinds()[k] == "tz" ? s->sparse
                                                               : s->dense);
      schemes::save_artifact(stem + ".ort", serialize_any(*s->schemes[k]));
    }
  }
  {
    obs::TraceSpan span(trace, "serve.store_load_s");
    s->store = std::make_unique<serve::ArtifactStore>(art_dir);
    const serve::LoadReport report = s->store->load();
    if (!report.ok()) {
      throw std::runtime_error(
          serve::format_load_failure(report.failures.front()));
    }
  }
  return s;
}

/// Re-runs one artifact's reload stages through their public functions,
/// each in its own span: graph read, mmap, CRC, decode, compile.
void replay_stages(obs::Trace* trace, const std::string& art_dir,
                   const std::string& kind) {
  const std::string stem = art_dir + "/" + kind;
  std::optional<graph::Graph> g;
  {
    obs::TraceSpan span(trace, "core.load_graph_us");
    g.emplace(core::load_graph(stem + ".eg"));
  }
  bitio::BitVector bits;
  {
    obs::TraceSpan span(trace, kind_span("serve.load_artifact_mmap_us", kind));
    bits = serve::load_artifact_mmap(stem + ".ort");
  }
  const std::vector<std::uint8_t> bytes = schemes::to_bytes(bits);
  {
    obs::TraceSpan span(trace, "bitio.crc32_us");
    (void)bitio::crc32(bytes.data(), bytes.size());
  }
  std::unique_ptr<model::RoutingScheme> scheme;
  {
    obs::TraceSpan span(trace, kind_span("schemes.deserialize_us", kind));
    scheme = schemes::deserialize_any(bits, *g);
  }
  obs::TraceSpan span(trace, kind_span("model.compile_fast_us", kind));
  (void)scheme->compile_fast();
}

}  // namespace

RunData run_catalog(const Context& ctx) {
  RunData data;
  const std::string art_dir = ctx.dir + "/artifacts";
  const auto state =
      repeat_setup(ctx, data, [&] { return set_up(ctx, art_dir); });
  const std::vector<std::string>& kinds = scheme_kinds();

  // Equal pairs per kind, label-mapped once; the expected answers come
  // from the in-memory schemes, compiled here rather than loaded.
  const std::size_t pair_count = ctx.opt.smoke ? (1u << 14) : (1u << 16);
  std::vector<std::vector<model::RoutePair>> pairs(kinds.size());
  std::vector<std::vector<graph::NodeId>> expected(kinds.size());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const model::RoutingScheme& scheme = *state->schemes[k];
    graph::Rng rng(derive_seed(ctx.opt, kPairsAxis, k));
    std::uniform_int_distribution<graph::NodeId> node(
        0, static_cast<graph::NodeId>(scheme.node_count() - 1));
    while (pairs[k].size() < pair_count) {
      const graph::NodeId src = node(rng);
      const graph::NodeId dst = node(rng);
      if (src != dst) pairs[k].push_back({src, scheme.label_of(dst)});
    }
    expected[k].resize(pair_count);
    scheme.compile_fast()->route_batch(pairs[k], expected[k]);
  }

  obs::Trace* trace = ctx.tracer.trace();
  std::vector<double> reload_ms;
  double lookup_s = 0.0;
  std::vector<graph::NodeId> hops(pair_count);
  measure_loop(ctx, data, [&](bool measured) {
    std::optional<serve::LoadReport> report;
    double reload = 0.0;
    {
      obs::TraceSpan span(measured ? trace : nullptr, "serve.store_reload_us");
      const auto start = Clock::now();
      report = state->store->load();
      reload = seconds_since(start);
    }
    std::string failure;
    if (!report->ok()) {
      failure = serve::format_load_failure(report->failures.front());
    } else if (report->loaded != kinds.size()) {
      failure = "reload served " + std::to_string(report->loaded) +
                " artifacts, want " + std::to_string(kinds.size());
    }
    double lookups = 0.0;
    const auto catalog = state->store->catalog();
    for (const auto& artifact : catalog->artifacts) {
      const auto k = static_cast<std::size_t>(
          std::find(kinds.begin(), kinds.end(), artifact->name) - kinds.begin());
      if (k == kinds.size()) {
        failure = "unexpected artifact " + artifact->name;
        continue;
      }
      {
        obs::TraceSpan span(measured ? trace : nullptr,
                            kind_span("model.route_batch_us", kinds[k]));
        const auto start = Clock::now();
        artifact->compiled.fast->route_batch(pairs[k], hops);
        lookups += seconds_since(start);
      }
      if (hops != expected[k] && failure.empty()) {
        failure = artifact->name + ": route_batch answers differ from the "
                                   "in-memory scheme's";
      }
    }
    ++data.gates.attempted;
    if (!failure.empty()) data.gates.fail(failure);
    if (!measured) return;
    if (trace != nullptr) {
      for (const std::string& kind : kinds) replay_stages(trace, art_dir, kind);
    }
    ++data.ops;
    ++data.traced_ops;
    data.op_ms.push_back((reload + lookups) * 1e3);
    reload_ms.push_back(reload * 1e3);
    lookup_s += lookups;
  });

  data.info.push_back({"reload_p50_ms", quantile(reload_ms, 0.5), "ms"});
  data.info.push_back(
      {"lookup_mpairs_per_s",
       static_cast<double>(data.ops * kinds.size() * pair_count) / lookup_s /
           1e6,
       "Mpairs/s"});
  return data;
}

}  // namespace optrt::bench
