#include "serve/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/graph_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace optrt::serve {

namespace {

/// RAII mapping of a whole file (read-only, shared).
class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      throw std::runtime_error("mmap open failed: " + path + ": " +
                               std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("mmap fstat failed: " + path + ": " +
                               std::strerror(err));
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      void* p = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd, 0);
      if (p == MAP_FAILED) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("mmap failed: " + path + ": " +
                                 std::strerror(err));
      }
      data_ = static_cast<const std::uint8_t*>(p);
    }
    ::close(fd);  // the mapping survives the descriptor
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  ~MappedFile() {
    if (data_ != nullptr) ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// The graph in the .eg file at `path`, decoded only when no file with
/// the same bytes was decoded into `graphs` before. The key is a copy of
/// the mapped bytes and the decode reads that copy, so a file rewritten
/// mid-load cannot pair one content's key with another's graph. A file
/// that fails to decode is not interned.
const graph::Graph& intern_graph(
    std::unordered_map<std::string, graph::Graph>& graphs,
    const std::string& path) {
  const MappedFile file(path);
  std::string key(reinterpret_cast<const char*>(file.bytes().data()),
                  file.bytes().size());
  auto it = graphs.find(key);
  if (it == graphs.end()) {
    const obs::TraceSpan span("serve.store.decode_graph");
    obs::counter("serve.graph_decodes").inc();
    graph::Graph g = core::decode_graph(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(key.data()), key.size()));
    it = graphs.emplace(std::move(key), std::move(g)).first;
  }
  return it->second;
}

}  // namespace

bitio::BitVector load_artifact_mmap(const std::string& path) {
  obs::counter("serve.artifact_mmaps").inc();
  const MappedFile file(path);
  return schemes::from_bytes(file.bytes());
}

ArtifactStore::ArtifactStore(std::string directory)
    : directory_(std::move(directory)) {}

LoadReport ArtifactStore::load() {
  namespace fs = std::filesystem;
  const obs::TraceSpan load_span("serve.store.load");
  LoadReport report;
  auto fresh = std::make_shared<Catalog>();

  // Sorted stems give deterministic, reload-stable artifact ids.
  std::vector<std::string> stems;
  try {
    for (const auto& entry : fs::directory_iterator(directory_)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      if (p.extension() == ".ort") stems.push_back(p.stem().string());
    }
  } catch (const fs::filesystem_error& e) {
    report.failures.push_back({directory_, e.what()});
    return report;
  }
  std::sort(stems.begin(), stems.end());

  // This load's graphs, keyed by their .eg bytes: artifacts on equal files
  // share one decoded Graph.
  std::unordered_map<std::string, graph::Graph> graphs;
  for (const std::string& stem : stems) {
    const std::string ort = directory_ + "/" + stem + ".ort";
    const std::string eg = directory_ + "/" + stem + ".eg";
    auto served = std::make_unique<ServedArtifact>();
    served->id = static_cast<std::uint32_t>(fresh->artifacts.size());
    served->name = stem;
    const graph::Graph* g = nullptr;
    try {
      g = &intern_graph(graphs, eg);
    } catch (const std::exception& e) {
      report.failures.push_back({eg, e.what()});
      continue;
    }
    try {
      const obs::TraceSpan span("serve.store.load_artifact");
      // One frame parse and CRC per artifact: the decode reports the kind.
      served->compiled =
          schemes::compile_fast_from_artifact(load_artifact_mmap(ort), *g);
      served->kind = served->compiled.kind;
      const model::RoutingScheme& scheme = *served->compiled.scheme;
      served->labels.resize(scheme.node_count());
      for (std::size_t v = 0; v < served->labels.size(); ++v) {
        served->labels[v] = scheme.label_of(static_cast<graph::NodeId>(v));
      }
    } catch (const std::exception& e) {
      report.failures.push_back({ort, e.what()});
      continue;
    }
    fresh->artifacts.push_back(std::move(served));
    ++report.loaded;
  }

  if (report.ok()) {
    // Declared before the lock, so the catalog it takes over is released
    // after the unlock: when the store held its last reference, destroying
    // it would otherwise stall every catalog() call.
    std::shared_ptr<const Catalog> previous;
    std::lock_guard<std::mutex> lock(mu_);
    fresh->epoch = next_epoch_++;
    previous = std::exchange(catalog_, std::move(fresh));
    obs::counter("serve.reloads").inc();
    obs::gauge("serve.catalog_epoch").set(
        static_cast<std::int64_t>(catalog_->epoch));
    obs::gauge("serve.artifacts").set(
        static_cast<std::int64_t>(catalog_->artifacts.size()));
  } else {
    obs::counter("serve.reload_errors").inc();
  }
  return report;
}

std::shared_ptr<const Catalog> ArtifactStore::catalog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_;
}

}  // namespace optrt::serve
