// The daemon's artifact catalog: a directory of ORT2 artifacts, mmapped,
// decoded, and compiled to their query-optimized FastPath forms.
//
// Layout convention: the directory holds `<name>.ort` artifacts, each
// paired with the `<name>.eg` graph it was compiled for (the graph
// supplies the model's free knowledge to the decoder, exactly as the CLI
// does). Artifact ids are the rank of the name in sorted order, so ids
// are stable across reloads as long as the set of names is.
//
// The graph belongs to the network, not to any one scheme (model II's
// free knowledge), so the artifacts of one network read one graph. A load
// maps each `.eg` once and decodes it only if no `.eg` with exactly the
// same bytes was decoded earlier in the same load; artifacts whose `.eg`
// bytes are equal then share one decoded Graph (one adjacency block).
// Nothing is cached across loads: every load rereads every file.
//
// Hot reload is copy-and-swap: load() builds a complete new immutable
// Catalog and atomically replaces the served pointer. In-flight requests
// keep the shared_ptr they resolved at dispatch time, so a reload never
// invalidates an answer mid-batch — the atomic tmp+rename of
// schemes::save_artifact on the producer side plus this swap on the
// consumer side make artifact rollout torn-write-free end to end.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "schemes/serialization.hpp"

namespace optrt::serve {

/// One served artifact: the decoded scheme and its compiled fast path
/// (FastScheme keeps the scheme alive for the fast path). Whatever part
/// of the graph they read, they hold themselves.
struct ServedArtifact {
  std::uint32_t id = 0;
  std::string name;  ///< file stem, e.g. "g0" for g0.ort + g0.eg
  schemes::SchemeKind kind = schemes::SchemeKind::kFullTable;
  schemes::FastScheme compiled;
  /// label_of(v) for every node v, tabulated once per load: a request
  /// labels each pair with one load instead of a virtual call.
  std::vector<graph::NodeId> labels;

  [[nodiscard]] std::size_t node_count() const {
    return compiled.scheme->node_count();
  }
};

/// An immutable snapshot of every served artifact. Shared by reference
/// count between the store and any request currently answering from it.
struct Catalog {
  /// Monotone swap generation: 0 for the pre-load empty catalog, then
  /// incremented once per successful load(). Answers computed from one
  /// shared_ptr all carry the same epoch, so the reload-storm test can
  /// pin "never torn": every batch matches exactly one epoch's oracle.
  /// Not part of the ORTP wire format.
  std::uint64_t epoch = 0;
  std::vector<std::unique_ptr<ServedArtifact>> artifacts;  ///< index == id

  [[nodiscard]] const ServedArtifact* find(std::uint32_t id) const noexcept {
    return id < artifacts.size() ? artifacts[id].get() : nullptr;
  }
};

/// One file that failed to load during a scan, with the CLI-parity
/// diagnostic ("<path>: <kind>: <detail>").
struct LoadFailure {
  std::string path;
  std::string message;
};

/// Outcome of one load()/reload() scan.
struct LoadReport {
  std::size_t loaded = 0;
  std::vector<LoadFailure> failures;
  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// Reads a whole file through mmap and decodes it as an artifact —
/// byte-identical semantics (and error surface) to schemes::load_artifact,
/// but the page cache backs the bytes instead of a heap copy. Throws
/// std::runtime_error on I/O errors, schemes::DecodeError on bad contents.
[[nodiscard]] bitio::BitVector load_artifact_mmap(const std::string& path);

class ArtifactStore {
 public:
  explicit ArtifactStore(std::string directory);

  /// Scans the directory and builds a fresh catalog. On a fully clean
  /// scan the new catalog replaces the served one atomically. If any
  /// artifact fails, the currently served catalog stays in service and
  /// the failures are reported — the store never swaps in a half-loaded
  /// catalog. Callers decide policy: the daemon treats a failed first
  /// load as fatal (verify-artifact parity) and a failed reload as a
  /// kept-old-catalog warning. Under the caller's obs::TraceScope it
  /// records one `serve.store.load` span, and inside it one
  /// `serve.store.decode_graph` per graph decoded and one
  /// `serve.store.load_artifact` per artifact (mmap, frame CRC, decode,
  /// compile_fast).
  LoadReport load();

  /// The currently served snapshot (never null after a successful load;
  /// an empty catalog before).
  [[nodiscard]] std::shared_ptr<const Catalog> catalog() const;

  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }

 private:
  std::string directory_;
  mutable std::mutex mu_;
  std::uint64_t next_epoch_ = 1;  ///< epoch the next successful swap gets
  std::shared_ptr<const Catalog> catalog_ = std::make_shared<Catalog>();
};

}  // namespace optrt::serve
