// Staged compile pipeline with typed artifacts and incremental caching.
//
// The offline "generic" stage of the paper's Fig. 4(b), decomposed into six
// named stages:
//
//   instrument -> tcon-map -> pack -> place -> route -> pconf-build
//
// Each stage consumes the previous stage's typed artifact and produces its
// own (see flow/artifacts.h).  A stage's cache key is
//
//   hash_combine(fnv1a(stage-name), kArtifactFormatVersion, input-hash,
//                options-hash)
//
// where input-hash chains the content hashes of every upstream artifact the
// stage reads, and options-hash folds in exactly the option fields that can
// change the stage's output.  The format version retires older on-disk
// encodings in one place: bumping it moves every key, so an entry an older
// build wrote is never looked up, only swept by cache gc.  With a cache
// directory configured, re-running the pipeline re-executes only the
// stages downstream of whatever changed: editing place options leaves
// instrument/tcon-map/pack as cache hits and re-runs place -> route ->
// pconf-build.
//
// Derived physical state (arch::Device, RRGraph, FrameGeometry, the net
// extraction) is deliberately NOT cached: it is a deterministic function of
// the packing and the architecture options, and rebuilding it is cheaper
// than loading and validating a stored copy.  The cache directory holds the
// six stage artifacts and nothing else.
//
// pnr::compile() is the uncached run of the pack/place/route steps; both
// paths derive the physical state with pnr::derive_physical() and fill the
// CompileReport with pnr::fill_report().
//
// Error contract: run() never throws.  Stage failures — including legacy
// fpgadbg::Error exceptions from the CAD libraries and corrupt cache
// entries — come back as a support::Status tagged with the stage name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "debug/flow.h"
#include "flow/cache.h"
#include "support/status.h"

namespace fpgadbg::flow {

enum class StageId {
  kInstrument,
  kTconMap,
  kPack,
  kPlace,
  kRoute,
  kPconfBuild,
};

/// Stable stage name ("instrument", "tcon-map", ...): cache subdirectory,
/// Status stage tag and report label.
const char* stage_name(StageId id);

struct StageReport {
  std::string name;
  bool from_cache = false;        ///< artifact loaded instead of computed
  std::uint64_t key = 0;          ///< cache key (stage, input, options)
  std::uint64_t content_hash = 0; ///< FNV-1a of the serialized artifact
  double seconds = 0.0;           ///< wall clock (execute or load+verify)
  std::size_t artifact_bytes = 0;
};

struct PipelineResult {
  debug::OfflineResult offline;
  std::vector<StageReport> stages;
  std::size_t stages_executed = 0;
  std::size_t stages_from_cache = 0;
};

class Pipeline {
 public:
  explicit Pipeline(debug::OfflineOptions options);

  /// Runs the offline flow on a user circuit.  Cache behavior is governed by
  /// options.cache_dir (empty = every stage executes).
  support::Result<PipelineResult> run(const netlist::Netlist& user) const;

 private:
  debug::OfflineOptions options_;
  ArtifactCache cache_;
};

}  // namespace fpgadbg::flow
