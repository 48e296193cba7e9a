// On-disk artifact cache for the staged compile pipeline.
//
// One file per entry at <dir>/<stage>/<key-hex>.  Entries carry a fixed
// 64-byte header (magic FDBGART2, stage hash, key, payload FNV-1a, payload
// size), so a load is an mmap + header check + one linear digest pass; the
// stage's deserializer then reads the payload straight from the mapping.
//
// Sharing: any number of processes may point at one directory.  A store
// writes a process-unique <key-hex>.tmp.<pid> file and renames it into
// place, so a reader never sees a partial entry; readers take no lock (a
// mapping taken before an unlink stays valid).  gc() never counts or
// deletes an in-flight temp file, and an entry that a concurrent gc()
// unlinks before a load opens it is a plain miss.
//
// Integrity contract: the fixed header is validated FIRST — magic,
// identity, and the stored payload size against the actual file size — so
// a truncated entry fails fast as StatusCode::kCorruptArtifact before any
// payload byte is hashed; then one FNV-1a pass over the mapped payload
// catches bit flips.  A corrupt entry is a reportable error, never silently
// wrong pipeline output.  Entries of older artifact formats are never
// looked up: the format version is part of every stage key
// (flow/pipeline.h).
//
// A default-constructed (or empty-path) cache is disabled: every load
// misses, every store is a no-op, so pipeline code needs no branches.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/status.h"

namespace fpgadbg::flow {

/// A successful cache load.  `payload` points into `backing` (an mmap
/// region) and stays valid for as long as a copy of `backing` is held; the
/// pipeline deserializes it while it holds the hit.
struct CacheHit {
  std::string_view payload;
  std::uint64_t content_hash = 0;
  std::shared_ptr<const void> backing;
};

/// One stored entry, as seen by the GC sweep.
struct CacheEntryInfo {
  std::string path;           ///< entry file to delete
  std::uint64_t bytes = 0;    ///< on-disk size of `path`
  std::int64_t atime_ns = 0;  ///< last access (LRU order)
};

struct GcStats {
  std::size_t scanned_entries = 0;
  std::size_t removed_entries = 0;
  std::uint64_t scanned_bytes = 0;
  std::uint64_t removed_bytes = 0;
};

/// Removes the listed entries in LRU order until the remaining total is
/// <= max_bytes.  The sweep behind ArtifactCache::gc().
GcStats gc_sweep(std::vector<CacheEntryInfo> all, std::uint64_t max_bytes);

/// The cache the pipeline holds.  Copyable (it is only its directory);
/// disabled when the directory is empty.
class ArtifactCache {
 public:
  /// Disabled cache (all loads miss, stores do nothing).
  ArtifactCache() = default;
  /// Cache under `cache_dir`; empty = disabled.
  explicit ArtifactCache(std::string cache_dir) : dir_(std::move(cache_dir)) {}

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// Looks up (stage, key).  nullopt = miss (also when disabled); a Status
  /// means the entry exists but is corrupt or unreadable.  A hit bumps the
  /// entry's atime (LRU bookkeeping).  Counts
  /// flow.cache.{hits,misses,bytes_read}.
  support::Result<std::optional<CacheHit>> load(const std::string& stage,
                                                std::uint64_t key) const;

  /// Publishes serialized artifact bytes whose FNV-1a hash is
  /// `content_hash`.  Idempotent; concurrent stores of the same entry are
  /// safe (last rename wins, both files are identical), and so is a
  /// concurrent gc() that removes the stage directory.  Counts
  /// flow.cache.stores and flow.cache.bytes_written.
  support::Status store(const std::string& stage, std::uint64_t key,
                        std::uint64_t content_hash,
                        std::string_view bytes) const;

  /// Path of the entry file (for tests and error messages).
  std::string entry_path(const std::string& stage, std::uint64_t key) const;

  /// Every published entry, for the GC sweep; in-flight temp files are not
  /// entries.  Order is unspecified.
  support::Result<std::vector<CacheEntryInfo>> entries() const;

  /// LRU-by-atime sweep: removes oldest-accessed entries until the total
  /// entry size is <= max_bytes, then every stage directory left empty.
  support::Result<GcStats> gc(std::uint64_t max_bytes) const;

 private:
  std::string dir_;
};

}  // namespace fpgadbg::flow
