#include "flow/cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "flow/serialize.h"
#include "support/mmap.h"
#include "support/telemetry.h"

namespace fpgadbg::flow {

namespace {

namespace fs = std::filesystem;

using support::MmapRegion;
using support::Result;
using support::Status;

// The header is a fixed 64 bytes: a header read is one fixed-size I/O, and
// its 24 reserved bytes leave room for fields without a layout change.
constexpr std::size_t kEntryHeaderSize = 64;
constexpr char kMagic[8] = {'F', 'D', 'B', 'G', 'A', 'R', 'T', '2'};

/// Marks the process-unique file a store writes before renaming it into
/// place: <key-hex>.tmp.<pid>.
constexpr std::string_view kTempInfix = ".tmp.";

/// Fixed header: magic[0,8) stage_hash[8,16) key[16,24) payload_hash[24,32)
/// payload_size[32,40) reserved-zero[40,64).
struct EntryHeader {
  std::uint64_t stage_hash = 0;
  std::uint64_t key = 0;
  std::uint64_t payload_hash = 0;
  std::uint64_t payload_size = 0;
};

void encode_header(char out[kEntryHeaderSize], const EntryHeader& h) {
  std::memset(out, 0, kEntryHeaderSize);
  std::memcpy(out, kMagic, 8);
  std::memcpy(out + 8, &h.stage_hash, 8);
  std::memcpy(out + 16, &h.key, 8);
  std::memcpy(out + 24, &h.payload_hash, 8);
  std::memcpy(out + 32, &h.payload_size, 8);
}

EntryHeader decode_header(const char in[kEntryHeaderSize]) {
  EntryHeader h;
  std::memcpy(&h.stage_hash, in + 8, 8);
  std::memcpy(&h.key, in + 16, 8);
  std::memcpy(&h.payload_hash, in + 24, 8);
  std::memcpy(&h.payload_size, in + 32, 8);
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

/// Marks `path` as just-used: sets atime to now, leaves mtime alone.  Best
/// effort (noatime mounts would otherwise starve the LRU sweep of signal).
void touch_atime(const std::string& path) {
  struct timespec times[2];
  times[0].tv_sec = 0;
  times[0].tv_nsec = UTIME_NOW;   // atime := now
  times[1].tv_sec = 0;
  times[1].tv_nsec = UTIME_OMIT;  // mtime unchanged
  ::utimensat(AT_FDCWD, path.c_str(), times, 0);
}

/// st_atime of `path` in nanoseconds, or -1 when unreadable.
std::int64_t read_atime_ns(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<std::int64_t>(st.st_atim.tv_sec) * 1'000'000'000 +
         st.st_atim.tv_nsec;
}

/// Writes `header + payload` to `path` via a process-unique temp file +
/// atomic rename.  Returns false on I/O error, with errno set by the step
/// that failed.
bool publish_file(const std::string& path, const char* header,
                  std::string_view payload) {
  // Process-unique temp name: concurrent writers of the same entry never
  // stomp each other's partial file, and rename() makes the publish atomic.
  const std::string tmp = path + std::string(kTempInfix) +
                          std::to_string(static_cast<long>(::getpid()));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  auto write_all = [&](const char* p, std::size_t n) {
    while (n > 0) {
      const ssize_t w = ::write(fd, p, n);
      if (w <= 0) return false;
      p += w;
      n -= static_cast<std::size_t>(w);
    }
    return true;
  };
  bool ok = write_all(header, kEntryHeaderSize) &&
            write_all(payload.data(), payload.size());
  if (::close(fd) != 0) ok = false;
  if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) {
    const int err = errno;
    ::unlink(tmp.c_str());
    errno = err;
  }
  return ok;
}

}  // namespace

GcStats gc_sweep(std::vector<CacheEntryInfo> all, std::uint64_t max_bytes) {
  GcStats stats;
  stats.scanned_entries = all.size();
  std::uint64_t total = 0;
  for (const CacheEntryInfo& e : all) total += e.bytes;
  stats.scanned_bytes = total;

  // Least-recently-used first; path tie-break keeps the order deterministic
  // when atimes collide (coarse filesystem timestamps).
  std::sort(all.begin(), all.end(),
            [](const CacheEntryInfo& a, const CacheEntryInfo& b) {
              if (a.atime_ns != b.atime_ns) return a.atime_ns < b.atime_ns;
              return a.path < b.path;
            });
  for (const CacheEntryInfo& e : all) {
    if (total <= max_bytes) break;
    if (::unlink(e.path.c_str()) != 0 && errno != ENOENT) continue;
    total -= e.bytes;
    stats.removed_bytes += e.bytes;
    ++stats.removed_entries;
  }
  return stats;
}

std::string ArtifactCache::entry_path(const std::string& stage,
                                      std::uint64_t key) const {
  if (!enabled()) return {};
  return dir_ + "/" + stage + "/" + hex64(key);
}

Result<std::optional<CacheHit>> ArtifactCache::load(const std::string& stage,
                                                    std::uint64_t key) const {
  if (!enabled()) return std::optional<CacheHit>();
  auto& m = telemetry::metrics();
  const std::string path = entry_path(stage, key);

  // One open: a missing entry — never stored, or unlinked by a concurrent
  // gc() — is a miss; any other failure to map it is an I/O error.
  Result<std::shared_ptr<MmapRegion>> mapped = MmapRegion::map_file(path);
  if (!mapped.ok()) {
    if (mapped.status().code() != support::StatusCode::kNotFound) {
      return mapped.status();
    }
    m.counter("flow.cache.misses").add();
    return std::optional<CacheHit>();
  }
  std::shared_ptr<MmapRegion> region = std::move(mapped).value();
  const std::string_view file = region->view();

  // Fail fast on truncation BEFORE touching any payload byte: the fixed
  // header carries the payload size, so a short file is detected from
  // the first 64 bytes, not discovered at the end of a full digest pass.
  if (file.size() < kEntryHeaderSize) {
    return Status::corrupt_artifact(
        "cache entry " + path + ": shorter than the fixed header (truncated)");
  }
  if (std::memcmp(file.data(), kMagic, 8) != 0) {
    return Status::corrupt_artifact("cache entry " + path +
                                    ": bad magic (not an artifact file)");
  }
  const EntryHeader h = decode_header(file.data());
  if (h.stage_hash != fnv1a(stage) || h.key != key) {
    return Status::corrupt_artifact("cache entry " + path +
                                    ": mislabeled header");
  }
  if (h.payload_size != file.size() - kEntryHeaderSize) {
    return Status::corrupt_artifact(
        "cache entry " + path +
        ": payload size does not match the file (truncated)");
  }
  const std::string_view payload = file.substr(kEntryHeaderSize);
  if (fnv1a(payload) != h.payload_hash) {
    return Status::corrupt_artifact(
        "cache entry " + path +
        ": payload hash mismatch (file is damaged); delete it to recompute");
  }

  touch_atime(path);
  m.counter("flow.cache.hits").add();
  m.counter("flow.cache.bytes_read").add(payload.size());
  CacheHit hit;
  hit.payload = payload;
  hit.content_hash = h.payload_hash;
  hit.backing = std::move(region);
  return std::optional<CacheHit>(std::move(hit));
}

Status ArtifactCache::store(const std::string& stage, std::uint64_t key,
                            std::uint64_t content_hash,
                            std::string_view bytes) const {
  if (!enabled()) return Status();
  const std::string path = entry_path(stage, key);
  char header[kEntryHeaderSize];
  encode_header(header,
                EntryHeader{fnv1a(stage), key, content_hash, bytes.size()});
  // A concurrent gc() removes stage directories it finds empty, so the
  // directory can vanish between its creation and the temp file's open:
  // re-create it and retry once.
  for (int attempt = 0;; ++attempt) {
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec) {
      return Status::io_error("cannot create cache directory for " + path +
                              ": " + ec.message());
    }
    if (publish_file(path, header, bytes)) break;
    const int err = errno;
    if (err != ENOENT || attempt == 1) {
      return Status::io_error("cannot publish cache entry " + path + ": " +
                              std::strerror(err));
    }
  }
  auto& m = telemetry::metrics();
  m.counter("flow.cache.stores").add();
  m.counter("flow.cache.bytes_written").add(bytes.size());
  return Status();
}

Result<std::vector<CacheEntryInfo>> ArtifactCache::entries() const {
  std::vector<CacheEntryInfo> all;
  if (!enabled()) return all;
  std::error_code ec;
  for (fs::directory_iterator stage_it(dir_, ec);
       !ec && stage_it != fs::directory_iterator(); ++stage_it) {
    if (!stage_it->is_directory(ec)) continue;
    std::error_code ec2;
    for (fs::directory_iterator it(stage_it->path(), ec2);
         !ec2 && it != fs::directory_iterator(); ++it) {
      if (!it->is_regular_file(ec2)) continue;
      // Another process's store in flight: deleting it would fail that
      // store's rename.
      if (it->path().filename().string().find(kTempInfix) !=
          std::string::npos) {
        continue;
      }
      std::error_code size_ec;
      CacheEntryInfo e;
      e.path = it->path().string();
      e.bytes = it->file_size(size_ec);
      if (size_ec) continue;  // unlinked since the listing
      e.atime_ns = read_atime_ns(e.path);
      all.push_back(std::move(e));
    }
  }
  return all;
}

Result<GcStats> ArtifactCache::gc(std::uint64_t max_bytes) const {
  FPGADBG_ASSIGN_OR_RETURN(std::vector<CacheEntryInfo> all, entries());
  const GcStats stats = gc_sweep(std::move(all), max_bytes);
  // Drop the stage directories the sweep emptied (and those of stages that
  // no longer exist).  rmdir() refuses a file and a directory that still
  // holds an entry or an in-flight temp file, which is the only check
  // needed.
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec);
       !ec && it != fs::directory_iterator(); ++it) {
    ::rmdir(it->path().c_str());
  }
  return stats;
}

}  // namespace fpgadbg::flow
