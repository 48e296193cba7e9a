// Artifact cache store tests: the fail-fast integrity contract (truncation
// detected from the fixed header, bit flips from the digest, an older
// header from the magic), the
// LRU-by-atime GC sweep and its concurrency rules (in-flight temp files are
// not entries; a vanished entry is a miss; emptied stage directories go).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "flow/cache.h"
#include "flow/serialize.h"
#include "support/mmap.h"
#include "support/status.h"

namespace fpgadbg::flow {
namespace {

namespace fs = std::filesystem;

struct TempRoot {
  explicit TempRoot(const std::string& stem)
      : path("/tmp/fpgadbg_cachestore_" + std::to_string(::getpid()) + "_" +
             stem) {
    fs::remove_all(path);
  }
  ~TempRoot() { fs::remove_all(path); }
  std::string path;
};

/// Pins a file's atime (nanosecond precision) so LRU order is exact.
void set_atime(const std::string& path, std::int64_t seconds) {
  struct timespec times[2];
  times[0].tv_sec = seconds;
  times[0].tv_nsec = 0;
  times[1].tv_sec = 0;
  times[1].tv_nsec = UTIME_OMIT;
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

// --- integrity contract ----------------------------------------------------

TEST(DirCacheStore, TruncatedBelowHeaderFailsFast) {
  TempRoot root("trunc_hdr");
  const ArtifactCache store(root.path);
  const std::string bytes(1024, 'x');
  ASSERT_TRUE(store.store("place", 1, fnv1a(bytes), bytes).ok());
  ASSERT_EQ(::truncate(store.entry_path("place", 1).c_str(), 17), 0);
  auto load = store.load("place", 1);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), support::StatusCode::kCorruptArtifact);
  EXPECT_NE(load.status().message().find("truncated"), std::string::npos);
}

TEST(DirCacheStore, TruncatedPayloadFailsBeforeDigest) {
  TempRoot root("trunc_pay");
  const ArtifactCache store(root.path);
  const std::string bytes(4096, 'y');
  ASSERT_TRUE(store.store("route", 2, fnv1a(bytes), bytes).ok());
  // Cut the payload in half: the header's payload_size no longer matches
  // the file, so the load must fail from the size check alone.
  ASSERT_EQ(::truncate(store.entry_path("route", 2).c_str(), 64 + 2048), 0);
  auto load = store.load("route", 2);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), support::StatusCode::kCorruptArtifact);
  EXPECT_NE(load.status().message().find("truncated"), std::string::npos);
}

TEST(DirCacheStore, PayloadBitFlipFailsTheDigest) {
  TempRoot root("flip");
  const ArtifactCache store(root.path);
  const std::string bytes(512, 'z');
  ASSERT_TRUE(store.store("pack", 3, fnv1a(bytes), bytes).ok());
  const std::string path = store.entry_path("pack", 3);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(64 + 100);
  f.put('Z');
  f.close();
  auto load = store.load("pack", 3);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), support::StatusCode::kCorruptArtifact);
}

/// Overwrites the whole file at `path` with `image`.
void rewrite(const std::string& path, const std::string& image) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
}

TEST(DirCacheStore, EveryByteFlipIsRejectedOrUnread) {
  // The entry digest is the only integrity check in front of a loader, so
  // no single corrupted byte anywhere in an entry may hand a loader a
  // changed payload.  Every flip in the magic, the labels, the digest, the
  // size or the payload is rejected; the reserved header bytes are never
  // read, so a flip there loads the stored payload unchanged.
  TempRoot root("every_flip");
  const ArtifactCache store(root.path);
  std::string bytes(200, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 37 + 11);
  }
  ASSERT_TRUE(store.store("tcon-map", 5, fnv1a(bytes), bytes).ok());
  const std::string path = store.entry_path("tcon-map", 5);
  std::string golden;
  {
    std::ifstream in(path, std::ios::binary);
    golden.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(golden.size(), 64 + bytes.size());
  for (std::size_t at = 0; at < golden.size(); ++at) {
    std::string bad = golden;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    rewrite(path, bad);
    auto load = store.load("tcon-map", 5);
    if (at >= 40 && at < 64) {
      ASSERT_TRUE(load.ok()) << "byte " << at << ": "
                             << load.status().to_string();
      ASSERT_TRUE(load.value().has_value()) << "byte " << at;
      EXPECT_EQ(load.value()->payload, bytes) << "byte " << at;
    } else {
      ASSERT_FALSE(load.ok()) << "byte " << at << " loaded";
      EXPECT_EQ(load.status().code(), support::StatusCode::kCorruptArtifact)
          << "byte " << at;
    }
  }
}

TEST(DirCacheStore, LegacyHeaderEntryIsCorruptNotAParse) {
  // Entries an older build wrote sit under keys of an older artifact
  // format version, which this build never looks up.  One found where a
  // load does look is damage, not a format to fall back on: the previous
  // header (the same magic with format digit 1) is rejected from the magic
  // alone, before the payload is read.
  TempRoot root("legacy");
  const ArtifactCache store(root.path);
  const std::string bytes = "old stream payload";
  ASSERT_TRUE(store.store("instrument", 4, fnv1a(bytes), bytes).ok());
  const std::string path = store.entry_path("instrument", 4);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(7);
  f.put('1');
  f.close();
  auto load = store.load("instrument", 4);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), support::StatusCode::kCorruptArtifact);
  EXPECT_NE(load.status().message().find("bad magic"), std::string::npos);
}

// --- GC ---------------------------------------------------------------------

TEST(GcSweep, EvictsLeastRecentlyUsedFirst) {
  TempRoot root("sweep");
  fs::create_directories(root.path);
  // Four 100-byte files with strictly increasing atimes.
  std::vector<CacheEntryInfo> all;
  for (int i = 0; i < 4; ++i) {
    CacheEntryInfo e;
    e.path = root.path + "/entry" + std::to_string(i);
    std::ofstream(e.path) << std::string(100, 'a');
    set_atime(e.path, 1000 + i);
    e.bytes = 100;
    e.atime_ns = (1000 + i) * 1'000'000'000LL;
    all.push_back(e);
  }
  // Budget for two entries: the two OLDEST must go, newest two stay.
  const GcStats stats = gc_sweep(all, 200);
  EXPECT_EQ(stats.scanned_entries, 4u);
  EXPECT_EQ(stats.scanned_bytes, 400u);
  EXPECT_EQ(stats.removed_entries, 2u);
  EXPECT_EQ(stats.removed_bytes, 200u);
  EXPECT_FALSE(fs::exists(all[0].path));
  EXPECT_FALSE(fs::exists(all[1].path));
  EXPECT_TRUE(fs::exists(all[2].path));
  EXPECT_TRUE(fs::exists(all[3].path));
}

TEST(DirCacheStore, GcEvictsInAtimeOrder) {
  TempRoot root("dir_gc");
  const ArtifactCache store(root.path);
  const std::string bytes(100, 'g');
  for (std::uint64_t key = 0; key < 4; ++key) {
    ASSERT_TRUE(store.store("place", key, fnv1a(bytes), bytes).ok());
  }
  // Pin atimes so key 2 is the coldest and key 1 the hottest.
  const std::uint64_t by_age[] = {2, 0, 3, 1};  // oldest -> newest
  for (int i = 0; i < 4; ++i) {
    set_atime(store.entry_path("place", by_age[i]), 1000 + i);
  }
  auto stats = store.gc((64 + 100) * 2);  // keep two entries
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().removed_entries, 2u);
  EXPECT_FALSE(store.load("place", 2).value().has_value());  // evicted
  EXPECT_FALSE(store.load("place", 0).value().has_value());  // evicted
  EXPECT_TRUE(store.load("place", 3).value().has_value());   // kept
  EXPECT_TRUE(store.load("place", 1).value().has_value());   // kept
}

TEST(DirCacheStore, GcSkipsInFlightTempFiles) {
  TempRoot root("dir_gc_tmp");
  const ArtifactCache store(root.path);
  const std::string bytes(100, 't');
  ASSERT_TRUE(store.store("route", 1, fnv1a(bytes), bytes).ok());
  // Another process's store of the same entry, not yet renamed into place:
  // deleting it would fail that store.
  const std::string temp = store.entry_path("route", 1) + ".tmp.4242";
  std::ofstream(temp) << std::string(500, 'p');
  auto stats = store.gc(0);
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().scanned_entries, 1u);
  EXPECT_EQ(stats.value().scanned_bytes, 64u + bytes.size());
  EXPECT_EQ(stats.value().removed_entries, 1u);
  EXPECT_FALSE(fs::exists(store.entry_path("route", 1)));
  EXPECT_TRUE(fs::exists(temp));
}

TEST(DirCacheStore, GcRemovesEmptiedStageDirectories) {
  TempRoot root("dir_gc_rmdir");
  const ArtifactCache store(root.path);
  const std::string bytes(100, 'd');
  ASSERT_TRUE(store.store("place", 1, fnv1a(bytes), bytes).ok());
  ASSERT_TRUE(store.store("route", 1, fnv1a(bytes), bytes).ok());
  set_atime(store.entry_path("place", 1), 1000);
  set_atime(store.entry_path("route", 1), 2000);
  // pack/ holds only another process's in-flight store; rr-graph/ is an
  // empty directory of a stage that no longer exists.
  fs::create_directories(root.path + "/pack");
  const std::string temp = store.entry_path("pack", 1) + ".tmp.4242";
  std::ofstream(temp) << std::string(500, 'p');
  fs::create_directories(root.path + "/rr-graph");

  auto stats = store.gc(64 + bytes.size());  // keep the route entry
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().removed_entries, 1u);
  EXPECT_FALSE(fs::exists(root.path + "/place"));
  EXPECT_FALSE(fs::exists(root.path + "/rr-graph"));
  EXPECT_TRUE(fs::exists(store.entry_path("route", 1)));
  EXPECT_TRUE(fs::exists(temp));

  // The next store re-creates the directory the sweep removed.
  ASSERT_TRUE(store.store("place", 1, fnv1a(bytes), bytes).ok());
  EXPECT_TRUE(store.load("place", 1).value().has_value());
}

// --- sharing ----------------------------------------------------------------

TEST(MmapRegion, MissingFileIsNotFound) {
  // An entry a concurrent gc() unlinked reads as not-found, which load()
  // turns into a miss instead of an I/O error.
  TempRoot root("mmap_missing");
  auto mapped = support::MmapRegion::map_file(root.path + "/gone");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), support::StatusCode::kNotFound);
}

TEST(ArtifactCache, TwoHandlesShareOneDir) {
  TempRoot root("shared");
  // Two independent handles over one directory: what one stores the other
  // loads (the in-process analogue of the two-process CLI smoke test).
  const ArtifactCache a(root.path);
  const ArtifactCache b(root.path);
  const std::string bytes = "published by a";
  ASSERT_TRUE(a.store("place", 11, fnv1a(bytes), bytes).ok());
  auto load = b.load("place", 11);
  ASSERT_TRUE(load.ok()) << load.status().to_string();
  ASSERT_TRUE(load.value().has_value());
  EXPECT_EQ(load.value()->payload, bytes);
}

}  // namespace
}  // namespace fpgadbg::flow
