#include "support/profiler.h"

#include <cxxabi.h>
#include <dirent.h>
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include "support/json.h"

namespace fpgadbg::prof {

namespace {

constexpr int kMaxFrames = 32;

/// One published sample.  The handler claims a slot with a single
/// fetch_add, fills it, and publishes with a release store on `ready`;
/// readers acquire-load `ready` before touching the payload.  No locks
/// anywhere near the signal handler.
struct Sample {
  std::atomic<std::uint32_t> ready{0};
  std::uint32_t depth = 0;
  std::uint32_t tid = 0;
  void* frames[kMaxFrames] = {};
};

struct SamplerState {
  // --- fields the signal handler reads (atomics only) ---------------------
  std::atomic<Sample*> ring{nullptr};
  std::atomic<std::size_t> capacity{0};
  std::atomic<std::uint64_t> head{0};  ///< slots claimed (monotonic)
  std::atomic<std::uint64_t> dropped{0};
  // --- control plane (never touched from the handler) ---------------------
  std::mutex mutex;
  bool running = false;
  bool handler_installed = false;
  int sample_hz = 0;
  std::atomic<std::uint64_t> ticks{0};
  std::atomic<bool> stop_requested{false};
  std::thread timer;
  std::unique_ptr<Sample[]> storage;
  // Rings from earlier runs are retired, not freed: a handler invocation
  // delivered around the moment of a restart may still hold the old
  // pointer, and a leak bounded by the number of start() calls beats a
  // use-after-free in a signal context.
  std::vector<std::unique_ptr<Sample[]>> retired;
};

SamplerState& sampler() {
  static SamplerState* state = new SamplerState;  // leaked: see TraceState
  return *state;
}

/// Async-signal-safe by construction: backtrace() (warmed up at start so
/// its lazy unwinder init never happens here), gettid, and atomics into a
/// preallocated ring.  errno is preserved for the interrupted code.
void sigprof_handler(int, siginfo_t*, void*) {
  SamplerState& s = sampler();
  Sample* ring = s.ring.load(std::memory_order_acquire);
  const std::size_t cap = s.capacity.load(std::memory_order_acquire);
  if (ring == nullptr || cap == 0) return;
  const int saved_errno = errno;
  const std::uint64_t idx = s.head.fetch_add(1, std::memory_order_relaxed);
  if (idx >= cap) {
    s.dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  Sample& slot = ring[idx];
  const int n = ::backtrace(slot.frames, kMaxFrames);
  slot.depth = n > 0 ? static_cast<std::uint32_t>(n) : 0;
  slot.tid = static_cast<std::uint32_t>(::syscall(SYS_gettid));
  slot.ready.store(1, std::memory_order_release);
  errno = saved_errno;
}

/// Timer thread: tick at sample_hz and deliver SIGPROF to every thread of
/// the process (fresh /proc/self/task scan per tick, so threads that
/// appear mid-run are sampled too).  tgkill targets one kernel thread —
/// this is the portable spelling of per-thread timer_create.
void timer_loop(int sample_hz) {
  SamplerState& s = sampler();
  const long interval_ns = 1000000000L / sample_hz;
  const pid_t pid = ::getpid();
  const pid_t self = static_cast<pid_t>(::syscall(SYS_gettid));
  timespec interval{interval_ns / 1000000000L, interval_ns % 1000000000L};
  while (!s.stop_requested.load(std::memory_order_acquire)) {
    ::nanosleep(&interval, nullptr);
    if (s.stop_requested.load(std::memory_order_acquire)) break;
    DIR* dir = ::opendir("/proc/self/task");
    if (dir == nullptr) continue;
    while (dirent* ent = ::readdir(dir)) {
      if (ent->d_name[0] == '.') continue;
      const long tid = std::strtol(ent->d_name, nullptr, 10);
      if (tid <= 0 || tid == self) continue;
      ::syscall(SYS_tgkill, pid, static_cast<pid_t>(tid), SIGPROF);
    }
    ::closedir(dir);
    s.ticks.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Off-path symbolization and aggregation
// ---------------------------------------------------------------------------

/// pc -> display name via dladdr + demangling; falls back to module+offset,
/// then to the raw address.  ';' (the collapsed-stack separator) and
/// whitespace are scrubbed out of every name.
std::string symbolize(void* pc, std::map<void*, std::string>& cache) {
  const auto it = cache.find(pc);
  if (it != cache.end()) return it->second;
  std::string name;
  Dl_info info{};
  if (::dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int status = 1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled) ? demangled : info.dli_sname;
    std::free(demangled);
  } else if (info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s+%p", base ? base + 1 : info.dli_fname,
                  pc);
    name = buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%p", pc);
    name = buf;
  }
  for (char& c : name) {
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') c = '_';
  }
  cache[pc] = name;
  return name;
}

struct ResolvedSample {
  std::uint32_t tid = 0;
  std::vector<std::string> stack;  ///< root first
};

/// Snapshot + symbolize every published sample.  The handler's own frames
/// (handler, backtrace glue, signal trampoline) are stripped so stacks
/// start at the interrupted code.
std::vector<ResolvedSample> resolve_samples() {
  SamplerState& s = sampler();
  std::lock_guard<std::mutex> lock(s.mutex);
  Sample* ring = s.ring.load(std::memory_order_acquire);
  const std::size_t cap = s.capacity.load(std::memory_order_acquire);
  const std::uint64_t claimed = s.head.load(std::memory_order_acquire);
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(claimed, cap));
  std::vector<ResolvedSample> out;
  if (ring == nullptr) return out;
  std::map<void*, std::string> cache;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Sample& slot = ring[i];
    if (slot.ready.load(std::memory_order_acquire) == 0) continue;
    ResolvedSample rs;
    rs.tid = slot.tid;
    std::vector<std::string> leaf_first;
    leaf_first.reserve(slot.depth);
    for (std::uint32_t f = 0; f < slot.depth; ++f) {
      leaf_first.push_back(symbolize(slot.frames[f], cache));
    }
    // Drop everything up to (and including) the deepest frame belonging to
    // signal delivery itself.  The handler is file-static and the glibc
    // trampoline is unnamed, so name matching alone can miss them — in
    // that case fall back to the invariant layout of a signal backtrace:
    // frames[0] = handler, frames[1] = trampoline, frames[2..] = the
    // interrupted code.
    std::size_t first_real = 0;
    for (std::size_t f = 0; f < leaf_first.size(); ++f) {
      const std::string& fn = leaf_first[f];
      if (fn.find("sigprof_handler") != std::string::npos ||
          fn.find("__restore_rt") != std::string::npos ||
          fn.find("__kernel_rt_sigreturn") != std::string::npos) {
        first_real = f + 1;
      }
    }
    if (first_real == 0 && leaf_first.size() >= 3) first_real = 2;
    if (first_real >= leaf_first.size()) first_real = 0;
    rs.stack.assign(leaf_first.rbegin(),
                    leaf_first.rend() - static_cast<std::ptrdiff_t>(first_real));
    if (!rs.stack.empty()) out.push_back(std::move(rs));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

support::Status start_profiler(const ProfilerOptions& options) {
  SamplerState& s = sampler();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.running) {
    return support::Status::invalid_argument("profiler: already running");
  }
  if (options.sample_hz < 1 || options.sample_hz > 10000) {
    return support::Status::invalid_argument(
        "profiler: sample_hz out of range (want 1..10000)");
  }
  if (options.max_samples == 0) {
    return support::Status::invalid_argument(
        "profiler: max_samples must be > 0");
  }

  // Warm up backtrace's lazily loaded unwinder from a normal context; its
  // first call may allocate, which must never happen inside the handler.
  void* warm[4];
  (void)::backtrace(warm, 4);

  // Publish a fresh ring: detach the old one first so the handler can
  // never observe a half-swapped (pointer, capacity) pair.
  s.ring.store(nullptr, std::memory_order_release);
  if (s.storage) s.retired.push_back(std::move(s.storage));
  s.storage = std::make_unique<Sample[]>(options.max_samples);
  s.head.store(0, std::memory_order_relaxed);
  s.dropped.store(0, std::memory_order_relaxed);
  s.ticks.store(0, std::memory_order_relaxed);
  s.capacity.store(options.max_samples, std::memory_order_release);
  s.ring.store(s.storage.get(), std::memory_order_release);

  // The handler stays installed for the process lifetime once first
  // needed: restoring SIG_DFL (terminate!) while a tgkill is still in
  // flight would kill the process on stop.  A null ring makes it a no-op.
  if (!s.handler_installed) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = sigprof_handler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (::sigaction(SIGPROF, &sa, nullptr) != 0) {
      return support::Status::io_error(
          std::string("profiler: sigaction: ") + std::strerror(errno));
    }
    s.handler_installed = true;
  }

  s.sample_hz = options.sample_hz;
  s.stop_requested.store(false, std::memory_order_release);
  s.timer = std::thread(timer_loop, options.sample_hz);
  s.running = true;
  return support::Status();
}

void stop_profiler() {
  SamplerState& s = sampler();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.running) return;
  s.stop_requested.store(true, std::memory_order_release);
  s.timer.join();
  s.running = false;
  // Ring and samples stay live so reports still work after stop; the
  // installed handler ignores any straggler signal harmlessly.
}

bool profiler_running() {
  SamplerState& s = sampler();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.running;
}

ProfilerStats profiler_stats() {
  SamplerState& s = sampler();
  std::lock_guard<std::mutex> lock(s.mutex);
  ProfilerStats stats;
  stats.running = s.running;
  stats.sample_hz = s.sample_hz;
  const std::uint64_t claimed = s.head.load(std::memory_order_relaxed);
  const std::size_t cap = s.capacity.load(std::memory_order_relaxed);
  stats.samples = std::min<std::uint64_t>(claimed, cap);
  stats.dropped = s.dropped.load(std::memory_order_relaxed);
  stats.ticks = s.ticks.load(std::memory_order_relaxed);
  return stats;
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

void write_collapsed(std::ostream& os) {
  const std::vector<ResolvedSample> samples = resolve_samples();
  std::map<std::string, std::uint64_t> stacks;
  for (const ResolvedSample& rs : samples) {
    std::string key;
    for (std::size_t i = 0; i < rs.stack.size(); ++i) {
      if (i) key += ';';
      key += rs.stack[i];
    }
    ++stacks[key];
  }
  // Most-sampled first; ties stay deterministic on the stack string.
  std::vector<std::pair<std::string, std::uint64_t>> rows(stacks.begin(),
                                                          stacks.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  for (const auto& [stack, count] : rows) {
    os << stack << ' ' << count << '\n';
  }
}

std::string collapsed_stacks() {
  std::ostringstream os;
  write_collapsed(os);
  return os.str();
}

void write_speedscope(std::ostream& os) {
  const std::vector<ResolvedSample> samples = resolve_samples();
  // Shared frame table; per-thread sampled profiles in slot order.
  std::map<std::string, std::size_t> frame_index;
  std::vector<std::string> frames;
  std::map<std::uint32_t, std::vector<std::vector<std::size_t>>> by_tid;
  for (const ResolvedSample& rs : samples) {
    std::vector<std::size_t> indexed;
    indexed.reserve(rs.stack.size());
    for (const std::string& fn : rs.stack) {
      const auto [it, fresh] = frame_index.try_emplace(fn, frames.size());
      if (fresh) frames.push_back(fn);
      indexed.push_back(it->second);
    }
    by_tid[rs.tid].push_back(std::move(indexed));
  }
  os << "{\"$schema\": "
        "\"https://www.speedscope.app/file-format-schema.json\",\n"
        " \"shared\": {\"frames\": [";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": ";
    os << support::json_quote(frames[i]);
    os << "}";
  }
  os << "]},\n \"profiles\": [";
  bool first_profile = true;
  for (const auto& [tid, stacks] : by_tid) {
    os << (first_profile ? "" : ",") << "\n  {\"type\": \"sampled\", "
       << "\"name\": \"tid " << tid << "\", \"unit\": \"none\", "
       << "\"startValue\": 0, \"endValue\": " << stacks.size()
       << ", \"samples\": [";
    for (std::size_t i = 0; i < stacks.size(); ++i) {
      os << (i ? ", " : "") << "[";
      for (std::size_t f = 0; f < stacks[i].size(); ++f) {
        os << (f ? ", " : "") << stacks[i][f];
      }
      os << "]";
    }
    os << "], \"weights\": [";
    for (std::size_t i = 0; i < stacks.size(); ++i) os << (i ? ", 1" : "1");
    os << "]}";
    first_profile = false;
  }
  os << (first_profile ? "" : "\n ") << "],\n \"name\": \"fpgadbg profile\", "
     << "\"activeProfileIndex\": 0, \"exporter\": \"fpgadbg\"}\n";
}

bool write_profile_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const bool speedscope =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (speedscope) {
    write_speedscope(out);
  } else {
    write_collapsed(out);
  }
  return static_cast<bool>(out);
}

}  // namespace fpgadbg::prof
