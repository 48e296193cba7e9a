// Debug-session flight recorder.
//
// Every DebugSession event — session start, debugging turns, emulated-cycle
// batches, trigger fires, snapshot/restore, resets — is appended as one
// typed SessionEvent to an in-memory ring and, when installed, streamed to a
// JSONL sink (one JSON object per line).  A debugging turn is one kTurn
// event holding the TurnReport that observe() returned: the requested and
// observed signals, the SCG's bits and time, and the partial
// reconfiguration's frames.  The journal is the session's replayable
// record: replay() re-drives the recorded turn sequence against the same
// OfflineResult and checks that every deterministic turn outcome (observed
// signals, bits changed, frames written) reproduces exactly.  Timing fields
// are re-measured on replay, never compared — wall-clock is not part of the
// contract.
//
// Hot-path cost: step() only bumps a pending-cycle counter; a kCycleBatch
// event is flushed at the next turn/trigger/reset boundary.  With the
// journal disabled every hook is one branch.
#pragma once

#include <cstdint>
#include <cstddef>
#include <iosfwd>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "support/status.h"

namespace fpgadbg::debug {

struct OfflineResult;

/// One debugging turn: what DebugSession::observe() returns and what its
/// kTurn journal event records.  A session without a PConf runs no SCG and
/// writes no frames, so its turns leave the bit, frame and time fields 0.
struct TurnReport {
  std::vector<std::string> requested;    ///< signals asked for
  std::vector<std::string> observed;     ///< signal shown per lane
  std::size_t bits_changed = 0;          ///< configuration bits rewritten
  std::size_t bits_evaluated = 0;        ///< bits the SCG evaluated
  std::size_t frames_reconfigured = 0;   ///< DPR frame count
  /// The session's first configuration: the SCG specialized the whole
  /// PConf and every frame was written, so frame_ids stays empty.
  bool full = false;
  std::vector<std::size_t> frame_ids;    ///< partial: frames, ascending
  double scg_eval_seconds = 0.0;         ///< measured Boolean evaluation time
  double reconfig_seconds = 0.0;         ///< modeled HWICAP transfer time
  double turn_seconds = 0.0;             ///< eval + reconfig
  double coverage = 0.0;  ///< signal-coverage fraction after the turn
};

enum class SessionEventKind : std::uint8_t {
  kSessionStart,  ///< session constructed: count = trace lanes
  kTurn,          ///< observe() done: report = the turn's TurnReport
  kCycleBatch,    ///< count emulated cycles since the previous boundary
  kTrigger,       ///< trigger matched: count = trigger-relative fire cycle,
                  ///< frozen/samples = the frozen trace window
  kSnapshot,      ///< DUT state captured at `cycle`
  kRestore,       ///< DUT state restored at `cycle`
  kReset,         ///< session reset
};

const char* to_string(SessionEventKind kind);
std::optional<SessionEventKind> parse_session_event_kind(
    const std::string& name);

/// One journal record.  Field meaning depends on `kind` (see the enum);
/// unused fields stay value-initialized and are omitted from the JSONL form.
struct SessionEvent {
  SessionEventKind kind = SessionEventKind::kSessionStart;
  std::uint64_t seq = 0;    ///< monotonic per session (assigned on append)
  std::uint64_t turn = 0;   ///< turns completed before the event (kTurn:
                            ///< the turn's own index)
  std::uint64_t cycle = 0;  ///< session cycles emulated when emitted

  /// Causal join keys: the telemetry::TraceContext active when the event was
  /// emitted (0/0 when tracing was off).  Lets a recorded turn be joined
  /// against its Chrome-trace spans and JSON log lines; omitted from the
  /// JSONL form when zero and never compared by replay().
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  /// kSessionStart: lanes; kCycleBatch: cycles in the batch; kTrigger:
  /// trigger-relative fire cycle; kSnapshot/kRestore: DUT cycle.
  std::uint64_t count = 0;

  /// kTrigger: samples stored in the frozen window (may exceed
  /// samples.size()).
  std::uint64_t frozen = 0;
  /// kTrigger: the window's newest samples, one '0'/'1' string each, lane 0
  /// first, newest last.
  std::vector<std::string> samples;

  /// kTurn: the turn's outcome.
  TurnReport report;
};

class SessionJournal {
 public:
  /// The ringed events, oldest first.  A view: it and its iterators stay
  /// valid until the journal changes.
  class Events {
   public:
    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = SessionEvent;
      using difference_type = std::ptrdiff_t;
      using pointer = const SessionEvent*;
      using reference = const SessionEvent&;

      const_iterator() = default;
      const_iterator(const std::vector<SessionEvent>* ring, std::size_t head,
                     std::size_t index)
          : ring_(ring), head_(head), index_(index) {}
      reference operator*() const { return at(*ring_, head_, index_); }
      pointer operator->() const { return &at(*ring_, head_, index_); }
      const_iterator& operator++() {
        ++index_;
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator old = *this;
        ++index_;
        return old;
      }
      bool operator==(const const_iterator& other) const {
        return index_ == other.index_;
      }
      bool operator!=(const const_iterator& other) const {
        return index_ != other.index_;
      }

     private:
      const std::vector<SessionEvent>* ring_ = nullptr;
      std::size_t head_ = 0;
      std::size_t index_ = 0;
    };

    Events(const std::vector<SessionEvent>& ring, std::size_t head)
        : ring_(&ring), head_(head) {}
    std::size_t size() const { return ring_->size(); }
    bool empty() const { return size() == 0; }
    const SessionEvent& operator[](std::size_t i) const {
      return at(*ring_, head_, i);
    }
    const SessionEvent& front() const { return (*this)[0]; }
    const SessionEvent& back() const { return (*this)[size() - 1]; }
    const_iterator begin() const { return {ring_, head_, 0}; }
    const_iterator end() const { return {ring_, head_, size()}; }

   private:
    static const SessionEvent& at(const std::vector<SessionEvent>& ring,
                                  std::size_t head, std::size_t i) {
      const std::size_t j = head + i;
      return ring[j < ring.size() ? j : j - ring.size()];
    }

    const std::vector<SessionEvent>* ring_;
    std::size_t head_;
  };

  /// `capacity` bounds the in-memory ring; once full the oldest events are
  /// dropped (counted in dropped_events()).  The ring's storage is reserved
  /// up front and its pages are touched as events arrive.  The JSONL sink,
  /// once attached, sees every event regardless of ring eviction.
  explicit SessionJournal(std::size_t capacity = 1u << 15);

  bool enabled() const { return enabled_; }
  /// Disabling stops recording entirely (events are neither ringed nor
  /// written to the sink); re-enabling resumes with the next event.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Installs (or, with nullptr, detaches) a JSONL sink.  Events already in
  /// the ring are written immediately so a sink attached after session
  /// construction still sees the constructor's initial turn; later events
  /// stream as they are appended.  The stream must outlive the journal or
  /// be detached first.
  void set_sink(std::ostream* sink);

  void append(SessionEvent event);

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_events() const { return total_; }
  std::uint64_t dropped_events() const { return dropped_; }
  Events events() const { return Events(ring_, head_); }
  void clear();

  /// One event as a single JSONL line (no trailing newline).
  static void write_event(std::ostream& os, const SessionEvent& event);
  /// Every ringed event, one line each.
  void write_all(std::ostream& os) const;

  /// Parses JSONL (one event per line; blank lines ignored) back into a
  /// journal.  A malformed line or unknown "ev" kind is a parse error.
  static support::Result<SessionJournal> load(std::istream& in);
  static support::Result<SessionJournal> load_file(const std::string& path);

 private:
  std::size_t capacity_;
  bool enabled_ = true;
  /// Events in arrival order from head_ on, wrapping; head_ stays 0 until
  /// the ring is full.  A vector, not a deque: a deque keeps this record
  /// two to a node and costs 19 bytes more per event.
  std::vector<SessionEvent> ring_;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_seq_ = 0;
  std::ostream* sink_ = nullptr;
};

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

struct ReplayTurnCheck {
  std::uint64_t turn = 0;
  bool match = false;
  std::string detail;  ///< human-readable mismatch description ("" if match)
};

struct ReplayResult {
  std::size_t turns_checked = 0;
  std::size_t mismatches = 0;
  std::vector<ReplayTurnCheck> checks;
  bool ok() const { return mismatches == 0; }
};

/// Re-drives the journal's kTurn sequence (the requested signal sets, in
/// order) on a fresh DebugSession over the same OfflineResult and compares
/// each turn's deterministic outcome — observed signals, bits changed,
/// frames reconfigured, and (for partial turns) the exact frame set —
/// against the recording.  A journal whose turns do not run 0, 1, 2, ...
/// (the ring evicted the first ones) is reported incomplete, not replayed.  The SCG being a pure function of the parameter
/// assignment, any mismatch means the offline artifacts or the SCG changed
/// since the recording.
ReplayResult replay(const OfflineResult& offline,
                    const SessionJournal& recorded);

}  // namespace fpgadbg::debug
