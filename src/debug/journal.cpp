#include "debug/journal.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "debug/session.h"
#include "support/json.h"
#include "support/telemetry.h"

namespace fpgadbg::debug {

// ---------------------------------------------------------------------------
// Event kinds
// ---------------------------------------------------------------------------

const char* to_string(SessionEventKind kind) {
  switch (kind) {
    case SessionEventKind::kSessionStart: return "session_start";
    case SessionEventKind::kTurn: return "turn";
    case SessionEventKind::kCycleBatch: return "cycle_batch";
    case SessionEventKind::kTrigger: return "trigger";
    case SessionEventKind::kSnapshot: return "snapshot";
    case SessionEventKind::kRestore: return "restore";
    case SessionEventKind::kReset: return "reset";
  }
  return "unknown";
}

std::optional<SessionEventKind> parse_session_event_kind(
    const std::string& name) {
  static const std::map<std::string, SessionEventKind> kKinds = {
      {"session_start", SessionEventKind::kSessionStart},
      {"turn", SessionEventKind::kTurn},
      {"cycle_batch", SessionEventKind::kCycleBatch},
      {"trigger", SessionEventKind::kTrigger},
      {"snapshot", SessionEventKind::kSnapshot},
      {"restore", SessionEventKind::kRestore},
      {"reset", SessionEventKind::kReset},
  };
  const auto it = kKinds.find(name);
  if (it == kKinds.end()) return std::nullopt;
  return it->second;
}

// ---------------------------------------------------------------------------
// JSONL writer
// ---------------------------------------------------------------------------

namespace {

/// %.17g round-trips every finite double exactly.
void write_double(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void write_strings(std::ostream& os, const char* key,
                   const std::vector<std::string>& values) {
  os << ",\"" << key << "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) os << ',';
    os << support::json_quote(values[i]);
  }
  os << ']';
}

}  // namespace

void SessionJournal::write_event(std::ostream& os, const SessionEvent& e) {
  os << "{\"ev\":\"" << to_string(e.kind) << "\",\"seq\":" << e.seq
     << ",\"turn\":" << e.turn << ",\"cycle\":" << e.cycle;
  if (e.trace_id != 0) {
    os << ",\"trace_id\":" << e.trace_id << ",\"span_id\":" << e.span_id;
  }
  switch (e.kind) {
    case SessionEventKind::kSessionStart:
      os << ",\"lanes\":" << e.count;
      break;
    case SessionEventKind::kTurn: {
      const TurnReport& r = e.report;
      write_strings(os, "requested", r.requested);
      write_strings(os, "observed", r.observed);
      os << ",\"bits_changed\":" << r.bits_changed
         << ",\"bits_evaluated\":" << r.bits_evaluated
         << ",\"frames\":" << r.frames_reconfigured
         << ",\"full\":" << (r.full ? "true" : "false");
      if (!r.full) {
        os << ",\"frame_ids\":[";
        for (std::size_t i = 0; i < r.frame_ids.size(); ++i) {
          if (i) os << ',';
          os << r.frame_ids[i];
        }
        os << ']';
      }
      os << ",\"eval_s\":";
      write_double(os, r.scg_eval_seconds);
      os << ",\"reconfig_s\":";
      write_double(os, r.reconfig_seconds);
      os << ",\"turn_s\":";
      write_double(os, r.turn_seconds);
      os << ",\"coverage\":";
      write_double(os, r.coverage);
      break;
    }
    case SessionEventKind::kTrigger:
      os << ",\"fire_cycle\":" << e.count << ",\"frozen\":" << e.frozen;
      write_strings(os, "samples", e.samples);
      break;
    case SessionEventKind::kCycleBatch:
    case SessionEventKind::kSnapshot:
    case SessionEventKind::kRestore:
      os << ",\"count\":" << e.count;
      break;
    case SessionEventKind::kReset:
      break;
  }
  os << '}';
}

// ---------------------------------------------------------------------------
// SessionJournal
// ---------------------------------------------------------------------------

SessionJournal::SessionJournal(std::size_t capacity)
    : capacity_(capacity ? capacity : 1) {
  ring_.reserve(capacity_);
}

void SessionJournal::set_sink(std::ostream* sink) {
  sink_ = sink;
  if (sink_) write_all(*sink_);
}

void SessionJournal::append(SessionEvent event) {
  if (!enabled_) return;
  static telemetry::Counter& events_counter =
      telemetry::metrics().counter("debug.journal.events");
  static telemetry::Counter& dropped_counter =
      telemetry::metrics().counter("debug.journal.dropped_events");
  event.seq = next_seq_++;
  ++total_;
  events_counter.add(1);
  if (sink_) {
    write_event(*sink_, event);
    *sink_ << '\n';
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[head_] = std::move(event);  // overwrites the oldest
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  ++dropped_;
  dropped_counter.add(1);
}

void SessionJournal::clear() {
  ring_.clear();
  head_ = 0;
  total_ = 0;
  dropped_ = 0;
  next_seq_ = 0;
}

void SessionJournal::write_all(std::ostream& os) const {
  for (const SessionEvent& e : events()) {
    write_event(os, e);
    os << '\n';
  }
}

// ---------------------------------------------------------------------------
// JSONL loader
// ---------------------------------------------------------------------------

namespace {

std::uint64_t get_u64(const support::JsonValue& obj, const char* key) {
  const support::JsonValue* v = obj.find(key);
  return v && v->is_number() && v->number >= 0.0
             ? static_cast<std::uint64_t>(v->number)
             : 0;
}

double get_double(const support::JsonValue& obj, const char* key) {
  const support::JsonValue* v = obj.find(key);
  return v && v->is_number() ? v->number : 0.0;
}

bool get_bool(const support::JsonValue& obj, const char* key) {
  const support::JsonValue* v = obj.find(key);
  return v && v->kind == support::JsonValue::Kind::kBool && v->boolean;
}

std::vector<std::string> get_strings(const support::JsonValue& obj,
                                     const char* key) {
  std::vector<std::string> out;
  const support::JsonValue* v = obj.find(key);
  if (v && v->is_array()) {
    for (const support::JsonValue& e : v->array) {
      if (e.is_string()) out.push_back(e.str);
    }
  }
  return out;
}

TurnReport get_turn(const support::JsonValue& obj) {
  TurnReport r;
  r.requested = get_strings(obj, "requested");
  r.observed = get_strings(obj, "observed");
  r.bits_changed = get_u64(obj, "bits_changed");
  r.bits_evaluated = get_u64(obj, "bits_evaluated");
  r.frames_reconfigured = get_u64(obj, "frames");
  r.full = get_bool(obj, "full");
  if (const support::JsonValue* ids = obj.find("frame_ids");
      ids && ids->is_array()) {
    for (const support::JsonValue& id : ids->array) {
      if (id.is_number() && id.number >= 0.0) {
        r.frame_ids.push_back(static_cast<std::size_t>(id.number));
      }
    }
  }
  r.scg_eval_seconds = get_double(obj, "eval_s");
  r.reconfig_seconds = get_double(obj, "reconfig_s");
  r.turn_seconds = get_double(obj, "turn_s");
  r.coverage = get_double(obj, "coverage");
  return r;
}

}  // namespace

support::Result<SessionJournal> SessionJournal::load(std::istream& in) {
  SessionJournal journal;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    support::JsonValue obj;
    try {
      obj = support::parse_json(line);
    } catch (const std::exception& e) {
      return support::Status::parse_error("journal", line_no, e.what());
    }
    const support::JsonValue* ev = obj.find("ev");
    if (!ev || !ev->is_string()) {
      return support::Status::parse_error("journal", line_no,
                                          "record has no \"ev\" kind");
    }
    const auto kind = parse_session_event_kind(ev->str);
    if (!kind) {
      return support::Status::parse_error("journal", line_no,
                                          "unknown event kind '" + ev->str +
                                              "'");
    }
    SessionEvent e;
    e.kind = *kind;
    e.seq = get_u64(obj, "seq");
    e.turn = get_u64(obj, "turn");
    e.cycle = get_u64(obj, "cycle");
    e.trace_id = get_u64(obj, "trace_id");
    e.span_id = get_u64(obj, "span_id");
    switch (e.kind) {
      case SessionEventKind::kSessionStart:
        e.count = get_u64(obj, "lanes");
        break;
      case SessionEventKind::kTurn:
        e.report = get_turn(obj);
        break;
      case SessionEventKind::kTrigger:
        e.count = get_u64(obj, "fire_cycle");
        e.frozen = get_u64(obj, "frozen");
        e.samples = get_strings(obj, "samples");
        break;
      case SessionEventKind::kCycleBatch:
      case SessionEventKind::kSnapshot:
      case SessionEventKind::kRestore:
        e.count = get_u64(obj, "count");
        break;
      case SessionEventKind::kReset:
        break;
    }
    // Insert directly (not via append()): the recorded seq numbers are
    // preserved and telemetry counters are not charged for re-ingestion.
    journal.next_seq_ = std::max(journal.next_seq_, e.seq + 1);
    ++journal.total_;
    journal.ring_.push_back(std::move(e));
  }
  return journal;
}

support::Result<SessionJournal> SessionJournal::load_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return support::Status::not_found("cannot open journal file: " + path);
  }
  return load(in);
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

namespace {

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ',';
    out += n;
  }
  return out;
}

/// Compares a recorded turn against its replayed counterpart on every
/// deterministic field; returns "" on match.
std::string compare_turns(const TurnReport& recorded,
                          const TurnReport& replayed) {
  std::ostringstream why;
  if (recorded.observed != replayed.observed) {
    why << "observed [" << join(recorded.observed) << "] != ["
        << join(replayed.observed) << "]";
  } else if (recorded.bits_changed != replayed.bits_changed) {
    why << "bits_changed " << recorded.bits_changed << " != "
        << replayed.bits_changed;
  } else if (recorded.frames_reconfigured != replayed.frames_reconfigured) {
    why << "frames " << recorded.frames_reconfigured << " != "
        << replayed.frames_reconfigured;
  } else if (recorded.frame_ids != replayed.frame_ids) {
    why << "frame set differs (" << recorded.frame_ids.size() << " vs "
        << replayed.frame_ids.size() << " frames)";
  }
  return why.str();
}

}  // namespace

ReplayResult replay(const OfflineResult& offline,
                    const SessionJournal& recorded) {
  ReplayResult result;
  std::vector<const SessionEvent*> turns;
  for (const SessionEvent& e : recorded.events()) {
    if (e.kind == SessionEventKind::kTurn) turns.push_back(&e);
  }
  for (std::size_t i = 0; i < turns.size(); ++i) {
    if (turns[i]->turn == i) continue;
    result.checks.push_back(
        {turns[i]->turn, false,
         "journal incomplete (expected turn " + std::to_string(i) +
             "; ring eviction?)"});
    ++result.mismatches;
    ++result.turns_checked;
  }
  if (turns.empty() || result.mismatches) return result;

  // A fresh session re-executes turn 0 (the constructor's initial full
  // configuration) itself; the recorded turns >= 1 are re-driven with their
  // recorded signal requests.  The replay compares observe()'s reports, so
  // it needs no journal of its own after turn 0.
  DebugSession session(offline);
  TurnReport replayed = session.journal().events().back().report;
  session.journal().set_enabled(false);
  for (std::size_t i = 0; i < turns.size(); ++i) {
    const TurnReport& rec = turns[i]->report;
    if (i > 0) replayed = session.observe(rec.requested);
    ReplayTurnCheck check;
    check.turn = i;
    check.detail = compare_turns(rec, replayed);
    check.match = check.detail.empty();
    result.mismatches += !check.match;
    ++result.turns_checked;
    result.checks.push_back(std::move(check));
  }
  return result;
}

}  // namespace fpgadbg::debug
