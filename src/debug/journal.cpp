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
    case SessionEventKind::kTurnStart: return "turn_start";
    case SessionEventKind::kScgEval: return "scg_eval";
    case SessionEventKind::kIcapWrite: return "icap_write";
    case SessionEventKind::kTurnEnd: return "turn_end";
    case SessionEventKind::kCycleBatch: return "cycle_batch";
    case SessionEventKind::kTriggerFire: return "trigger_fire";
    case SessionEventKind::kTraceWindow: return "trace_window";
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
      {"turn_start", SessionEventKind::kTurnStart},
      {"scg_eval", SessionEventKind::kScgEval},
      {"icap_write", SessionEventKind::kIcapWrite},
      {"turn_end", SessionEventKind::kTurnEnd},
      {"cycle_batch", SessionEventKind::kCycleBatch},
      {"trigger_fire", SessionEventKind::kTriggerFire},
      {"trace_window", SessionEventKind::kTraceWindow},
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
    case SessionEventKind::kTurnStart:
      write_strings(os, "signals", e.signals);
      break;
    case SessionEventKind::kScgEval:
      os << ",\"bits_changed\":" << e.bits_changed
         << ",\"bits_evaluated\":" << e.bits_evaluated << ",\"incremental\":"
         << (e.incremental ? "true" : "false") << ",\"eval_s\":";
      write_double(os, e.scg_eval_seconds);
      break;
    case SessionEventKind::kIcapWrite:
      os << ",\"frames\":" << e.frames << ",\"full\":"
         << (e.full ? "true" : "false") << ",\"reconfig_s\":";
      write_double(os, e.reconfig_seconds);
      if (!e.full) {
        os << ",\"frame_ids\":[";
        for (std::size_t i = 0; i < e.frame_ids.size(); ++i) {
          if (i) os << ',';
          os << e.frame_ids[i];
        }
        os << ']';
      }
      break;
    case SessionEventKind::kTurnEnd:
      write_strings(os, "signals", e.signals);
      os << ",\"bits_changed\":" << e.bits_changed
         << ",\"frames\":" << e.frames << ",\"turn_s\":";
      write_double(os, e.turn_seconds);
      os << ",\"coverage\":";
      write_double(os, e.coverage);
      break;
    case SessionEventKind::kCycleBatch:
    case SessionEventKind::kTriggerFire:
    case SessionEventKind::kSnapshot:
    case SessionEventKind::kRestore:
      os << ",\"count\":" << e.count;
      break;
    case SessionEventKind::kTraceWindow:
      os << ",\"count\":" << e.count;
      write_strings(os, "samples", e.samples);
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
    e.bits_changed = get_u64(obj, "bits_changed");
    e.bits_evaluated = get_u64(obj, "bits_evaluated");
    e.incremental = get_bool(obj, "incremental");
    e.scg_eval_seconds = get_double(obj, "eval_s");
    e.frames = get_u64(obj, "frames");
    e.full = get_bool(obj, "full");
    e.reconfig_seconds = get_double(obj, "reconfig_s");
    if (const support::JsonValue* ids = obj.find("frame_ids");
        ids && ids->is_array()) {
      for (const support::JsonValue& id : ids->array) {
        if (id.is_number() && id.number >= 0.0) {
          e.frame_ids.push_back(static_cast<std::uint64_t>(id.number));
        }
      }
    }
    e.turn_seconds = get_double(obj, "turn_s");
    e.coverage = get_double(obj, "coverage");
    e.signals = get_strings(obj, "signals");
    e.count = e.kind == SessionEventKind::kSessionStart
                  ? get_u64(obj, "lanes")
                  : get_u64(obj, "count");
    e.samples = get_strings(obj, "samples");
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

struct RecordedTurn {
  const SessionEvent* start = nullptr;
  const SessionEvent* icap = nullptr;
  const SessionEvent* end = nullptr;
};

std::map<std::uint64_t, RecordedTurn> index_turns(
    const SessionJournal& journal) {
  std::map<std::uint64_t, RecordedTurn> turns;
  for (const SessionEvent& e : journal.events()) {
    switch (e.kind) {
      case SessionEventKind::kTurnStart: turns[e.turn].start = &e; break;
      case SessionEventKind::kIcapWrite: turns[e.turn].icap = &e; break;
      case SessionEventKind::kTurnEnd: turns[e.turn].end = &e; break;
      default: break;
    }
  }
  return turns;
}

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
std::string compare_turns(const RecordedTurn& recorded,
                          const RecordedTurn& replayed) {
  std::ostringstream why;
  if (recorded.end->signals != replayed.end->signals) {
    why << "observed [" << join(recorded.end->signals) << "] != ["
        << join(replayed.end->signals) << "]";
  } else if (recorded.end->bits_changed != replayed.end->bits_changed) {
    why << "bits_changed " << recorded.end->bits_changed << " != "
        << replayed.end->bits_changed;
  } else if (recorded.end->frames != replayed.end->frames) {
    why << "frames " << recorded.end->frames << " != "
        << replayed.end->frames;
  } else if (recorded.icap && replayed.icap &&
             recorded.icap->frame_ids != replayed.icap->frame_ids) {
    why << "frame set differs (" << recorded.icap->frame_ids.size() << " vs "
        << replayed.icap->frame_ids.size() << " frames)";
  }
  return why.str();
}

}  // namespace

ReplayResult replay(const OfflineResult& offline,
                    const SessionJournal& recorded) {
  ReplayResult result;
  const auto turns = index_turns(recorded);
  if (turns.empty()) return result;

  // A fresh session re-executes turn 0 (the constructor's initial full
  // configuration) implicitly; the recorded turns >= 1 are re-driven with
  // their recorded signal requests.
  DebugSession session(offline);
  std::uint64_t expect = 0;
  for (const auto& [turn, rec] : turns) {
    if (turn != expect || !rec.start || !rec.end) {
      result.checks.push_back(
          {turn, false,
           "journal incomplete (missing turn events; ring eviction?)"});
      ++result.mismatches;
      ++result.turns_checked;
      ++expect;
      continue;
    }
    ++expect;
    if (turn > 0) session.observe(rec.start->signals);
  }
  if (result.mismatches) return result;

  const auto replayed = index_turns(session.journal());
  for (const auto& [turn, rec] : turns) {
    ReplayTurnCheck check;
    check.turn = turn;
    const auto it = replayed.find(turn);
    if (it == replayed.end() || !it->second.end) {
      check.detail = "turn missing from replayed journal";
    } else {
      check.detail = compare_turns(rec, it->second);
    }
    check.match = check.detail.empty();
    result.mismatches += !check.match;
    ++result.turns_checked;
    result.checks.push_back(std::move(check));
  }
  return result;
}

}  // namespace fpgadbg::debug
