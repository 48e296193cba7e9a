#include "debug/session.h"

#include <algorithm>

#include "support/error.h"
#include "support/log.h"
#include "support/telemetry.h"

namespace fpgadbg::debug {

using map::CellId;
using map::MappedNetlist;

namespace {

/// A turn hands its parameter values around as one bit vector, so the
/// instrumenter's lane_params (flattened, lane 0 first), the instrumented
/// netlist's params(), the mapped netlist's params() and the PConf's
/// param_names() must name the same parameters in the same order.  The
/// instrument and pconf-build artifacts can come from the cache separately.
void check_param_order(const OfflineResult& offline) {
  std::vector<std::string> order;
  for (const auto& lane : offline.instrumented.lane_params) {
    order.insert(order.end(), lane.begin(), lane.end());
  }
  const netlist::Netlist& nl = offline.instrumented.netlist;
  const MappedNetlist& mn = offline.mapping.netlist;
  bool same = nl.params().size() == order.size() &&
              mn.params().size() == order.size();
  for (std::size_t i = 0; same && i < order.size(); ++i) {
    same = nl.name(nl.params()[i]) == order[i] &&
           mn.cell(mn.params()[i]).name == order[i];
  }
  FPGADBG_REQUIRE(same, "the netlists' params() differ from lane_params");
  FPGADBG_REQUIRE(!offline.pconf || offline.pconf->param_names() == order,
                  "the PConf's parameters differ from lane_params");
}

}  // namespace

DebugSession::DebugSession(const OfflineResult& offline,
                           bitstream::IcapModel icap, std::size_t trace_depth,
                           sim::SimBackend backend)
    : offline_(offline),
      icap_(icap),
      sim_(offline.mapping.netlist, backend),
      lanes_(offline.instrumented.trace_outputs.size()),
      trace_(lanes_, trace_depth),
      last_sample_(lanes_) {
  check_param_order(offline_);
  const MappedNetlist& mn = offline_.mapping.netlist;
  lane_cells_.resize(lanes_);
  for (std::size_t l = 0; l < lanes_; ++l) {
    const auto& names = mn.output_names();
    const auto it = std::find(names.begin(), names.end(),
                              offline_.instrumented.trace_outputs[l]);
    FPGADBG_REQUIRE(it != names.end(), "trace output missing after mapping");
    lane_cells_[l] =
        mn.outputs()[static_cast<std::size_t>(it - names.begin())];
  }
  // step() reads only the lanes each cycle, so the DUT sweeps only what
  // they and the latches read; any other read sweeps the rest on demand.
  sim_.set_watched(lane_cells_);
  {
    // The coverage universe: every signal wired into any lane (replication
    // places a signal in several lanes; the tracker dedups).
    std::vector<std::string> observable;
    for (const auto& lane : offline_.instrumented.lane_signals) {
      observable.insert(observable.end(), lane.begin(), lane.end());
    }
    coverage_ = CoverageTracker(observable);
  }
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kSessionStart;
    e.count = lanes_;
    journal_event(std::move(e));
  }
  // Default observation: lane index 0 everywhere.
  observe({});
}

DebugSession::~DebugSession() {
  // The final partial cycle batch still belongs in the record.
  flush_cycle_batch();
}

void DebugSession::journal_event(SessionEvent event) const {
  event.turn = summary_.turns;
  event.cycle = summary_.cycles_emulated;
  // Stamp the active causal context (the observe() turn span, in practice)
  // so the recorded event joins against its trace spans and log lines.
  const telemetry::TraceContext ctx = telemetry::current_trace_context();
  event.trace_id = ctx.trace_id;
  event.span_id = ctx.span_id;
  journal_.append(std::move(event));
}

void DebugSession::flush_cycle_batch() const {
  if (pending_cycles_ == 0) return;
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kCycleBatch;
    e.count = pending_cycles_;
    journal_event(std::move(e));
  }
  pending_cycles_ = 0;
}

TurnReport DebugSession::observe(const std::vector<std::string>& signals) {
  static telemetry::Counter& bits_changed =
      telemetry::metrics().counter("debug.bits_changed");
  static telemetry::Histogram& reconfig_seconds =
      telemetry::metrics().histogram("debug.reconfig_seconds");
  static telemetry::Counter& turns = telemetry::metrics().counter("debug.turns");
  static telemetry::Histogram& turn_seconds =
      telemetry::metrics().histogram("debug.turn_seconds");
  static telemetry::Gauge& coverage_observed =
      telemetry::metrics().gauge("debug.coverage.observed");
  static telemetry::Gauge& coverage_observable =
      telemetry::metrics().gauge("debug.coverage.observable");
  static telemetry::Gauge& coverage_fraction =
      telemetry::metrics().gauge("debug.coverage.fraction");
  telemetry::TraceScope turn_span("debug.turn");
  flush_cycle_batch();
  TurnReport report;
  report.requested = signals;
  // One value per parameter, in params() order: the constructor checked
  // that the netlists and the PConf agree on it.
  const BitVec params = offline_.instrumented.select_params(signals);
  report.observed = offline_.instrumented.observed_under(params);

  if (offline_.pconf) {
    const bitstream::PConf& pconf = *offline_.pconf;
    report.full = !config_;
    if (!report.full) {
      // Incremental SCG: rewrite only the bits whose parameters changed,
      // in the loaded configuration itself.
      const auto delta = [&] {
        telemetry::TraceScope scg_span("debug.scg");
        return pconf.respecialize(*config_, config_params_, params);
      }();
      report.scg_eval_seconds = delta.eval_seconds;
      report.bits_evaluated = delta.bits_evaluated;
      // Only re-evaluated bits can differ, and the SCG lists the ones that
      // flipped (ascending), so the frame diff needs no scan of the memory.
      std::vector<std::size_t>& frames = report.frame_ids;
      for (std::size_t bit : delta.changed_bits) {
        const std::size_t frame = bit / arch::FrameGeometry::kFrameBits;
        if (frames.empty() || frames.back() != frame) frames.push_back(frame);
      }
      report.frames_reconfigured = frames.size();
      report.bits_changed = delta.changed_bits.size();
      {
        telemetry::TraceScope dpr_span("debug.dpr");
        report.reconfig_seconds = icap_.partial_seconds(frames.size());
      }
      churn_.record_partial(frames);
    } else {
      // First load: full evaluation + full configuration.
      auto spec = [&] {
        telemetry::TraceScope scg_span("debug.scg");
        return pconf.specialize(params);
      }();
      report.scg_eval_seconds = spec.eval_seconds;
      report.bits_evaluated = spec.bits_evaluated;
      report.frames_reconfigured = spec.memory.num_frames();
      report.bits_changed = spec.memory.bits().count();
      {
        telemetry::TraceScope dpr_span("debug.dpr");
        report.reconfig_seconds = icap_.full_seconds(spec.memory.num_frames());
      }
      churn_.record_full(spec.memory.num_frames());
      config_ = std::move(spec.memory);
    }
    config_params_ = params;
    bits_changed.add(report.bits_changed);
    reconfig_seconds.observe(report.reconfig_seconds);
  }
  turns.add(1);
  report.turn_seconds =
      turn_seconds.observe(report.scg_eval_seconds + report.reconfig_seconds);
  LOG_INFO << "debug turn " << summary_.turns + 1 << ": "
           << report.bits_changed << " bits over "
           << report.frames_reconfigured << " frames, SCG "
           << report.scg_eval_seconds * 1e6 << " us, reconfig "
           << report.reconfig_seconds * 1e6 << " us";

  // Apply the parameters to the emulated DUT (the effect the partial
  // reconfiguration has on real hardware): the DUT re-binds the TCONs and
  // TLUTs that read a parameter that changed.
  const std::vector<CellId>& dut_params = offline_.mapping.netlist.params();
  for (std::size_t i = 0; i < dut_params.size(); ++i) {
    sim_.set_param(dut_params[i], params.get(i));
  }
  sim_.bind();
  observed_ = report.observed;

  report.coverage = coverage_.note_turn(report.observed);
  coverage_observed.set(static_cast<double>(coverage_.observed()));
  coverage_observable.set(static_cast<double>(coverage_.observable()));
  coverage_fraction.set(report.coverage);
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kTurn;
    e.report = report;
    journal_event(std::move(e));
  }

  ++summary_.turns;
  summary_.total_eval_seconds += report.scg_eval_seconds;
  summary_.total_reconfig_seconds += report.reconfig_seconds;
  summary_.conventional_recompile_seconds +=
      offline_.map_seconds + offline_.pnr_seconds +
      offline_.bitstream_seconds;
  return report;
}

ScenarioBatchResult DebugSession::run_scenario_batch(
    const ScenarioBatchOptions& options) const {
  // The campaign runs on its own SoA engine over the session's mapped
  // design, specialized on the all-zero assignment; the interactive DUT
  // (sim_), its parameters and its trace window are untouched.
  return debug::run_scenario_batch(offline_.mapping.netlist, options);
}

void DebugSession::reset() {
  flush_cycle_batch();
  sim_.reset();
  trace_.clear();
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kReset;
    journal_event(std::move(e));
  }
}

const BitVec& DebugSession::step(const std::vector<bool>& inputs) {
  sim_.set_inputs(inputs);
  sim_.eval();
  for (std::size_t l = 0; l < lanes_; ++l) {
    last_sample_.set(l, sim_.value(lane_cells_[l]));
  }
  trace_.capture(last_sample_);
  sim_.step();
  ++summary_.cycles_emulated;
  ++pending_cycles_;
  static telemetry::Counter& cycles =
      telemetry::metrics().counter("debug.cycles_emulated");
  cycles.add(1);
  return last_sample_;
}

namespace {

/// Newest samples of the frozen window, '0'/'1' per lane (lane 0 first),
/// oldest of the kept tail first.  Bounded so a deep trace buffer does not
/// balloon the journal.
constexpr std::size_t kMaxJournaledSamples = 64;

std::vector<std::string> tail_samples(const sim::TraceBuffer& trace) {
  const std::size_t n = trace.samples_stored();
  const std::size_t keep = n < kMaxJournaledSamples ? n : kMaxJournaledSamples;
  std::vector<std::string> out;
  out.reserve(keep);
  for (std::size_t age = keep; age-- > 0;) {
    const BitVec& sample = trace.sample_back(age);
    std::string bits(sample.size(), '0');
    for (std::size_t l = 0; l < sample.size(); ++l) {
      if (sample.get(l)) bits[l] = '1';
    }
    out.push_back(std::move(bits));
  }
  return out;
}

}  // namespace

std::pair<std::uint64_t, bool> DebugSession::run(
    sim::Trigger& trigger,
    const std::function<std::vector<bool>(std::uint64_t)>& input_source,
    std::uint64_t max_cycles) {
  auto finish = [&](std::uint64_t cycles_run, bool fired) {
    flush_cycle_batch();
    if (fired && journal_.enabled()) {
      SessionEvent e;
      e.kind = SessionEventKind::kTrigger;
      e.count = trigger.fire_cycle();
      e.frozen = trace_.samples_stored();
      e.samples = tail_samples(trace_);
      journal_event(std::move(e));
    }
    return std::pair<std::uint64_t, bool>{cycles_run, fired};
  };
  for (std::uint64_t c = 0; c < max_cycles; ++c) {
    const BitVec& sample = step(input_source(c));
    if (!trigger.observe(sample)) {
      return finish(c + 1, true);
    }
  }
  return finish(max_cycles, trigger.fired());
}

sim::MappedSimulator::Snapshot DebugSession::snapshot() const {
  flush_cycle_batch();
  auto snap = sim_.snapshot();
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kSnapshot;
    e.count = snap.cycle;
    journal_event(std::move(e));
  }
  return snap;
}

void DebugSession::restore(const sim::MappedSimulator::Snapshot& snap) {
  flush_cycle_batch();
  sim_.restore(snap);
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kRestore;
    e.count = snap.cycle;
    journal_event(std::move(e));
  }
}

}  // namespace fpgadbg::debug
