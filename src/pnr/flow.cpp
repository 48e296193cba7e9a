#include "pnr/flow.h"

#include <algorithm>
#include <cmath>

#include "support/log.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace fpgadbg::pnr {

CompiledDesign compile(map::MappedNetlist mn,
                       const std::vector<std::string>& trace_output_names,
                       const CompileOptions& options) {
  CompiledDesign design;
  design.netlist = std::move(mn);
  const map::MappedNetlist& net = design.netlist;

  telemetry::MetricsRegistry& m = telemetry::metrics();
  Stopwatch total_timer;
  Stopwatch stage_timer;

  {
    telemetry::TraceScope span("pnr.pack");
    design.packing = pack(net, options.arch);
  }
  design.report.pack_seconds =
      m.histogram("pnr.pack_seconds").observe(stage_timer.elapsed_seconds());

  derive_physical(design, trace_output_names, options);

  stage_timer.restart();
  {
    telemetry::TraceScope span("pnr.place");
    design.placement = place(net, design.packing, design.nets, *design.device,
                             options.place, options.timing);
  }
  design.report.place_seconds =
      m.histogram("pnr.place_seconds").observe(stage_timer.elapsed_seconds());

  stage_timer.restart();
  {
    telemetry::TraceScope span("pnr.route");
    design.routing = route(*design.rr, net, design.packing, design.nets,
                           design.placement, options.route, options.timing);
  }
  design.report.route_seconds =
      m.histogram("pnr.route_seconds").observe(stage_timer.elapsed_seconds());

  fill_report(design, options.timing);
  design.report.total_seconds = total_timer.elapsed_seconds();
  return design;
}

void derive_physical(CompiledDesign& design,
                     const std::vector<std::string>& trace_output_names,
                     const CompileOptions& options) {
  const std::size_t clusters = design.packing.num_clusters();
  const std::size_t min_clbs = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::ceil(static_cast<double>(clusters) *
                                            options.device_slack)));
  design.device = std::make_unique<arch::Device>(options.arch, min_clbs);
  LOG_INFO << "compile: " << design.device->describe() << ", " << clusters
           << " clusters";
  design.rr = std::make_unique<arch::RRGraph>(*design.device);
  design.frames =
      std::make_unique<arch::FrameGeometry>(*design.device, *design.rr);
  design.nets = extract_nets(design.netlist, trace_output_names);
}

void fill_report(CompiledDesign& design, const TimingOptions& timing) {
  CompileReport& report = design.report;
  report.device = design.device->describe();
  report.clbs_used = design.packing.num_clusters();
  report.luts = design.netlist.lut_area();
  report.tcons = design.netlist.count(map::MKind::kTcon);
  report.nets = design.nets.nets.size();
  report.route_success = design.routing.success;
  report.route_iterations = design.routing.iterations;
  report.wire_nodes_used = design.routing.wire_nodes_used;
  report.total_wirelength = design.routing.total_wirelength;
  finalize_timing(design, timing);
}

void finalize_timing(CompiledDesign& design, const TimingOptions& timing) {
  telemetry::TraceScope span("pnr.timing");
  const TimingReport sta = analyze_timing(design, timing.delays);
  design.report.timing_driven = timing.timing_driven;
  design.report.critical_path_ns = sta.critical_path_ns;
  design.report.max_frequency_mhz = sta.max_frequency_mhz;
  design.report.worst_slack_ns = sta.worst_slack_ns;
  // Named so the Prometheus exposition yields exactly fpgadbg_timing_fmax_mhz.
  telemetry::metrics().gauge("timing.fmax_mhz").set(sta.max_frequency_mhz);
  telemetry::metrics()
      .gauge("timing.critical_path_ns")
      .set(sta.critical_path_ns);
}

}  // namespace fpgadbg::pnr
