// TPaR flow driver: pack -> place -> route on an auto-sized device.
//
// This is the offline, computationally intensive stage of the paper's
// Fig. 4(b).  The report carries the §V-C1 metrics (CLBs, wires, runtime)
// compared between the conventional and the parameterized flow.
#pragma once

#include <memory>
#include <string>

#include "arch/frames.h"
#include "pnr/route.h"

namespace fpgadbg::pnr {

struct CompileOptions {
  arch::ArchParams arch;
  PlaceOptions place;
  RouteOptions route;
  /// Timing-driven knobs + delay model, threaded into place() and route().
  TimingOptions timing;
  /// CLB capacity slack: the device provides clusters * slack CLB tiles.
  double device_slack = 1.4;
};

struct CompileReport {
  std::string device;
  std::size_t clbs_used = 0;
  std::size_t luts = 0;       ///< kLut + kTlut cells
  std::size_t tcons = 0;
  std::size_t nets = 0;
  bool route_success = false;
  int route_iterations = 0;
  std::size_t wire_nodes_used = 0;
  std::size_t total_wirelength = 0;
  // Routed-fidelity STA of the final implementation (always filled; the
  // timing_driven flag records whether the optimizers were steered by it).
  bool timing_driven = false;
  double critical_path_ns = 0.0;
  double max_frequency_mhz = 0.0;
  double worst_slack_ns = 0.0;
  double pack_seconds = 0.0;
  double place_seconds = 0.0;
  double route_seconds = 0.0;
  double total_seconds = 0.0;
};

/// A fully compiled design.  Owns the device model so internal references
/// stay valid; move-only.
struct CompiledDesign {
  std::unique_ptr<arch::Device> device;
  std::unique_ptr<arch::RRGraph> rr;
  std::unique_ptr<arch::FrameGeometry> frames;
  map::MappedNetlist netlist;
  Packing packing;
  NetExtraction nets;
  Placement placement;
  RouteResult routing;
  CompileReport report;
};

/// The uncached run of pack -> place -> route.  flow::Pipeline runs the same
/// steps with a cache lookup around each; both derive the physical state
/// with derive_physical() and end with fill_report().
CompiledDesign compile(map::MappedNetlist mn,
                       const std::vector<std::string>& trace_output_names,
                       const CompileOptions& options = {});

/// Derives the packed design's physical state, which is never cached: sizes
/// design.device (clusters * device_slack CLB tiles, at least 4), then
/// builds design.rr and design.frames and extracts design.nets.
void derive_physical(CompiledDesign& design,
                     const std::vector<std::string>& trace_output_names,
                     const CompileOptions& options);

/// Fills the report's size and routing fields from the packed, placed and
/// routed design, then runs finalize_timing().  The *_seconds fields are
/// the caller's.
void fill_report(CompiledDesign& design, const TimingOptions& timing);

/// Runs the routed-fidelity STA over a compiled design, fills the report's
/// timing fields and publishes the `timing.fmax_mhz` gauge (exposed as
/// `fpgadbg_timing_fmax_mhz` on /metrics).  fill_report() calls it, so
/// replayed place/route artifacts still report timing.
void finalize_timing(CompiledDesign& design, const TimingOptions& timing);

}  // namespace fpgadbg::pnr
