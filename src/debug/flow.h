// The proposed debug flow (paper Fig. 4b / §IV).
//
// Offline ("generic") stage, run once per design:
//   synthesizable design -> signal parameterisation -> TCON technology
//   mapping -> TPaR place & route -> generalized (parameterized) bitstream.
//
// Online ("specialisation") stage, run per debugging turn: see session.h.
#pragma once

#include <memory>
#include <string>

#include "bitstream/builder.h"
#include "debug/signal_param.h"
#include "map/mappers.h"
#include "pnr/flow.h"

namespace fpgadbg::debug {

struct OfflineOptions {
  InstrumentOptions instrument;
  int lut_size = 6;
  int max_param_leaves = 4;
  pnr::CompileOptions compile;
  /// Skip place & route and build no bitstream (mapping-only experiments
  /// such as Tables I/II don't need the physical stages).
  bool run_pnr = true;
  /// Artifact-cache directory for the staged pipeline (see flow/pipeline.h);
  /// empty disables caching and every stage executes.
  std::string cache_dir;
};

struct OfflineResult {
  Instrumented instrumented;
  map::MapResult mapping;
  /// Only when run_pnr: the physical design and its generalized bitstream.
  std::unique_ptr<pnr::CompiledDesign> compiled;
  std::unique_ptr<bitstream::PConf> pconf;
  bitstream::PconfBuildStats pconf_stats;

  double instrument_seconds = 0.0;
  double map_seconds = 0.0;
  double pnr_seconds = 0.0;
  double bitstream_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Runs the offline generic stage on a user circuit.
OfflineResult run_offline(const netlist::Netlist& user,
                          const OfflineOptions& options = {});

}  // namespace fpgadbg::debug
