// Typed, serializable pipeline artifacts.
//
// Each offline stage produces one artifact; this header defines its byte
// format, its content hash (FNV-1a over exactly the serialized bytes), and
// the hashes of the option structs that parameterize each stage.  Every
// artifact is a ByteWriter stream, and every deserializer validates what
// it reads: malformed bytes come back as StatusCode::kCorruptArtifact,
// never as an exception or an out-of-bounds read.
//
// Design rule: artifacts carry only deterministic content.  Wall-clock
// fields (MapStats::runtime_seconds, RouteResult::runtime_seconds) are NOT
// serialized — timings belong to the pipeline's stage reports and the
// telemetry registry, and volatile bytes would make content hashes unstable
// across otherwise-identical runs.
#pragma once

#include <cstdint>

#include "bitstream/builder.h"
#include "bitstream/pconf.h"
#include "debug/signal_param.h"
#include "flow/serialize.h"
#include "map/cover.h"
#include "netlist/netlist.h"
#include "pnr/flow.h"
#include "support/status.h"

namespace fpgadbg::flow {

/// Version of the artifact encodings, folded into every stage's cache key.
/// Bump it whenever any artifact's bytes change: every key moves, so an
/// entry written in an older format is never looked up (cache gc sweeps
/// it like any other entry).  2: tcon-map and pconf-build became streams.
inline constexpr std::uint64_t kArtifactFormatVersion = 2;

// --- netlist (pipeline input + instrument artifact payload) ----------------
void serialize_netlist(const netlist::Netlist& nl, ByteWriter& w);
support::Result<netlist::Netlist> deserialize_netlist(ByteReader& r);
/// Content hash of a user netlist (the pipeline's root input hash).
std::uint64_t netlist_content_hash(const netlist::Netlist& nl);

// --- instrument ------------------------------------------------------------
void serialize_instrumented(const debug::Instrumented& inst, ByteWriter& w);
support::Result<debug::Instrumented> deserialize_instrumented(ByteReader& r);

// --- tcon-map --------------------------------------------------------------
/// The mapped netlist plus its MapStats (runtime_seconds excluded).
void serialize_map_result(const map::MapResult& result, ByteWriter& w);
support::Result<map::MapResult> deserialize_map_result(ByteReader& r);

// --- pack -------------------------------------------------------------------
void serialize_packing(const pnr::Packing& packing, ByteWriter& w);
support::Result<pnr::Packing> deserialize_packing(ByteReader& r);

// --- place ------------------------------------------------------------------
void serialize_placement(const pnr::Placement& placement, ByteWriter& w);
support::Result<pnr::Placement> deserialize_placement(ByteReader& r);

// --- route ------------------------------------------------------------------
void serialize_route_result(const pnr::RouteResult& routing, ByteWriter& w);
support::Result<pnr::RouteResult> deserialize_route_result(ByteReader& r);

// --- pconf-build ------------------------------------------------------------
/// The generalized bitstream plus its build statistics (one artifact: the
/// stats are as much a product of the stage as the PConf itself).
struct PconfArtifact {
  bitstream::PConf pconf;
  bitstream::PconfBuildStats stats;
};

/// The BDD arena and the function table are written as their raw arrays
/// and load through BddManager::load_arena and PConf::load_functions,
/// which check every index a later walk follows.
void serialize_pconf(const PconfArtifact& artifact, ByteWriter& w);
support::Result<PconfArtifact> deserialize_pconf(ByteReader& r);

// --- options hashing --------------------------------------------------------
// Stage cache keys are (stage, format version, input-hash, options-hash);
// these produce the options-hash component.  Every field that influences
// the stage's output must be folded in.
std::uint64_t hash_instrument_options(const debug::InstrumentOptions& o);
std::uint64_t hash_map_options(int lut_size, int max_param_leaves);
std::uint64_t hash_arch_params(const arch::ArchParams& a);
/// Device geometry inputs shared by place/route/pconf-build (arch + slack).
std::uint64_t hash_device_options(const pnr::CompileOptions& o);
/// Timing knobs + delay model.  Folded into the place, route AND pconf-build
/// options hashes: editing any --delay-* / --timing-driven knob invalidates
/// exactly those three stages (pconf-build chains CONTENT hashes, so it is
/// included there explicitly — a knob change whose place/route outputs happen
/// to be byte-identical must still miss deterministically, not depend on how
/// the optimizers reacted).
std::uint64_t hash_timing_options(const pnr::TimingOptions& t);
std::uint64_t hash_place_options(const pnr::CompileOptions& o);
std::uint64_t hash_route_options(const pnr::CompileOptions& o);

}  // namespace fpgadbg::flow
