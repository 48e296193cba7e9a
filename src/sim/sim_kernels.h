// Word-parallel LUT evaluation kernels of the batch engine.
//
// BatchSimulator (B contiguous block words per slot) evaluates each op with
// a branch-free Shannon expansion of its packed LUT mask over up to six
// fanin words, and folds per-scenario faults in under a lane mask.  The
// kernels live in their own header so the batch translation unit can pick
// its own codegen flags (its inner block loop is compiled with the widest
// vector ISA available); CompiledSimulator shares only broadcast().
#pragma once

#include <cstdint>

#include "sim/fault.h"

namespace fpgadbg::sim::kernels {

/// Word-parallel Shannon evaluation of a LUT mask over K fanin lane words.
/// Fully unrolled at compile time: ~4 register ops per reachable mask bit,
/// no branches, no memory traffic beyond the K fanin loads done by the
/// caller.  K == 1 collapses the bottom mux level into a 2-bit select among
/// {0, ~0, w, ~w}.
template <int K>
inline std::uint64_t shannon(std::uint64_t mask, const std::uint64_t* w) {
  if constexpr (K == 0) {
    return static_cast<std::uint64_t>(-static_cast<std::int64_t>(mask & 1));
  } else if constexpr (K == 1) {
    const std::uint64_t b0 = mask & 1;
    const std::uint64_t b1 = (mask >> 1) & 1;
    return static_cast<std::uint64_t>(-static_cast<std::int64_t>(b0)) ^
           (static_cast<std::uint64_t>(-static_cast<std::int64_t>(b0 ^ b1)) &
            w[0]);
  } else {
    const std::uint64_t s = w[K - 1];
    const std::uint64_t lo = shannon<K - 1>(mask, w);
    const std::uint64_t hi =
        shannon<K - 1>(mask >> (std::size_t{1} << (K - 1)), w);
    return lo ^ ((lo ^ hi) & s);
  }
}

/// Applies a fault to the lanes selected by `lane_mask` only; other lanes
/// keep `value`.  This is what lets one batch mix clean and faulted
/// scenario universes in a single pass.
inline std::uint64_t apply_fault_masked(const Fault& f, std::uint64_t value,
                                        std::uint64_t lane_mask,
                                        std::uint64_t now) {
  switch (f.type) {
    case FaultType::kStuckAt0: return value & ~lane_mask;
    case FaultType::kStuckAt1: return value | lane_mask;
    case FaultType::kInvert: return value ^ lane_mask;
    case FaultType::kFlipOnCycle:
      return f.cycle == now ? value ^ lane_mask : value;
  }
  return value;
}

inline std::uint64_t broadcast(bool value) { return value ? ~0ULL : 0ULL; }

}  // namespace fpgadbg::sim::kernels
