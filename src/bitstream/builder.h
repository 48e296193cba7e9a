// Generalized-bitstream builder: compiled design -> PConf.
//
// Produces the offline stage's final artifact (paper Fig. 5): a bitstream in
// which LUT tables, FF enables and routing switches are written as constants,
// except where the debug infrastructure is parameterized —
//   * TLUT cells: each of the 2^K table bits becomes a Boolean function of
//     the cell's parameter inputs;
//   * routing switches of nets that pass through TCONs: the switch is ON
//     exactly when the parameters steer that driver through the TCON chain,
//     so the bit is the chain's activation condition.
#pragma once

#include "bitstream/pconf.h"
#include "pnr/flow.h"

namespace fpgadbg::bitstream {

struct PconfBuildStats {
  std::size_t lut_cells = 0;
  std::size_t tlut_cells = 0;
  std::size_t constant_switch_bits = 0;
  std::size_t parameterized_switch_bits = 0;
  std::size_t parameterized_lut_bits = 0;
};

PConf build_pconf(const pnr::CompiledDesign& design,
                  PconfBuildStats* stats = nullptr);

}  // namespace fpgadbg::bitstream
