#include "sim/sim_backend.h"

#include <algorithm>
#include <cstdlib>

#include "support/error.h"
#include "support/strings.h"

namespace fpgadbg::sim {

std::string to_string(SimBackend backend) {
  switch (backend) {
    case SimBackend::kInterpreted:
      return "interpreted";
    case SimBackend::kCompiled:
      return "compiled";
  }
  return "unknown";
}

std::size_t default_batch_blocks() {
  const char* env = std::getenv("FPGADBG_SIM_BATCH_BLOCKS");
  if (env == nullptr) return 64;
  const std::size_t blocks = parse_size(env, "FPGADBG_SIM_BATCH_BLOCKS");
  if (blocks < 1) {
    throw Error(std::string("expected a whole number >= 1 for "
                            "FPGADBG_SIM_BATCH_BLOCKS, got '") +
                env + "'");
  }
  return std::min<std::size_t>(blocks, 4096);
}

}  // namespace fpgadbg::sim
