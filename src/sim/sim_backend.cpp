#include "sim/sim_backend.h"

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

}  // namespace fpgadbg::sim
