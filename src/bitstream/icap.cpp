#include "bitstream/icap.h"

#include "arch/frames.h"
#include "support/telemetry.h"

namespace fpgadbg::bitstream {

static_assert(IcapModel{}.reference_frames > 0);

namespace {

void record_transfer(telemetry::Counter& transfers, std::size_t frames) {
  static telemetry::Counter& frames_transferred =
      telemetry::metrics().counter("icap.frames_transferred");
  static telemetry::Counter& bytes_transferred =
      telemetry::metrics().counter("icap.bytes_transferred");
  transfers.add(1);
  frames_transferred.add(frames);
  bytes_transferred.add(frames * (arch::FrameGeometry::kFrameBits / 8));
}

}  // namespace

double IcapModel::partial_seconds(std::size_t frames) const {
  static telemetry::Counter& partial =
      telemetry::metrics().counter("icap.partial_reconfigs");
  record_transfer(partial, frames);
  return setup_seconds + static_cast<double>(frames) * frame_seconds();
}

double IcapModel::full_seconds(std::size_t device_frames) const {
  static telemetry::Counter& full =
      telemetry::metrics().counter("icap.full_reconfigs");
  record_transfer(full, device_frames);
  return setup_seconds + static_cast<double>(device_frames) * frame_seconds();
}

}  // namespace fpgadbg::bitstream
