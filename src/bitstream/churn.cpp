#include "bitstream/churn.h"

#include <algorithm>

#include "support/telemetry.h"

namespace fpgadbg::bitstream {

namespace {

telemetry::Counter& frame_writes() {
  static telemetry::Counter& writes =
      telemetry::metrics().counter("icap.frame_writes");
  return writes;
}

}  // namespace

void FrameChurn::bump(std::size_t frame, std::uint64_t by) {
  if (frame >= counts_.size()) counts_.resize(frame + 1, 0);
  counts_[frame] += by;
  total_ += by;
}

void FrameChurn::record_full(std::size_t num_frames) {
  for (std::size_t f = 0; f < num_frames; ++f) bump(f);
  ++reconfigs_;
  frame_writes().add(num_frames);
}

void FrameChurn::record_partial(const std::vector<std::size_t>& frames) {
  for (std::size_t f : frames) bump(f);
  ++reconfigs_;
  frame_writes().add(frames.size());
}

std::size_t FrameChurn::frames_touched() const {
  std::size_t n = 0;
  for (std::uint64_t c : counts_) n += c > 0;
  return n;
}

std::vector<FrameChurn::Hot> FrameChurn::top(std::size_t n) const {
  std::vector<Hot> hot;
  hot.reserve(counts_.size());
  for (std::size_t f = 0; f < counts_.size(); ++f) {
    if (counts_[f] > 0) hot.push_back({f, counts_[f]});
  }
  std::sort(hot.begin(), hot.end(), [](const Hot& a, const Hot& b) {
    return a.writes != b.writes ? a.writes > b.writes : a.frame < b.frame;
  });
  if (hot.size() > n) hot.resize(n);
  return hot;
}

void FrameChurn::clear() {
  counts_.clear();
  total_ = 0;
  reconfigs_ = 0;
}

}  // namespace fpgadbg::bitstream
