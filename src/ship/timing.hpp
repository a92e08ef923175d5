#pragma once
// SHIP channel timing.
//
// The same channel object serves two of the paper's abstraction levels:
//   * component-assembly model -> no timing (delta-cycle delivery only);
//     a ShipChannel holds std::nullopt;
//   * CCATB model              -> a CcatbModel: per-message setup cost plus
//                                 per-beat transfer cost derived from a bus
//                                 width and clock period.
// Below CCATB the channel is *replaced* by wrappers routing through a CAM
// (see src/cam/wrappers.hpp), so no further model exists here.

#include <cstddef>
#include <cstdint>

#include "kernel/time.hpp"

namespace stlm::ship {

// CCATB level: `setup + ceil(bytes / bus_width) * cycle` per message —
// cycle-count accurate at the transaction boundary, unsynchronized inside.
class CcatbModel {
public:
  CcatbModel(Time cycle, std::size_t bus_width_bytes, std::uint64_t setup_cycles)
      : cycle_(cycle),
        width_(bus_width_bytes ? bus_width_bytes : 1),
        setup_cycles_(setup_cycles) {}

  // Simulated time consumed to transfer a `bytes`-sized message.
  Time transfer_latency(std::size_t bytes) const {
    const std::uint64_t beats =
        (bytes + width_ - 1) / width_;
    return cycle_ * (setup_cycles_ + beats);
  }

  Time cycle() const { return cycle_; }
  std::size_t bus_width_bytes() const { return width_; }

private:
  Time cycle_;
  std::size_t width_;
  std::uint64_t setup_cycles_;
};

}  // namespace stlm::ship
