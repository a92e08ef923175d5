#include "core/platform.hpp"

#include <algorithm>
#include <cstddef>

namespace stlm::core {

const char* bus_kind_name(BusKind b) {
  switch (b) {
    case BusKind::SharedBus: return "shared-bus";
    case BusKind::Plb: return "plb";
    case BusKind::Opb: return "opb";
    case BusKind::Crossbar: return "crossbar";
  }
  return "?";
}

const char* arb_kind_name(ArbKind a) {
  switch (a) {
    case ArbKind::Priority: return "priority";
    case ArbKind::RoundRobin: return "round-robin";
    case ArbKind::Tdma: return "tdma";
    case ArbKind::PriorityAging: return "aging";
    case ArbKind::Bandwidth: return "bandwidth";
  }
  return "?";
}

double Platform::cost_proxy() const {
  const double bits = static_cast<double>(bus_width_bytes()) * 8.0;
  // Guard a zero cycle (never produced by the grid) so the proxy stays
  // finite for hand-built platforms.
  const double cycle_ns = std::max(bus_cycle.to_ns(), 1e-3);
  double cost = bits * (1e3 / cycle_ns);
  // A crossbar replicates the datapath across routes.
  if (bus == BusKind::Crossbar) cost *= 4.0;
  // Split mode pays per-slot outstanding-transaction tracking.
  if (split_active()) {
    cost *= 1.0 + 0.25 * static_cast<double>(max_outstanding - 1);
  }
  return cost;
}

Platform arbiter_free_point(Platform p) {
  const Platform defaults;
  p.name.clear();
  p.arb = defaults.arb;
  p.tdma_slot_cycles = defaults.tdma_slot_cycles;
  p.aging_cycles = defaults.aging_cycles;
  p.qos_shares.clear();
  return p;
}

bool knob_point_valid(BusKind bus, std::size_t outstanding, bool fast) {
  // OPB has no address pipelining: only the atomic point exists.
  if (outstanding > 1 && bus == BusKind::Opb) return false;
  // The fast path only engages in atomic mode; a fast split point would
  // duplicate the plain split point.
  if (fast && outstanding > 1) return false;
  return true;
}

std::string grid_point_name(const Platform& p) {
  std::string name = bus_kind_name(p.bus);
  if (p.bus != BusKind::Crossbar) {
    name += '-';
    name += arb_kind_name(p.arb);
  }
  name += '-';
  if (p.bus_cycle % Time::ns(1) == Time::zero()) {
    name += std::to_string(p.bus_cycle / Time::ns(1)) + "ns";
  } else if (p.bus_cycle % Time::ps(1) == Time::zero()) {
    name += std::to_string(p.bus_cycle / Time::ps(1)) + "ps";
  } else {
    name += std::to_string(p.bus_cycle / Time::fs(1)) + "fs";
  }
  name += '-';
  name += std::to_string(p.bus_width_bytes() * 8);
  name += 'b';
  if (p.split_active()) {
    name += "-split";
    name += std::to_string(p.max_outstanding);
  }
  if (p.fast_targets) name += "-fast";
  // Inactive axis entries (the defaults) leave the name untouched so the
  // fault-free grid is bit-identical to the pre-failure-axes grid.
  if (p.fault.active()) {
    name += '-';
    name += p.fault.name.empty() ? std::string("fault") : p.fault.name;
  }
  if (p.retry.active()) {
    name += '-';
    name += p.retry.name.empty() ? std::string("retry") : p.retry.name;
  }
  return name;
}

void finish_knob_point(Platform& p, const KnobSpace& space) {
  if (p.bus == BusKind::Crossbar && !space.arbs.empty()) {
    p.arb = space.arbs.front();
  }
  p.name = grid_point_name(p);
}

namespace {

// Index of `v` in `axis`, or npos when the current setting sits outside
// the axis (hand-built platforms): that axis then contributes nothing.
template <class T, class V>
std::size_t axis_index(const std::vector<T>& axis, const V& v) {
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (axis[i] == v) return i;
  }
  return static_cast<std::size_t>(-1);
}

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

// Apply the split knob pair consistently: depth 1 is the atomic bus.
void set_outstanding(Platform& p, std::size_t k) {
  if (k > 1) {
    p.split_txns = true;
    p.max_outstanding = k;
  } else {
    p.split_txns = false;
    p.max_outstanding = 1;
  }
}

}  // namespace

std::vector<Platform> grid_neighbors(const Platform& p,
                                     const KnobSpace& space) {
  std::vector<Platform> out;
  const std::size_t cur_outstanding = p.split_active() ? p.max_outstanding : 1;

  auto emit = [&](Platform cand) {
    const std::size_t k = cand.split_active() ? cand.max_outstanding : 1;
    if (!knob_point_valid(cand.bus, k, cand.fast_targets)) return;
    finish_knob_point(cand, space);
    out.push_back(std::move(cand));
  };

  // Each axis: step to the adjacent values around the current setting.
  auto step = [](std::size_t i, std::size_t n, auto&& propose) {
    if (i == kNoIndex || n < 2) return;
    if (i > 0) propose(i - 1);
    if (i + 1 < n) propose(i + 1);
  };

  step(axis_index(space.buses, p.bus), space.buses.size(), [&](std::size_t j) {
    Platform c = p;
    c.bus = space.buses[j];
    emit(std::move(c));
  });
  if (p.bus != BusKind::Crossbar) {
    step(axis_index(space.arbs, p.arb), space.arbs.size(),
         [&](std::size_t j) {
           Platform c = p;
           c.arb = space.arbs[j];
           emit(std::move(c));
         });
  }
  step(axis_index(space.bus_cycles, p.bus_cycle), space.bus_cycles.size(),
       [&](std::size_t j) {
         Platform c = p;
         c.bus_cycle = space.bus_cycles[j];
         emit(std::move(c));
       });
  step(axis_index(space.data_widths, p.bus_width_bytes()),
       space.data_widths.size(), [&](std::size_t j) {
         Platform c = p;
         c.data_width_bytes = space.data_widths[j];
         emit(std::move(c));
       });
  step(axis_index(space.max_outstanding, cur_outstanding),
       space.max_outstanding.size(), [&](std::size_t j) {
         Platform c = p;
         set_outstanding(c, space.max_outstanding[j]);
         emit(std::move(c));
       });
  step(axis_index(space.fast_targets, p.fast_targets),
       space.fast_targets.size(), [&](std::size_t j) {
         Platform c = p;
         c.fast_targets = space.fast_targets[j];
         emit(std::move(c));
       });
  return out;
}

}  // namespace stlm::core
