#pragma once
// Platform description: the target a system graph is mapped onto.
//
// One Platform = one communication architecture choice + its parameters.
// The exploration engine sweeps vectors of these.

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "hwsw/driver.hpp"
#include "kernel/time.hpp"
#include "rtos/rtos.hpp"

namespace stlm::core {

enum class BusKind : std::uint8_t { SharedBus, Plb, Opb, Crossbar };
enum class ArbKind : std::uint8_t {
  Priority,
  RoundRobin,
  Tdma,
  PriorityAging,  // QoS: static priority + starvation aging
  Bandwidth,      // QoS: deficit-credit bandwidth reservation
};

const char* bus_kind_name(BusKind b);
const char* arb_kind_name(ArbKind a);

struct Platform {
  std::string name = "plb-priority";
  BusKind bus = BusKind::Plb;
  ArbKind arb = ArbKind::Priority;
  Time bus_cycle = Time::ns(10);          // 100 MHz PLB-class default
  Time pe_clock = Time::ns(10);           // HW PE clock
  Time cpu_clock = Time::ns(10);          // embedded CPU clock

  // Mailbox placement for mapped SHIP channels.
  std::uint64_t mailbox_base = 0x40000000;
  std::uint32_t mailbox_window = 256;     // bytes
  Time poll_interval = Time::ns(200);     // master wrapper RSTATUS polling

  // TDMA parameters (used when arb == Tdma).
  std::uint64_t tdma_slot_cycles = 16;

  // QoS arbitration parameters. `aging_cycles` (arb == PriorityAging):
  // a requester starved that many bus cycles preempts the static
  // priority order. `qos_shares` (arb == Bandwidth): per-master-index
  // bandwidth shares; masters beyond the table default to share 1.
  std::uint64_t aging_cycles = 64;
  std::vector<std::uint32_t> qos_shares;

  // Failure semantics. `fault` seeds a deterministic fault::Injector on
  // the bus (inactive default = no injector attached, bit-identical to
  // the fault-free build); `retry` parameterizes the initiator-side
  // RetryPolicy shims (inactive default = no shims inserted).
  fault::FaultProfile fault{};
  fault::RetrySpec retry{};

  // SW partition runtime.
  rtos::RtosConfig rtos_cfg{};
  hwsw::DriverConfig driver_cfg{};

  // CCATB approximation used at the mid level: per-message setup cycles.
  std::uint64_t ccatb_setup_cycles = 2;

  // Data-path width in bytes; 0 selects the bus kind's native width
  // (64-bit PLB/crossbar, 32-bit shared bus/OPB). The exploration grid
  // sweeps this axis explicitly.
  std::size_t data_width_bytes = 0;

  // Split/out-of-order transaction mode: when split_txns is true and
  // max_outstanding > 1, split-capable buses (shared bus, PLB, crossbar)
  // decouple the address phase from the data phase, run target service
  // off the bus, and allow up to max_outstanding in-flight transactions
  // per master. max_outstanding == 1 reproduces the atomic timing
  // bit-identically (guarded by tests/test_cam_split.cpp); OPB has no
  // address pipelining and ignores both knobs.
  bool split_txns = false;
  std::size_t max_outstanding = 1;

  // Kernel fast path: let the bus CAM resolve uncontended blocking
  // transactions to fast-capable slaves inline (no grant-engine wakeup,
  // no coroutine switch; posted accesses always take the engine).
  // Simulated timing is unchanged except for one documented same-delta
  // arbitration corner (see cam/cam_base.hpp); the knob only engages in
  // atomic mode (split_active() forces it off), so the exploration grid
  // sweeps it on atomic design points only.
  bool fast_targets = false;

  // SHIP master wrappers merge each chunk's DATA_IN burst and its CTRL
  // commit into one bus burst (halves the mailbox writes per chunk).
  bool coalesce_bursts = false;

  std::size_t bus_width_bytes() const {
    if (data_width_bytes) return data_width_bytes;
    return bus == BusKind::Plb || bus == BusKind::Crossbar ? 8 : 4;
  }

  bool split_active() const { return split_txns && max_outstanding > 1; }

  // Relative implementation-cost proxy for Pareto exploration: the
  // platform's raw data-path capability — width (bits) x clock (MHz) —
  // scaled by structural multipliers. A crossbar replicates the datapath
  // per route; split mode adds per-slot outstanding-transaction tracking.
  // Dimensionless (comparisons only); deterministic per Platform, so it
  // is a legitimate search objective without running a simulation.
  double cost_proxy() const;

  bool operator==(const Platform&) const = default;
};

// `p` with every field only its arbiter reads reset: name, arb,
// tdma_slot_cycles, aging_cycles and qos_shares. Two platforms with equal
// arbiter-free points are arbiter siblings: they build the same system
// and differ only in the policy GrantEngine consults on a contended pick
// (a crossbar builds no arbiter at all), so a run with no contended pick
// is exact for all of them (see Explorer::sweep_parallel).
Platform arbiter_free_point(Platform p);

// Knob axes of the exploration space: the ordered value lists a search
// may step through, one knob at a time. expl::GridSpec crosses the same
// axes into a grid; failure axes are deliberately absent — mutation
// explores timing knobs and inherits the parent's fault/retry
// configuration unchanged.
struct KnobSpace {
  std::vector<BusKind> buses;
  std::vector<ArbKind> arbs;
  std::vector<Time> bus_cycles;
  std::vector<std::size_t> data_widths;
  std::vector<std::size_t> max_outstanding;
  std::vector<bool> fast_targets;
};

// Structural validity of one grid point: OPB has no address pipelining
// (no split points) and the kernel fast path only engages in atomic
// mode (no fast split points). Shared by grid_candidates() and
// grid_neighbors() so the two can never disagree on the legal space.
bool knob_point_valid(BusKind bus, std::size_t outstanding, bool fast);

// Canonical exploration-grid name for a platform's knob settings:
// "<bus>[-<arb>]-<cycle>-<width>b[-split<k>][-fast][-<fault>][-<retry>]".
// The cycle is spelled in whole ns ("10ns") when it is one, else exactly
// in ps or fs ("2500ps"), so distinct cycles never share a name.
// grid_candidates() and grid_neighbors() both name through here, so a
// mutated neighbor that lands on an existing grid point gets the grid
// point's exact name (deduplication by name is sound).
std::string grid_point_name(const Platform& p);

// Settle a point of `space` whose knob fields are set: a crossbar has no
// arbiter and its name encodes none, so its `arb` is pinned to the
// space's first arbiter, and the point is named by grid_point_name. Both
// grid_candidates() and grid_neighbors() finish their points here, so a
// Platform is a pure function of its name, whichever of them built it.
void finish_knob_point(Platform& p, const KnobSpace& space);

// One-knob-at-a-time neighbors of `p` inside `space`: for every axis
// whose value list contains p's current setting, the adjacent values
// (index +/- 1) each yield one candidate, with the remaining knobs held
// fixed. Invalid combinations (knob_point_valid) are skipped, arbiter
// steps apply only to arbitrated buses, and each neighbor is renamed via
// grid_point_name. Deterministic: output order follows axis order, then
// -1 before +1. Axes where p's value is absent contribute nothing.
std::vector<Platform> grid_neighbors(const Platform& p,
                                     const KnobSpace& space);

}  // namespace stlm::core
