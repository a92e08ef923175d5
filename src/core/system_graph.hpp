#pragma once
// System graph: the abstract system the flow maps.
//
// Nodes are processing elements (with a HW/SW partition attribute);
// edges are named SHIP channels. Channel master/slave roles are either
// declared up front or *discovered automatically* by executing the
// component-assembly model and reading the roles the SHIP channels
// recorded (paper §2's automatic master/slave detection feeding §3/§4's
// mapping).

#include <cstdint>
#include <string>
#include <vector>

#include "core/pe.hpp"
#include "kernel/time.hpp"
#include "ocp/banked_memory.hpp"
#include "ship/channel.hpp"

namespace stlm::core {

// An addressable memory target the mapper attaches to the CAM, plus the
// PEs that access it directly over the bus (they receive a master port
// through ExecContext::mem_bus()/mem_master() at the CAM level; at the
// abstract levels there is no interconnect and clients model their
// accesses as compute). Declared on the graph so the same workload
// factory maps onto every candidate platform — behind a split PLB the
// banked target's unequal service times are what make OoO completion
// actually reorder.
struct MemorySpec {
  std::string name = "mem";
  std::uint64_t base = 0x80000000;
  std::size_t size = 1 << 16;
  ocp::BankedMemoryConfig cfg{};
  std::vector<ProcessingElement*> clients;  // must be add_pe()'d, HW part.
};

struct ChannelSpec {
  std::string name;
  ProcessingElement* a = nullptr;
  ProcessingElement* b = nullptr;
  // PE-local port names: what each endpoint passes to
  // ExecContext::channel(). Default to the channel name.
  std::string port_a;
  std::string port_b;
  std::size_t queue_depth = 1;
  // Role of terminal a (terminal b has the complement). Unknown until
  // declared or discovered.
  ship::Role role_a = ship::Role::Unknown;
};

class SystemGraph {
public:
  // Register a PE (default partition: hardware).
  void add_pe(ProcessingElement& pe, Partition part = Partition::Hardware);
  void set_partition(ProcessingElement& pe, Partition part);
  Partition partition(const ProcessingElement& pe) const;

  // Connect two registered PEs with a named SHIP channel. `port_a`/
  // `port_b` are the PE-local names the endpoints use in
  // ExecContext::channel() (empty = use the channel name). `role_a`
  // may be declared here; otherwise run discover_roles() before mapping
  // to a communication architecture.
  void connect(const std::string& channel, ProcessingElement& a,
               const std::string& port_a, ProcessingElement& b,
               const std::string& port_b, std::size_t queue_depth = 1,
               ship::Role role_a = ship::Role::Unknown);
  // Shorthand: both PEs use the channel's own name as port name.
  void connect(const std::string& channel, ProcessingElement& a,
               ProcessingElement& b, std::size_t queue_depth = 1,
               ship::Role role_a = ship::Role::Unknown);

  // Register an addressable memory target. Clients must already be
  // add_pe()'d; their range must not collide with the platform's mailbox
  // windows (the default base leaves the low half of the map to them).
  void add_memory(MemorySpec spec);
  const std::vector<MemorySpec>& memories() const { return memories_; }

  const std::vector<ProcessingElement*>& pes() const { return pes_; }
  const std::vector<ChannelSpec>& channels() const { return channels_; }
  std::vector<ChannelSpec>& channels() { return channels_; }

  // Map the graph at CCATB level (Mapper::map, one-cycle 1 ns message
  // timing) in a scratch simulator, run it for `budget` of simulated
  // activity and record each channel's detected roles. Throws
  // ElaborationError if any channel's roles remain unknown afterwards
  // (e.g. a PE that never communicated within the budget) or both of
  // its terminals acted as master, or both as slave.
  void discover_roles(Time budget = Time::us(100));

  // True once every channel has known roles.
  bool roles_known() const;

  // Whether `other` has this graph's shape: everything Mapper::map reads
  // from a graph, with PEs named by their index in pes(). That is each
  // PE's name, dynamic type and partition; each channel's name,
  // endpoints, ports, depth and role; each memory's name, range,
  // configuration and clients. Two graphs of one shape map to the same
  // system and differ only inside their PEs (a seeded workload at two
  // seeds, say), so a system mapped from one can be reset and rebound to
  // the other (MappedSystem::reset). Allocates nothing.
  bool same_shape(const SystemGraph& other) const;

private:
  std::vector<ProcessingElement*> pes_;
  static constexpr std::size_t kTypicalPes = 8;

  // Position of `pe` in pes_ (pes_.size() when absent).
  std::size_t index_of(const ProcessingElement& pe) const;

  // partitions_[i] is pes_[i]'s (a parallel vector: a graph is built per
  // explored cell, and a map would allocate a node per PE).
  std::vector<Partition> partitions_;
  std::vector<ChannelSpec> channels_;
  std::vector<MemorySpec> memories_;
};

}  // namespace stlm::core
