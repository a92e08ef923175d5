#include "core/system_graph.hpp"

#include <algorithm>

#include "core/mapper.hpp"

namespace stlm::core {

void SystemGraph::add_pe(ProcessingElement& pe, Partition part) {
  STLM_ASSERT(std::find(pes_.begin(), pes_.end(), &pe) == pes_.end(),
              "PE registered twice: " + pe.name());
  pes_.push_back(&pe);
  partitions_[&pe] = part;
}

void SystemGraph::set_partition(ProcessingElement& pe, Partition part) {
  STLM_ASSERT(partitions_.contains(&pe), "unknown PE: " + pe.name());
  partitions_[&pe] = part;
}

Partition SystemGraph::partition(const ProcessingElement& pe) const {
  auto it = partitions_.find(&pe);
  STLM_ASSERT(it != partitions_.end(), "unknown PE: " + pe.name());
  return it->second;
}

void SystemGraph::connect(const std::string& channel, ProcessingElement& a,
                          const std::string& port_a, ProcessingElement& b,
                          const std::string& port_b, std::size_t queue_depth,
                          ship::Role role_a) {
  STLM_ASSERT(partitions_.contains(&a), "connect: unknown PE " + a.name());
  STLM_ASSERT(partitions_.contains(&b), "connect: unknown PE " + b.name());
  STLM_ASSERT(&a != &b, "channel endpoints must differ: " + channel);
  for (const auto& c : channels_) {
    STLM_ASSERT(c.name != channel, "duplicate channel name: " + channel);
  }
  channels_.push_back(ChannelSpec{channel, &a, &b,
                                  port_a.empty() ? channel : port_a,
                                  port_b.empty() ? channel : port_b,
                                  queue_depth, role_a});
}

void SystemGraph::connect(const std::string& channel, ProcessingElement& a,
                          ProcessingElement& b, std::size_t queue_depth,
                          ship::Role role_a) {
  connect(channel, a, channel, b, channel, queue_depth, role_a);
}

void SystemGraph::add_memory(MemorySpec spec) {
  STLM_ASSERT(spec.size > 0, "memory target needs a size: " + spec.name);
  for (const auto& m : memories_) {
    STLM_ASSERT(m.name != spec.name, "duplicate memory name: " + spec.name);
  }
  for (ProcessingElement* pe : spec.clients) {
    STLM_ASSERT(pe != nullptr, "null client on memory " + spec.name);
    STLM_ASSERT(partitions_.contains(pe),
                "add_memory: unknown client PE " + pe->name());
  }
  memories_.push_back(std::move(spec));
}

bool SystemGraph::roles_known() const {
  return std::all_of(channels_.begin(), channels_.end(),
                     [](const ChannelSpec& c) {
                       return c.role_a != ship::Role::Unknown;
                     });
}

void SystemGraph::discover_roles(Time budget) {
  if (roles_known()) return;

  // Probe run: the graph mapped at CCATB level in a scratch simulator.
  // One-cycle (1 ns) message timing guarantees simulated time advances,
  // so the budget bounds the run even for PEs that never wait.
  Platform probe;
  probe.pe_clock = Time::ns(1);
  probe.bus_cycle = Time::ns(1);
  probe.data_width_bytes = 4;
  probe.ccatb_setup_cycles = 1;
  Simulator scratch;
  const auto ms = Mapper::map(scratch, *this, probe, AbstractionLevel::Ccatb);
  ms->run_for(budget);
  const auto& chans = ms->channels();

  for (std::size_t i = 0; i < channels_.size(); ++i) {
    ChannelSpec& spec = channels_[i];
    if (spec.role_a != ship::Role::Unknown) continue;
    const ship::Role a = chans[i]->role_a();
    const ship::Role b = chans[i]->role_b();
    if (a != ship::Role::Unknown && a == b) {
      throw ElaborationError("role discovery: both terminals of channel '" +
                             spec.name + "' acted as " + ship::role_name(a));
    }
    if (a != ship::Role::Unknown) {
      spec.role_a = a;
    } else if (b != ship::Role::Unknown) {
      spec.role_a = b == ship::Role::Master ? ship::Role::Slave
                                            : ship::Role::Master;
    } else {
      throw ElaborationError(
          "role discovery: channel '" + spec.name +
          "' saw no traffic within the budget; declare its roles in "
          "connect()");
    }
  }
}

}  // namespace stlm::core
