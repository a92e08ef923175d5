#include "core/system_graph.hpp"

#include <algorithm>
#include <typeinfo>

#include "core/mapper.hpp"

namespace stlm::core {

std::size_t SystemGraph::index_of(const ProcessingElement& pe) const {
  return static_cast<std::size_t>(std::find(pes_.begin(), pes_.end(), &pe) -
                                  pes_.begin());
}

void SystemGraph::add_pe(ProcessingElement& pe, Partition part) {
  STLM_ASSERT(index_of(pe) == pes_.size(), "PE registered twice: " + pe.name());
  // Room for a typical graph at once rather than by doubling.
  if (pes_.capacity() == 0) {
    pes_.reserve(kTypicalPes);
    partitions_.reserve(kTypicalPes);
  }
  pes_.push_back(&pe);
  partitions_.push_back(part);
}

void SystemGraph::set_partition(ProcessingElement& pe, Partition part) {
  const std::size_t i = index_of(pe);
  STLM_ASSERT(i < pes_.size(), "unknown PE: " + pe.name());
  partitions_[i] = part;
}

Partition SystemGraph::partition(const ProcessingElement& pe) const {
  const std::size_t i = index_of(pe);
  STLM_ASSERT(i < pes_.size(), "unknown PE: " + pe.name());
  return partitions_[i];
}

void SystemGraph::connect(const std::string& channel, ProcessingElement& a,
                          const std::string& port_a, ProcessingElement& b,
                          const std::string& port_b, std::size_t queue_depth,
                          ship::Role role_a) {
  STLM_ASSERT(index_of(a) < pes_.size(), "connect: unknown PE " + a.name());
  STLM_ASSERT(index_of(b) < pes_.size(), "connect: unknown PE " + b.name());
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
    STLM_ASSERT(index_of(*pe) < pes_.size(),
                "add_memory: unknown client PE " + pe->name());
  }
  memories_.push_back(std::move(spec));
}

bool SystemGraph::same_shape(const SystemGraph& other) const {
  if (pes_.size() != other.pes_.size() ||
      channels_.size() != other.channels_.size() ||
      memories_.size() != other.memories_.size() ||
      partitions_ != other.partitions_) {
    return false;
  }
  for (std::size_t i = 0; i < pes_.size(); ++i) {
    if (pes_[i]->name() != other.pes_[i]->name() ||
        typeid(*pes_[i]) != typeid(*other.pes_[i])) {
      return false;
    }
  }
  // Endpoints and clients match when they sit at one index in pes().
  auto same_pe = [&](const ProcessingElement* a, const ProcessingElement* b) {
    return index_of(*a) == other.index_of(*b);
  };
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const ChannelSpec& a = channels_[i];
    const ChannelSpec& b = other.channels_[i];
    if (a.name != b.name || !same_pe(a.a, b.a) || !same_pe(a.b, b.b) ||
        a.port_a != b.port_a || a.port_b != b.port_b ||
        a.queue_depth != b.queue_depth || a.role_a != b.role_a) {
      return false;
    }
  }
  for (std::size_t i = 0; i < memories_.size(); ++i) {
    const MemorySpec& a = memories_[i];
    const MemorySpec& b = other.memories_[i];
    if (a.name != b.name || a.base != b.base || a.size != b.size ||
        !(a.cfg == b.cfg) || a.clients.size() != b.clients.size()) {
      return false;
    }
    for (std::size_t k = 0; k < a.clients.size(); ++k) {
      if (!same_pe(a.clients[k], b.clients[k])) return false;
    }
  }
  return true;
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
