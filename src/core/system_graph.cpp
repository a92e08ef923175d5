#include "core/system_graph.hpp"

#include <algorithm>

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

namespace {

// Position of `pe` in `pes` (pes.size() when absent).
std::size_t index_of(const std::vector<ProcessingElement*>& pes,
                     const ProcessingElement* pe) {
  return static_cast<std::size_t>(std::find(pes.begin(), pes.end(), pe) -
                                  pes.begin());
}

}  // namespace

GraphShape::GraphShape(const SystemGraph& g) {
  const auto& pes = g.pes();
  for (const ProcessingElement* pe : pes) {
    pes_.push_back({pe->name(), typeid(*pe), g.partition(*pe)});
  }
  for (const ChannelSpec& c : g.channels()) {
    channels_.push_back({c.name, index_of(pes, c.a), index_of(pes, c.b),
                         c.port_a, c.port_b, c.queue_depth, c.role_a});
  }
  for (const MemorySpec& m : g.memories()) {
    Memory mem{m.name, m.base, m.size, m.cfg, {}};
    for (const ProcessingElement* pe : m.clients) {
      mem.clients.push_back(index_of(pes, pe));
    }
    memories_.push_back(std::move(mem));
  }
}

bool GraphShape::matches(const SystemGraph& g) const {
  const auto& pes = g.pes();
  if (pes.size() != pes_.size() || g.channels().size() != channels_.size() ||
      g.memories().size() != memories_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < pes.size(); ++i) {
    const Pe& s = pes_[i];
    if (pes[i]->name() != s.name || std::type_index(typeid(*pes[i])) != s.type ||
        g.partition(*pes[i]) != s.part) {
      return false;
    }
  }
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const ChannelSpec& c = g.channels()[i];
    const Channel& s = channels_[i];
    if (c.name != s.name || index_of(pes, c.a) != s.a ||
        index_of(pes, c.b) != s.b || c.port_a != s.port_a ||
        c.port_b != s.port_b || c.queue_depth != s.depth ||
        c.role_a != s.role_a) {
      return false;
    }
  }
  for (std::size_t i = 0; i < memories_.size(); ++i) {
    const MemorySpec& m = g.memories()[i];
    const Memory& s = memories_[i];
    if (m.name != s.name || m.base != s.base || m.size != s.size ||
        !(m.cfg == s.cfg) || m.clients.size() != s.clients.size()) {
      return false;
    }
    for (std::size_t k = 0; k < s.clients.size(); ++k) {
      if (index_of(pes, m.clients[k]) != s.clients[k]) return false;
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
