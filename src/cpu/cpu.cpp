#include "cpu/cpu.hpp"

namespace stlm::cpu {

CpuModel::CpuModel(Simulator& sim, std::string name, Time period,
                   Module* parent)
    : Module(sim, std::move(name), parent),
      period_(period) {}

void CpuModel::bind_bus(ocp::ocp_tl_master_if& bus) {
  STLM_ASSERT(bus_ == nullptr, "bus already bound: " + full_name());
  bus_ = &bus;
}

void CpuModel::transport(Txn& t) {
  if (bus_ == nullptr) throw ElaborationError("unbound bus: " + full_name());
  ++bus_txns_;
  bus_->transport(t);
}

void CpuModel::consume(std::uint64_t cycles) {
  if (cycles == 0) return;
  cycles_ += cycles;
  wait(period_ * cycles);
}

std::uint32_t CpuModel::mmio_read32(std::uint64_t addr) {
  PooledTxn t(sim().txn_pool());
  t->begin_read(addr, 4);
  transport(*t);
  if (!t->data_valid()) {
    throw ProtocolError(full_name() + ": bus error reading 0x" +
                        std::to_string(addr));
  }
  return ocp::u32_from_le(t->resp_data.data());
}

void CpuModel::mmio_write32(std::uint64_t addr, std::uint32_t value) {
  std::uint8_t bytes[4];
  ocp::u32_to_le(value, bytes);
  mmio_write_span(addr, bytes, sizeof bytes);
}

void CpuModel::mmio_read_append(std::uint64_t addr, std::uint32_t bytes,
                                std::vector<std::uint8_t>& out) {
  PooledTxn t(sim().txn_pool());
  t->begin_read(addr, bytes);
  transport(*t);
  if (!t->data_valid()) {
    throw ProtocolError(full_name() + ": bus error reading block at 0x" +
                        std::to_string(addr));
  }
  out.insert(out.end(), t->resp_data.begin(), t->resp_data.end());
}

void CpuModel::mmio_write_span(std::uint64_t addr, const void* p,
                               std::size_t n) {
  PooledTxn t(sim().txn_pool());
  t->begin_write(addr, p, n);
  transport(*t);
  if (!t->data_valid()) {
    throw ProtocolError(full_name() + ": bus error writing 0x" +
                        std::to_string(addr));
  }
}

}  // namespace stlm::cpu
