#include "trace/vcd.hpp"

#include <algorithm>

#include "kernel/report.hpp"

namespace stlm::trace {

VcdWriter::VcdWriter(Simulator& sim, const std::string& path)
    : sim_(sim), out_(path) {
  if (!out_) throw SimulationError("cannot open VCD file: " + path);
  sim.add_post_delta_hook(this, [this](Time now) { on_delta(now); });
}

VcdWriter::~VcdWriter() {
  sim_.remove_post_delta_hooks(this);
  out_.flush();
}

void VcdWriter::add_entry(std::string name, int width,
                          std::function<std::uint64_t()> sampler) {
  STLM_ASSERT(!header_written_, "VCD signals must be added before running");
  STLM_ASSERT(width >= 1 && width <= 64, "VCD width out of range: " + name);
  // VCD identifiers must be unique; names become GTKWave-safe.
  std::replace(name.begin(), name.end(), ' ', '_');
  entries_.push_back(Entry{std::move(name), make_id(entries_.size()), width,
                           std::move(sampler), 0, false});
}

std::string VcdWriter::make_id(std::size_t index) {
  // Printable identifier alphabet '!'(33) .. '~'(126).
  std::string id;
  do {
    id.push_back(static_cast<char>(33 + index % 94));
    index /= 94;
  } while (index > 0);
  return id;
}

void VcdWriter::write_header() {
  header_written_ = true;
  out_ << "$timescale 1ps $end\n$scope module shiptlm $end\n";
  for (const auto& e : entries_) {
    out_ << "$var wire " << e.width << " " << e.id << " " << e.name
         << " $end\n";
  }
  out_ << "$upscope $end\n$enddefinitions $end\n";
}

void VcdWriter::emit(const Entry& e, std::uint64_t value) {
  if (e.width == 1) {
    out_ << (value & 1) << e.id << "\n";
    return;
  }
  out_ << "b";
  bool started = false;
  for (int bit = e.width - 1; bit >= 0; --bit) {
    const bool v = (value >> bit) & 1;
    if (v) started = true;
    if (started || bit == 0) out_ << (v ? '1' : '0');
  }
  out_ << " " << e.id << "\n";
}

void VcdWriter::on_delta(Time now) {
  if (!header_written_) write_header();
  const std::uint64_t ps = now.femtoseconds() / 1000;
  bool stamped = false;
  for (auto& e : entries_) {
    const std::uint64_t v = e.sample();
    if (e.valid && v == e.last) continue;
    if (!stamped && (!any_emitted_ || ps != last_emitted_ps_)) {
      out_ << "#" << ps << "\n";
      last_emitted_ps_ = ps;
      any_emitted_ = true;
      stamped = true;
    } else if (!stamped) {
      stamped = true;  // same timestamp, already emitted
    }
    e.last = v;
    e.valid = true;
    emit(e, v);
  }
}

}  // namespace stlm::trace
