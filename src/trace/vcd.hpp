#pragma once
// VCD (Value Change Dump) waveform writer.
//
// Signals are registered before the simulation runs; the writer samples
// them after every delta cycle (via the simulator's post-delta hook) and
// emits changes with picosecond timestamps. Output is viewable in GTKWave.

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "kernel/signal.hpp"
#include "kernel/simulator.hpp"
#include "kernel/time.hpp"

namespace stlm::trace {

class VcdWriter {
public:
  // Opens `path` for writing; the header is emitted on first sample.
  VcdWriter(Simulator& sim, const std::string& path);
  ~VcdWriter();

  VcdWriter(const VcdWriter&) = delete;
  VcdWriter& operator=(const VcdWriter&) = delete;

  // Register a signal under `name` (defaults to the signal's own name).
  // Supported: bool (1-bit wire) and integral types (vector wires).
  template <class T>
  void add(Signal<T>& sig, std::string name = "", int width = 8 * sizeof(T)) {
    static_assert(std::is_integral_v<T>, "VCD tracing needs integral signals");
    if (name.empty()) name = sig.name();
    if constexpr (std::is_same_v<T, bool>) width = 1;
    add_entry(std::move(name), width,
              [&sig]() { return static_cast<std::uint64_t>(sig.read()); });
  }

  // Register an arbitrary sampled value (e.g. an FSM state).
  void add_sampled(std::string name, int width,
                   std::function<std::uint64_t()> sampler) {
    add_entry(std::move(name), width, std::move(sampler));
  }

  std::size_t signal_count() const { return entries_.size(); }

  // Push buffered output to disk (also done on destruction).
  void flush() { out_.flush(); }

private:
  struct Entry {
    std::string name;
    std::string id;      // VCD short identifier
    int width;
    std::function<std::uint64_t()> sample;
    std::uint64_t last;
    bool valid;          // last holds a sampled value
  };

  void add_entry(std::string name, int width,
                 std::function<std::uint64_t()> sampler);
  void write_header();
  void on_delta(Time now);
  void emit(const Entry& e, std::uint64_t value);
  static std::string make_id(std::size_t index);

  Simulator& sim_;  // whose post-delta hook this writer is
  std::ofstream out_;
  std::vector<Entry> entries_;
  bool header_written_ = false;
  std::uint64_t last_emitted_ps_ = 0;
  bool any_emitted_ = false;
};

}  // namespace stlm::trace
