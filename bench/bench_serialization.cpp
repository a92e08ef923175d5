// E6 — Serialization framework cost (paper §2, ship_serializable_if).
//
// Roundtrip throughput for the payload shapes PEs actually exchange:
// PODs, flat buffers, strings, and a nested struct. Expected shape:
// linear in payload size, flat-buffer copies near memcpy speed. The
// `wire_bytes` counter (serialized size of one message) is a property of
// the wire format, so bench/baselines/BENCH_serialization.baseline.json
// gates it exactly.

#include <benchmark/benchmark.h>

#include <numeric>

#include "ship/ship.hpp"

using namespace stlm::ship;

namespace {

struct NestedFrame final : ship_serializable_if {
  std::uint32_t id = 0;
  std::string tag;
  std::vector<std::int16_t> coeffs;
  std::vector<std::uint8_t> side;

  void serialize(Serializer& s) const override {
    s.put(id);
    s.put_string(tag);
    s.put_vector(coeffs);
    s.put_vector(side);
  }
  void deserialize(Deserializer& d) override {
    id = d.get<std::uint32_t>();
    tag = d.get_string();
    coeffs = d.get_vector<std::int16_t>();
    side = d.get_vector<std::uint8_t>();
  }
};

void BM_PodRoundtrip(benchmark::State& state) {
  PodMsg<std::uint64_t> in(0x0123456789abcdefull), out;
  std::size_t wire = 0;
  for (auto _ : state) {
    auto bytes = to_bytes(in);
    wire = bytes.size();
    from_bytes(out, bytes);
    benchmark::DoNotOptimize(out.value);
  }
  state.SetBytesProcessed(state.iterations() * 8);
  state.counters["wire_bytes"] = static_cast<double>(wire);
}

void BM_VectorRoundtrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorMsg<> in(n, 0x5a), out;
  std::size_t wire = 0;
  for (auto _ : state) {
    auto bytes = to_bytes(in);
    wire = bytes.size();
    from_bytes(out, bytes);
    benchmark::DoNotOptimize(out.data.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["wire_bytes"] = static_cast<double>(wire);
}

void BM_StringRoundtrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StringMsg in(std::string(n, 'x')), out;
  std::size_t wire = 0;
  for (auto _ : state) {
    auto bytes = to_bytes(in);
    wire = bytes.size();
    from_bytes(out, bytes);
    benchmark::DoNotOptimize(out.text.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["wire_bytes"] = static_cast<double>(wire);
}

void BM_NestedRoundtrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  NestedFrame in, out;
  in.id = 42;
  in.tag = "I-frame";
  in.coeffs.resize(n);
  std::iota(in.coeffs.begin(), in.coeffs.end(), std::int16_t{0});
  in.side.assign(n / 4 + 1, 9);
  std::size_t wire = 0;
  for (auto _ : state) {
    auto bytes = to_bytes(in);
    wire = bytes.size();
    from_bytes(out, bytes);
    benchmark::DoNotOptimize(out.coeffs.data());
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(serialized_size(in)));
  state.counters["wire_bytes"] = static_cast<double>(wire);
}

}  // namespace

BENCHMARK(BM_PodRoundtrip);
BENCHMARK(BM_VectorRoundtrip)->Arg(64)->Arg(1024)->Arg(65536);
BENCHMARK(BM_StringRoundtrip)->Arg(64)->Arg(4096);
BENCHMARK(BM_NestedRoundtrip)->Arg(64)->Arg(1024)->Arg(16384);

BENCHMARK_MAIN();
