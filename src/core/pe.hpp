#pragma once
// Processing elements and their execution contexts.
//
// The flow's key constraint (paper §4): PEs that may become software must
// use SHIP channels exclusively for communication. We enforce a slightly
// stronger, cleaner discipline: PE behaviour is written once against
// ExecContext — channels by name, computation as cycle budgets — and the
// builder binds it either to kernel primitives (HW partition) or to RTOS
// primitives on the CPU model (SW partition). That binding *is* the
// Herrera-style eSW synthesis step, realized as link-time substitution
// instead of source rewriting.

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "kernel/simulator.hpp"
#include "kernel/time.hpp"
#include "ship/channel.hpp"

namespace stlm::cam {
class CamIf;
class RetryPolicy;
}

namespace stlm::core {

enum class Partition : std::uint8_t { Hardware, Software };
const char* partition_name(Partition p);

class ExecContext {
public:
  virtual ~ExecContext() = default;

  // The SHIP endpoint this PE was connected to under `name`.
  ship::ship_if& channel(const std::string& name);
  // Bind `endpoint` under `name` (the mapper's job).
  void add_channel(const std::string& name, ship::ship_if& endpoint) {
    endpoints_[name] = &endpoint;
  }
  // Charge computation time (cycles of the PE's clock / the CPU).
  virtual void consume(std::uint64_t cycles) = 0;
  // Explicit idle time (sensor intervals, frame pacing, ...).
  virtual void idle(Time t) = 0;

  // Direct addressed access to mapped memory, for PEs registered as
  // memory clients (SystemGraph::add_memory). At the CAM level the
  // mapper binds a bus master port here; abstract levels (component
  // assembly, CCATB) have no interconnect and return nullptr — the PE
  // then models its accesses as compute. Issue with
  // `mem_bus()->post(mem_master(), txn)` (OoO window) or a blocking
  // `master_port(mem_master()).transport(txn)`.
  virtual cam::CamIf* mem_bus() { return nullptr; }
  virtual std::size_t mem_master() const { return 0; }
  // Initiator-side failure policy for the memory port, when the platform
  // carries an active RetrySpec. Posted initiators issue through
  // `mem_retry()->post(txn)` and classify with `settle(txn)` after
  // done.wait(); nullptr (the default) means issue directly on mem_bus().
  virtual cam::RetryPolicy* mem_retry() { return nullptr; }

  virtual Simulator& sim() = 0;

private:
  std::map<std::string, ship::ship_if*> endpoints_;
};

class ProcessingElement {
public:
  explicit ProcessingElement(std::string name) : name_(std::move(name)) {}
  virtual ~ProcessingElement() = default;

  ProcessingElement(const ProcessingElement&) = delete;
  ProcessingElement& operator=(const ProcessingElement&) = delete;

  const std::string& name() const { return name_; }

  // PE behaviour. May run forever or return when its workload completes.
  // Must be re-entrant: the flow executes it once per built model (role
  // discovery run, then each abstraction level), so all mutable state
  // belongs in locals, not members.
  virtual void run(ExecContext& ctx) = 0;

private:
  std::string name_;
};

// Convenience: a PE defined by a lambda (used by tests and workloads).
class LambdaPe final : public ProcessingElement {
public:
  LambdaPe(std::string name, std::function<void(ExecContext&)> body)
      : ProcessingElement(std::move(name)), body_(std::move(body)) {}

  void run(ExecContext& ctx) override { body_(ctx); }

private:
  std::function<void(ExecContext&)> body_;
};

}  // namespace stlm::core
