#pragma once
// Structural hierarchy: modules and ports.
//
// A Module is a named node in the design hierarchy that owns processes and
// registers its ports with the simulator's elaboration check. Modules are
// plain C++ objects composed by value inside parent modules (or on the
// test's stack); the hierarchy only tracks non-owning pointers.
//
// A Port<IF> is a typed, late-bound reference to a channel implementing
// interface IF. Unbound ports are reported by name before simulation
// starts.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kernel/process.hpp"
#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

namespace stlm {

class Module;

class PortBase {
public:
  PortBase(Module& owner, std::string name);
  virtual ~PortBase();

  PortBase(const PortBase&) = delete;
  PortBase& operator=(const PortBase&) = delete;

  virtual bool is_bound() const = 0;
  // True if this port may legally stay unbound (optional ports).
  virtual bool is_optional() const { return false; }

  const std::string& name() const { return name_; }
  std::string full_name() const;
  Module& owner() const { return *owner_; }

private:
  Module* owner_;
  std::string name_;
};

template <class IF>
class Port : public PortBase {
public:
  Port(Module& owner, std::string name) : PortBase(owner, std::move(name)) {}

  void bind(IF& target) {
    STLM_ASSERT(target_ == nullptr, "port already bound: " + full_name());
    target_ = &target;
  }
  void operator()(IF& target) { bind(target); }

  bool is_bound() const override { return target_ != nullptr; }

  IF* operator->() const {
    STLM_ASSERT(target_ != nullptr, "access through unbound port: " + full_name());
    return target_;
  }
  IF& get() const {
    STLM_ASSERT(target_ != nullptr, "access through unbound port: " + full_name());
    return *target_;
  }

private:
  IF* target_ = nullptr;
};

// A port that is allowed to remain unbound.
template <class IF>
class OptionalPort : public Port<IF> {
public:
  using Port<IF>::Port;
  bool is_optional() const override { return true; }
};

class Module {
public:
  Module(Simulator& sim, std::string name, Module* parent = nullptr);
  virtual ~Module();

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }
  std::string full_name() const;
  Simulator& sim() const { return sim_; }
  Module* parent() const { return parent_; }
  const std::vector<Module*>& children() const { return children_; }
  const std::vector<PortBase*>& ports() const { return ports_; }

  // Spawn a thread process owned by this module. The process name is
  // prefixed with the module's full name.
  Process& spawn_thread(std::string name, std::function<void()> body);
  // Spawn a method process with static sensitivity.
  MethodProcess& spawn_method(std::string name, std::function<void()> fn,
                              std::vector<Event*> sensitivity,
                              bool run_at_start = true);

  // Unwind every parked thread process this module owns (see
  // Simulator::kill_process) — for owners that must do it before objects
  // those threads' frames reference are destroyed.
  void kill_threads();

  // Kernel-internal: called from PortBase's constructor/destructor.
  void register_port(PortBase& p) { ports_.push_back(&p); }
  void unregister_port(PortBase& p);

private:
  Simulator& sim_;
  std::string name_;
  Module* parent_;
  std::vector<Module*> children_;
  std::vector<PortBase*> ports_;
  std::vector<std::unique_ptr<ProcessBase>> processes_;
};

}  // namespace stlm
