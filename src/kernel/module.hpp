#pragma once
// Structural hierarchy: modules.
//
// A Module is a named node in the design hierarchy that owns processes.
// Modules are plain C++ objects composed by value inside parent modules
// (or on the test's stack); a module keeps a non-owning pointer to its
// parent, which only prefixes its full name. Connections between modules
// are plain interface pointers or references set by whoever wires them
// (core::Mapper for a mapped system); each one checks its own binding
// where it is used.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kernel/process.hpp"
#include "kernel/simulator.hpp"

namespace stlm {

class Module {
public:
  Module(Simulator& sim, std::string name, Module* parent = nullptr);
  virtual ~Module();

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }
  std::string full_name() const;
  Simulator& sim() const { return sim_; }

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

private:
  Simulator& sim_;
  std::string name_;
  Module* parent_;
  std::vector<std::unique_ptr<ProcessBase>> processes_;
};

}  // namespace stlm
