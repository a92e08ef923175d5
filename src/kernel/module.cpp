#include "kernel/module.hpp"

#include <algorithm>

namespace stlm {

// ---------------------------------------------------------------- port --

PortBase::PortBase(Module& owner, std::string name)
    : owner_(&owner), name_(std::move(name)) {
  owner_->register_port(*this);
}

PortBase::~PortBase() { owner_->unregister_port(*this); }

std::string PortBase::full_name() const {
  return owner_->full_name() + "." + name_;
}

// -------------------------------------------------------------- module --

Module::Module(Simulator& sim, std::string name, Module* parent)
    : sim_(sim), name_(std::move(name)), parent_(parent) {
  if (parent_) parent_->children_.push_back(this);
  sim_.register_module(*this);
}

Module::~Module() {
  // Destroy owned processes before deregistering so their event cleanup
  // still sees a consistent simulator.
  processes_.clear();
  if (parent_) std::erase(parent_->children_, this);
  sim_.unregister_module(*this);
}

std::string Module::full_name() const {
  if (parent_) return parent_->full_name() + "." + name_;
  return name_;
}

void Module::unregister_port(PortBase& p) { std::erase(ports_, &p); }

Process& Module::spawn_thread(std::string name, std::function<void()> body) {
  auto proc = std::make_unique<Process>(sim_, full_name() + "." + name,
                                        std::move(body));
  Process& ref = *proc;
  processes_.push_back(std::move(proc));
  return ref;
}

void Module::kill_threads() {
  for (const auto& p : processes_) {
    if (p->kind() == ProcessBase::Kind::Thread) {
      sim_.kill_process(static_cast<Process&>(*p));
    }
  }
}

MethodProcess& Module::spawn_method(std::string name, std::function<void()> fn,
                                    std::vector<Event*> sensitivity,
                                    bool run_at_start) {
  auto proc = std::make_unique<MethodProcess>(
      sim_, full_name() + "." + name, std::move(fn), run_at_start);
  MethodProcess& ref = *proc;
  ref.set_static_sensitivity(sensitivity);
  processes_.push_back(std::move(proc));
  return ref;
}

}  // namespace stlm
