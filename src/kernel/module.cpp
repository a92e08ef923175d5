#include "kernel/module.hpp"

namespace stlm {

// -------------------------------------------------------------- module --

Module::Module(Simulator& sim, std::string name, Module* parent)
    : sim_(sim), name_(std::move(name)), parent_(parent) {}

Module::~Module() = default;

std::string Module::full_name() const {
  if (parent_) return parent_->full_name() + "." + name_;
  return name_;
}

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
