#pragma once
// Error reporting and logging for the shiptlm kernel and the libraries
// built on it. Protocol violations and elaboration errors are reported as
// exceptions derived from SimulationError so a test or exploration driver
// can catch and classify them.

#include <stdexcept>
#include <string>

namespace stlm {

// Base class for every error the simulator and protocol stacks raise.
class SimulationError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

// Misuse of a communication protocol (mixed SHIP roles on one terminal,
// OCP phase order, mailbox overflow, ...).
class ProtocolError : public SimulationError {
public:
  using SimulationError::SimulationError;
};

// Structural problems in how a system is wired (unbound CPU bus,
// overlapping address ranges, unmapped channel, ...), found while it is
// built or at the first use of the missing connection.
class ElaborationError : public SimulationError {
public:
  using SimulationError::SimulationError;
};

enum class Severity { Debug, Info, Warning, Error };

// Global log threshold; messages below it are dropped. Defaults to Warning
// so tests and benchmarks stay quiet. The threshold is atomic — it is the
// one piece of state shared across the per-thread simulators that parallel
// exploration sweeps run concurrently.
void set_log_level(Severity s);
Severity log_level();

// Write a log line ("[sev] source: message") to stderr if `s` passes the
// threshold.
void log(Severity s, const std::string& source, const std::string& message);

}  // namespace stlm

// Assert a precondition/invariant; throws SimulationError on failure.
// Used for contract checks that must stay active in release builds.
#define STLM_ASSERT(cond, msg)                                       \
  do {                                                               \
    if (!(cond)) {                                                   \
      throw ::stlm::SimulationError(std::string("assertion failed: ") + \
                                    (msg));                          \
    }                                                                \
  } while (false)
