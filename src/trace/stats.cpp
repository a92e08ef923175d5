#include "trace/stats.hpp"

#include <iomanip>

namespace stlm::trace {

void StatSet::report(std::ostream& os, const std::string& title) const {
  ScopedOstreamFormat guard(os);
  os << "=== " << title << " ===\n";
  for (const auto& [name, c] : counters_) {
    os << "  " << std::left << std::setw(32) << name << " " << c << "\n";
  }
}

}  // namespace stlm::trace
