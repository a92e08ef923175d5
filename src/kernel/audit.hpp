#pragma once

namespace stlm::audit {

// Always true. Kept only because perfbench/ still reports it.
constexpr bool compiled_in() { return true; }

}  // namespace stlm::audit
