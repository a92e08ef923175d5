#pragma once
// Umbrella header for the exploration engine.

#include "explore/explorer.hpp"
#include "explore/pool.hpp"
#include "explore/search.hpp"
#include "workload/generators.hpp"
