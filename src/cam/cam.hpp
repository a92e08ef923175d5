#pragma once
// Umbrella header for the communication architecture model library.

#include "cam/address_map.hpp"
#include "cam/arbiter.hpp"
#include "cam/bridge.hpp"
#include "cam/buses.hpp"
#include "cam/cam_base.hpp"
#include "cam/cam_if.hpp"
#include "cam/grant_engine.hpp"
#include "cam/mailbox.hpp"
#include "cam/retry.hpp"
#include "cam/wrappers.hpp"
