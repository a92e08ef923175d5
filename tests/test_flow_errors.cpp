// Error-path and misuse tests across the flow: the library must fail
// loudly and precisely when a system is mis-specified — unmapped
// channels, role conflicts surfacing after refinement, exhausted
// resources, malformed platforms.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "cam/cam.hpp"
#include "core/core.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"

using namespace stlm;
using namespace stlm::core;
using namespace stlm::time_literals;

TEST(FlowErrors, UnknownPeInConnectThrows) {
  LambdaPe a("a", [](ExecContext&) {});
  LambdaPe b("b", [](ExecContext&) {});
  SystemGraph g;
  g.add_pe(a);
  // b never registered.
  EXPECT_THROW(g.connect("c", a, b), SimulationError);
}

TEST(FlowErrors, DoubleRegistrationThrows) {
  LambdaPe a("a", [](ExecContext&) {});
  SystemGraph g;
  g.add_pe(a);
  EXPECT_THROW(g.add_pe(a), SimulationError);
}

TEST(FlowErrors, PartitionQueryForUnknownPeThrows) {
  LambdaPe a("a", [](ExecContext&) {});
  SystemGraph g;
  EXPECT_THROW(g.partition(a), SimulationError);
  EXPECT_THROW(g.set_partition(a, Partition::Software), SimulationError);
}

TEST(FlowErrors, PeAskingForWrongPortNameThrows) {
  LambdaPe a("a", [](ExecContext& ctx) {
    ctx.channel("typo");  // declared as "out"
  });
  LambdaPe b("b", [](ExecContext& ctx) {
    ship::PodMsg<int> m;
    ctx.channel("in").recv(m);
  });
  SystemGraph g;
  g.add_pe(a);
  g.add_pe(b);
  g.connect("ch", a, "out", b, "in");
  Simulator sim;
  auto ms = Mapper::map(sim, g, Platform{},
                        AbstractionLevel::ComponentAssembly);
  EXPECT_THROW(sim.run(), ElaborationError);
}

TEST(FlowErrors, RoleConflictSurfacesAtCamLevelToo) {
  // Roles declared master for terminal a, but the PE actually behaves as
  // a slave: the wrapper rejects the first slave call.
  LambdaPe a("a", [](ExecContext& ctx) {
    ship::PodMsg<int> m;
    ctx.channel("p").recv(m);  // slave behaviour on a master wrapper
  });
  LambdaPe b("b", [](ExecContext& ctx) {
    ship::PodMsg<int> m(1);
    ctx.channel("p").send(m);
  });
  SystemGraph g;
  g.add_pe(a);
  g.add_pe(b);
  g.connect("ch", a, "p", b, "p", 1, ship::Role::Master);  // wrong
  Simulator sim;
  auto ms = Mapper::map(sim, g, Platform{}, AbstractionLevel::Cam);
  EXPECT_THROW(ms->run_until_done(10_ms), ProtocolError);
}

TEST(FlowErrors, CrossedRequestsThrowAtEveryLevel) {
  // Both terminals call request(): each would take the other's request
  // as its reply. The abstract SHIP channel and the SW-local RTOS queue
  // (both PEs in software at the CAM level) must both reject it.
  struct Case {
    AbstractionLevel level;
    Partition part;
  };
  for (const Case c : {Case{AbstractionLevel::ComponentAssembly,
                            Partition::Hardware},
                       Case{AbstractionLevel::Cam, Partition::Software}}) {
    auto asker = [](int v) {
      return [v](ExecContext& ctx) {
        ship::PodMsg<int> req(v);
        ship::PodMsg<int> resp;
        ctx.channel("p").request(req, resp);
      };
    };
    LambdaPe a("a", asker(1));
    LambdaPe b("b", asker(2));
    SystemGraph g;
    g.add_pe(a, c.part);
    g.add_pe(b, c.part);
    g.connect("ch", a, "p", b, "p", 1, ship::Role::Master);
    Simulator sim;
    auto ms = Mapper::map(sim, g, Platform{}, c.level);
    try {
      ms->run_until_done(10_ms);
      ADD_FAILURE() << "no throw at " << level_name(c.level);
    } catch (const ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find("request crossed"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FlowErrors, OneShipContractOnEveryMapping) {
  // The same PE code over every endpoint pair the mapper can put under a
  // channel: payloads arrive intact, roles read as on the abstract
  // channel, and the same misuse throws the same ProtocolError.
  struct Mapping {
    const char* name;
    AbstractionLevel level;
    Partition master;
    Partition slave;
  };
  constexpr Partition kHw = Partition::Hardware;
  constexpr Partition kSw = Partition::Software;
  const Mapping mappings[] = {
      {"component assembly", AbstractionLevel::ComponentAssembly, kHw, kHw},
      {"CCATB", AbstractionLevel::Ccatb, kHw, kHw},
      {"CAM HW/HW", AbstractionLevel::Cam, kHw, kHw},
      {"CAM HW master, SW slave", AbstractionLevel::Cam, kHw, kSw},
      {"CAM SW master, HW slave", AbstractionLevel::Cam, kSw, kHw},
      {"CAM SW/SW", AbstractionLevel::Cam, kSw, kSw},
  };
  using Body = std::function<void(ship::ship_if&)>;
  auto run = [](const Mapping& m, const Body& master, const Body& slave) {
    LambdaPe a("a", [&](ExecContext& ctx) { master(ctx.channel("p")); });
    LambdaPe b("b", [&](ExecContext& ctx) { slave(ctx.channel("p")); });
    SystemGraph g;
    g.add_pe(a, m.master);
    g.add_pe(b, m.slave);
    g.connect("ch", a, "p", b, "p", 1, ship::Role::Master);
    Simulator sim;
    auto ms = Mapper::map(sim, g, Platform{}, m.level);
    return ms->run_until_done(10_ms);
  };
  // Longer than one mailbox window, so the CAM rows move it in chunks.
  std::vector<std::uint8_t> payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }

  for (const Mapping& m : mappings) {
    SCOPED_TRACE(m.name);
    std::vector<std::uint8_t> got;
    int got_req = 0;
    int got_resp = 0;
    ship::Role master_role = ship::Role::Unknown;
    ship::Role slave_role = ship::Role::Unknown;
    EXPECT_TRUE(run(
        m,
        [&](ship::ship_if& p) {
          p.send(ship::VectorMsg<>(payload));
          ship::PodMsg<int> resp;
          p.request(ship::PodMsg<int>(7), resp);
          got_resp = resp.value;
          master_role = p.role();
        },
        [&](ship::ship_if& p) {
          ship::VectorMsg<> msg;
          p.recv(msg);
          got = msg.data;
          ship::PodMsg<int> req;
          p.recv(req);
          got_req = req.value;
          p.reply(ship::PodMsg<int>(req.value * 3));
          slave_role = p.role();
        }));
    EXPECT_EQ(got, payload);
    EXPECT_EQ(got_req, 7);
    EXPECT_EQ(got_resp, 21);
    EXPECT_EQ(master_role, ship::Role::Master);
    EXPECT_EQ(slave_role, ship::Role::Slave);

    EXPECT_THROW(run(
                     m,
                     [](ship::ship_if& p) {
                       p.send(ship::PodMsg<int>(1));
                       ship::PodMsg<int> msg;
                       p.recv(msg);  // slave call on the master terminal
                     },
                     [](ship::ship_if& p) {
                       ship::PodMsg<int> msg;
                       p.recv(msg);
                     }),
                 ProtocolError);

    EXPECT_THROW(run(
                     m, [](ship::ship_if&) {},
                     [](ship::ship_if& p) { p.reply(ship::PodMsg<int>(1)); }),
                 ProtocolError);
  }
}

TEST(FlowErrors, MailboxWindowsDoNotOverlapAcrossChannels) {
  // Many channels: every mailbox gets a distinct window; elaboration of
  // the CAM address map must not throw.
  std::vector<std::unique_ptr<ProcessingElement>> owned;
  SystemGraph g;
  for (int i = 0; i < 8; ++i) {
    auto p =
        std::make_unique<workload::ProducerPe>("p" + std::to_string(i), 2, 16);
    auto s = std::make_unique<workload::SinkPe>("s" + std::to_string(i), 2);
    g.add_pe(*p);
    g.add_pe(*s);
    g.connect("ch" + std::to_string(i), *p, "out", *s, "in", 1,
              ship::Role::Master);
    owned.push_back(std::move(p));
    owned.push_back(std::move(s));
  }
  Simulator sim;
  auto ms = Mapper::map(sim, g, Platform{}, AbstractionLevel::Cam);
  EXPECT_TRUE(ms->run_until_done(100_ms));
  EXPECT_EQ(ms->bus()->address_map().size(), 8u);
}

TEST(FlowErrors, ExplorationSurvivesIncompleteWorkload) {
  // A sink expecting more messages than the producer sends: the run hits
  // the time budget; the row reports completed == false instead of
  // hanging or throwing.
  const workload::WorkloadCase starved{
      "", [](SystemGraph& g,
             std::vector<std::unique_ptr<ProcessingElement>>& o) {
        auto p = std::make_unique<workload::ProducerPe>("p", 2, 16);
        auto s = std::make_unique<workload::SinkPe>("s", 99);
        g.add_pe(*p);
        g.add_pe(*s);
        g.connect("ch", *p, "out", *s, "in", 1, ship::Role::Master);
        o.push_back(std::move(p));
        o.push_back(std::move(s));
      }};
  expl::Explorer ex;
  const auto row = ex.evaluate(Platform{}, starved, 1_ms);
  EXPECT_FALSE(row.completed);
}

TEST(FlowErrors, ZeroCycleBusRejected) {
  Simulator sim;
  EXPECT_THROW(cam::PlbCam(sim, "plb", Time::zero(),
                           std::make_unique<cam::PriorityArbiter>()),
               SimulationError);
  EXPECT_THROW(cam::CrossbarCam(sim, "xbar", Time::zero()), SimulationError);
}

TEST(FlowErrors, WrapperBusErrorBecomesProtocolError) {
  // A master wrapper pointed at an address with no slave behind it.
  Simulator sim;
  cam::PlbCam bus(sim, "plb", 10_ns, std::make_unique<cam::PriorityArbiter>());
  cam::MailboxLayout layout{0x4000, 64};
  // Intentionally: no attach_slave.
  cam::ShipMasterWrapper master(sim, "m", bus, bus.add_master("pe"), layout,
                                100_ns);
  sim.spawn_thread("pe", [&] {
    ship::PodMsg<int> m(1);
    master.send(m);
  });
  EXPECT_THROW(sim.run(), ProtocolError);
}
