#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/fnv.hpp"

namespace duti {
namespace {

TEST(Network, ConstructionAndEdges) {
  Network net(4);
  EXPECT_EQ(net.num_nodes(), 4u);
  EXPECT_FALSE(net.has_edge(0, 1));
  net.add_edge(0, 1);
  EXPECT_TRUE(net.has_edge(0, 1));
  EXPECT_FALSE(net.has_edge(1, 0));  // directed
  EXPECT_THROW(net.add_edge(0, 0), InvalidArgument);
  EXPECT_THROW(net.add_edge(0, 9), InvalidArgument);
}

TEST(Network, StarTopology) {
  Network net(5);
  net.add_star(0);
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_TRUE(net.has_edge(v, 0));
    EXPECT_TRUE(net.has_edge(0, v));
  }
  EXPECT_FALSE(net.has_edge(1, 2));
}

TEST(Network, CompleteTopology) {
  Network net(4);
  net.add_complete();
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_EQ(net.has_edge(u, v), u != v);
    }
  }
}

TEST(Network, MissingBehaviorThrows) {
  Network net(2);
  net.set_behavior(0, [](RoundContext& ctx) { ctx.halt(); });
  Rng rng(1);
  EXPECT_THROW(net.run(rng), Error);
}

TEST(Network, HaltsWhenAllNodesHalt) {
  Network net(3);
  for (NodeId v = 0; v < 3; ++v) {
    net.set_behavior(v, [](RoundContext& ctx) {
      if (ctx.round() >= 2) ctx.halt();
    });
  }
  Rng rng(2);
  const auto stats = net.run(rng, 100);
  EXPECT_EQ(stats.rounds_executed, 3u);  // rounds 0,1,2
}

TEST(Network, MaxRoundsCapsExecution) {
  Network net(1);
  net.set_behavior(0, [](RoundContext&) { /* never halts */ });
  Rng rng(3);
  const auto stats = net.run(rng, 7);
  EXPECT_EQ(stats.rounds_executed, 7u);
}

TEST(Network, StarVoteAggregation) {
  // Leaves send their id+10 to the center in round 0; center sums in
  // round 1. End-to-end single-round aggregation — the referee pattern.
  Network net(4);
  net.add_star(0);
  std::uint64_t total_received = 0;
  net.set_behavior(0, [&total_received](RoundContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      total_received += m.payload.at(0);
    }
    if (ctx.round() >= 1) ctx.halt();
  });
  for (NodeId v = 1; v < 4; ++v) {
    net.set_behavior(v, [](RoundContext& ctx) {
      ctx.send(0, {ctx.id() + 10ULL}, 8);
      ctx.halt();
    });
  }
  Rng rng(4);
  const auto stats = net.run(rng);
  EXPECT_EQ(total_received, 11u + 12u + 13u);
  EXPECT_EQ(stats.messages_sent, 3u);
  EXPECT_EQ(stats.bits_sent, 24u);
}

TEST(Network, SendingAlongNonEdgeThrows) {
  Network net(3);
  net.add_edge(0, 1);
  net.set_behavior(0, [](RoundContext& ctx) {
    ctx.send(2, {1}, 1);  // no edge 0 -> 2
    ctx.halt();
  });
  net.set_behavior(1, [](RoundContext& ctx) { ctx.halt(); });
  net.set_behavior(2, [](RoundContext& ctx) { ctx.halt(); });
  Rng rng(5);
  EXPECT_THROW(net.run(rng), InvalidArgument);
}

TEST(Network, MessagesDeliveredNextRound) {
  Network net(2);
  net.add_edge(0, 1);
  unsigned delivery_round = 0;
  net.set_behavior(0, [](RoundContext& ctx) {
    if (ctx.round() == 0) ctx.send(1, {99}, 7);
    if (ctx.round() >= 1) ctx.halt();
  });
  net.set_behavior(1, [&delivery_round](RoundContext& ctx) {
    if (!ctx.inbox().empty()) {
      delivery_round = ctx.round();
      EXPECT_EQ(ctx.inbox()[0].payload.at(0), 99u);
      EXPECT_EQ(ctx.inbox()[0].from, 0u);
      ctx.halt();
    }
  });
  Rng rng(6);
  net.run(rng);
  EXPECT_EQ(delivery_round, 1u);
}

TEST(Network, HaltedNodesStopParticipating) {
  Network net(2);
  net.add_edge(0, 1);
  int rounds_active = 0;
  net.set_behavior(0, [&rounds_active](RoundContext& ctx) {
    ++rounds_active;
    ctx.halt();
  });
  net.set_behavior(1, [](RoundContext& ctx) {
    if (ctx.round() >= 3) ctx.halt();
  });
  Rng rng(7);
  net.run(rng);
  EXPECT_EQ(rounds_active, 1);
}

TEST(Network, DropFaultLosesMessages) {
  Network net(2);
  net.add_edge(0, 1);
  net.set_link_fault(0, 1, {1.0, 0.0});  // drop everything
  int received = 0;
  net.set_behavior(0, [](RoundContext& ctx) {
    ctx.send(1, {42}, 8);
    ctx.halt();
  });
  net.set_behavior(1, [&received](RoundContext& ctx) {
    received += static_cast<int>(ctx.inbox().size());
    if (ctx.round() >= 1) ctx.halt();
  });
  Rng rng(31);
  const auto stats = net.run(rng);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(stats.messages_dropped, 1u);
  EXPECT_EQ(stats.messages_sent, 1u);  // sending is still charged
}

TEST(Network, CorruptFaultFlipsOneBitWithinBitSize) {
  // Full-width corruption: exactly one uniformly chosen bit inside the
  // declared bit_size flips — never a bit outside it.
  auto corrupt_once = [](std::uint64_t seed) {
    Network net(2);
    net.add_edge(0, 1);
    net.set_link_fault(0, 1, {0.0, 1.0});  // corrupt everything
    std::uint64_t received_value = 0;
    net.set_behavior(0, [](RoundContext& ctx) {
      ctx.send(1, {0xAAu}, 8);
      ctx.halt();
    });
    net.set_behavior(1, [&received_value](RoundContext& ctx) {
      for (const auto& m : ctx.inbox()) received_value = m.payload.at(0);
      if (ctx.round() >= 1) ctx.halt();
    });
    Rng rng(seed);
    const auto stats = net.run(rng);
    EXPECT_EQ(stats.messages_corrupted, 1u);
    return received_value;
  };
  bool saw_non_low_bit = false;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const std::uint64_t received = corrupt_once(seed);
    const std::uint64_t diff = received ^ 0xAAu;
    EXPECT_EQ(__builtin_popcountll(diff), 1) << "seed " << seed;
    EXPECT_LT(diff, 1u << 8) << "flipped bit outside bit_size";
    if (diff != 1) saw_non_low_bit = true;
    // Bit-for-bit reproducible under a fixed seed.
    EXPECT_EQ(received, corrupt_once(seed));
  }
  EXPECT_TRUE(saw_non_low_bit);  // not just the old word0-low-bit flip
}

TEST(Network, DelayFaultDefersDeliveryByConfiguredRounds) {
  Network net(2);
  net.add_edge(0, 1);
  LinkFault fault;
  fault.delay_prob = 1.0;
  fault.delay_rounds = 3;
  net.set_link_fault(0, 1, fault);
  unsigned delivery_round = 0;
  net.set_behavior(0, [](RoundContext& ctx) {
    if (ctx.round() == 0) ctx.send(1, {7}, 4);
    if (ctx.round() >= 1) ctx.halt();
  });
  net.set_behavior(1, [&delivery_round](RoundContext& ctx) {
    if (!ctx.inbox().empty()) {
      delivery_round = ctx.round();
      EXPECT_EQ(ctx.inbox()[0].payload.at(0), 7u);
      ctx.halt();
    }
  });
  Rng rng(41);
  const auto stats = net.run(rng, 50);
  EXPECT_EQ(delivery_round, 4u);  // 1 (normal) + 3 (delay)
  EXPECT_EQ(stats.messages_delayed, 1u);
  EXPECT_EQ(stats.messages_lost(), 0u);
}

TEST(Network, OutageWindowBlocksExactlyConfiguredRounds) {
  Network net(2);
  net.add_edge(0, 1);
  LinkFault fault;
  fault.outage_lo = 1;
  fault.outage_hi = 3;  // rounds 1 and 2 are down
  net.set_link_fault(0, 1, fault);
  std::vector<std::uint64_t> received;
  net.set_behavior(0, [](RoundContext& ctx) {
    if (ctx.round() < 5) {
      ctx.send(1, {ctx.round()}, 8);
    } else {
      ctx.halt();
    }
  });
  net.set_behavior(1, [&received](RoundContext& ctx) {
    for (const auto& m : ctx.inbox()) received.push_back(m.payload.at(0));
    if (ctx.round() >= 6) ctx.halt();
  });
  Rng rng(42);
  const auto stats = net.run(rng, 20);
  EXPECT_EQ(received, (std::vector<std::uint64_t>{0, 3, 4}));
  EXPECT_EQ(stats.messages_lost_to_outage, 2u);
  EXPECT_EQ(stats.messages_sent, 5u);
}

TEST(Network, CrashStopFiresAtScheduledRound) {
  Network net(2);
  net.add_edge(0, 1);
  int rounds_active = 0;
  net.set_behavior(0, [&rounds_active](RoundContext&) { ++rounds_active; });
  net.set_behavior(1, [](RoundContext& ctx) {
    if (ctx.round() >= 5) ctx.halt();
  });
  net.schedule_crash(0, 2);
  Rng rng(43);
  const auto stats = net.run(rng, 100);
  EXPECT_EQ(rounds_active, 2);  // executed rounds 0 and 1 only
  EXPECT_EQ(stats.nodes_crashed, 1u);
  // A crashed node counts as halted: the run terminates without stalling
  // until max_rounds.
  EXPECT_EQ(stats.rounds_executed, 6u);
}

TEST(Network, MessagesToCrashedOrHaltedNodesAreAccounted) {
  Network net(2);
  net.add_edge(0, 1);
  net.schedule_crash(1, 1);
  net.set_behavior(0, [](RoundContext& ctx) {
    if (ctx.round() < 3) {
      ctx.send(1, {1}, 1);
    } else {
      ctx.halt();
    }
  });
  net.set_behavior(1, [](RoundContext&) {});
  Rng rng(44);
  const auto stats = net.run(rng, 50);
  // All three messages (delivered at rounds 1,2,3) arrive after the crash.
  EXPECT_EQ(stats.messages_sent, 3u);
  EXPECT_EQ(stats.messages_lost_to_halted, 3u);
}

TEST(Network, ByzantineWrappersTamperWithOutgoingVotes) {
  struct Case {
    ByzantineMode mode;
    std::uint64_t sent, expected;
  };
  for (const Case c : {Case{ByzantineMode::kStuckAtZero, 1, 0},
                       Case{ByzantineMode::kStuckAtOne, 0, 1},
                       Case{ByzantineMode::kAdversarialFlip, 1, 0},
                       Case{ByzantineMode::kAdversarialFlip, 0, 1}}) {
    Network net(2);
    net.add_edge(0, 1);
    std::uint64_t received = 99;
    net.set_behavior(0, make_byzantine(
                            [&c](RoundContext& ctx) {
                              ctx.send(1, {c.sent}, 1);
                              ctx.halt();
                            },
                            c.mode));
    net.set_behavior(1, [&received](RoundContext& ctx) {
      for (const auto& m : ctx.inbox()) received = m.payload.at(0);
      if (ctx.round() >= 1) ctx.halt();
    });
    Rng rng(45);
    net.run(rng);
    EXPECT_EQ(received, c.expected)
        << "mode " << static_cast<int>(c.mode) << " sent " << c.sent;
  }
}

TEST(Network, MessageAuditBalancesUnderMixedFaults) {
  // Every sent message is delivered exactly once or lands in exactly one
  // loss bucket — the invariant bit-accounting audits rely on.
  Network net(2);
  net.add_edge(0, 1);
  LinkFault fault;
  fault.drop_prob = 0.25;
  fault.corrupt_prob = 0.2;
  fault.delay_prob = 0.3;
  fault.delay_rounds = 2;
  fault.outage_lo = 10;
  fault.outage_hi = 20;
  net.set_default_fault(fault);
  std::uint64_t received = 0;
  net.set_behavior(0, [](RoundContext& ctx) {
    if (ctx.round() < 100) {
      ctx.send(1, {ctx.round()}, 16);
    } else {
      ctx.halt();
    }
  });
  net.set_behavior(1, [&received](RoundContext& ctx) {
    received += ctx.inbox().size();
    if (ctx.round() >= 110) ctx.halt();
  });
  Rng rng(46);
  const auto stats = net.run(rng, 200);
  EXPECT_EQ(stats.messages_sent, 100u);
  EXPECT_EQ(received + stats.messages_lost(), stats.messages_sent);
  EXPECT_GT(stats.messages_dropped, 0u);
  EXPECT_GT(stats.messages_delayed, 0u);
  EXPECT_GT(stats.messages_lost_to_outage, 0u);
}

TEST(Network, FaultStatsReplayDeterministically) {
  // Same seed => identical NetworkStats across two runs, every counter.
  auto run_once = [](std::uint64_t seed) {
    Network net(3);
    net.add_edge(0, 1);
    net.add_edge(1, 2);
    LinkFault fault;
    fault.drop_prob = 0.3;
    fault.corrupt_prob = 0.3;
    fault.delay_prob = 0.2;
    fault.delay_rounds = 1;
    net.set_default_fault(fault);
    net.schedule_crash(2, 40);
    net.set_behavior(0, [](RoundContext& ctx) {
      if (ctx.round() < 60) {
        ctx.send(1, {ctx.round()}, 12);
      } else {
        ctx.halt();
      }
    });
    net.set_behavior(1, [](RoundContext& ctx) {
      for (const auto& m : ctx.inbox()) {
        ctx.send(2, {m.payload.at(0)}, 12);
      }
      if (ctx.round() >= 65) ctx.halt();
    });
    net.set_behavior(2, [](RoundContext&) {});
    Rng rng(seed);
    return net.run(rng, 100);
  };
  const auto a = run_once(47);
  const auto b = run_once(47);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bits_sent, b.bits_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_corrupted, b.messages_corrupted);
  EXPECT_EQ(a.messages_delayed, b.messages_delayed);
  EXPECT_EQ(a.messages_lost_to_outage, b.messages_lost_to_outage);
  EXPECT_EQ(a.messages_lost_to_halted, b.messages_lost_to_halted);
  EXPECT_EQ(a.nodes_crashed, b.nodes_crashed);
  const auto c = run_once(48);
  EXPECT_NE(a.messages_dropped, c.messages_dropped);
}

TEST(Network, PartialDropRateIsRespected) {
  Network net(2);
  net.add_edge(0, 1);
  net.set_default_fault({0.3, 0.0});
  int received = 0, sent = 0;
  net.set_behavior(0, [&sent](RoundContext& ctx) {
    if (ctx.round() < 500) {
      ctx.send(1, {1}, 1);
      ++sent;
    } else {
      ctx.halt();
    }
  });
  net.set_behavior(1, [&received](RoundContext& ctx) {
    received += static_cast<int>(ctx.inbox().size());
    if (ctx.round() >= 501) ctx.halt();
  });
  Rng rng(33);
  net.run(rng, 600);
  EXPECT_NEAR(static_cast<double>(received) / sent, 0.7, 0.07);
}

TEST(Network, FaultValidation) {
  Network net(2);
  net.add_edge(0, 1);
  EXPECT_THROW(net.set_link_fault(1, 0, {0.5, 0.0}), InvalidArgument);
  EXPECT_THROW(net.set_link_fault(0, 1, {1.5, 0.0}), InvalidArgument);
  EXPECT_THROW(net.set_default_fault({0.0, -0.1}), InvalidArgument);
}

TEST(Network, FaultyRunsReplayDeterministically) {
  auto run_once = [](std::uint64_t seed) {
    Network net(2);
    net.add_edge(0, 1);
    net.set_default_fault({0.5, 0.0});
    int received = 0;
    net.set_behavior(0, [](RoundContext& ctx) {
      if (ctx.round() < 50) {
        ctx.send(1, {1}, 1);
      } else {
        ctx.halt();
      }
    });
    net.set_behavior(1, [&received](RoundContext& ctx) {
      received += static_cast<int>(ctx.inbox().size());
      if (ctx.round() >= 51) ctx.halt();
    });
    Rng rng(seed);
    net.run(rng, 100);
    return received;
  };
  EXPECT_EQ(run_once(34), run_once(34));
}

TEST(Network, PerNodeRngIsDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    Network net(2);
    net.add_edge(0, 1);
    std::uint64_t observed = 0;
    net.set_behavior(0, [&observed](RoundContext& ctx) {
      observed = ctx.rng()();
      ctx.halt();
    });
    net.set_behavior(1, [](RoundContext& ctx) { ctx.halt(); });
    Rng rng(seed);
    net.run(rng);
    return observed;
  };
  EXPECT_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));
}

// ------------------------------------------------------------- golden --
// Single runs under each fault kind, pinned to values recorded from the
// simulator before its round loop recycled its buffers and derived node
// RNGs lazily. Each run pins every NetworkStats counter, a digest of every
// message a node read, and the run RNG's next word after run(), so a
// change to draw order, halting or accounting fails here even where the
// aggregate checks above still pass.

constexpr std::size_t kGoldenFields = 12;
using GoldenRecord = std::array<std::uint64_t, kGoldenFields>;
constexpr const char* kGoldenNames[kGoldenFields] = {
    "rounds_executed",         "messages_sent",
    "bits_sent",               "messages_delivered",
    "messages_dropped",        "messages_corrupted",
    "messages_delayed",        "messages_lost_to_outage",
    "messages_lost_to_halted", "nodes_crashed",
    "inbox_digest",            "rng_after"};

// Six nodes on a complete graph. Node v runs 5 + v rounds; each round it
// folds its inbox into the digest and sends one three-word message to a
// rotating peer, declared wider than two words so corruption can reach
// every word. Every third round the payload carries a draw from the node's
// RNG; the other rounds never call ctx.rng(). `configure` sets faults and
// may wrap behaviours before they are installed.
GoldenRecord run_chatter(
    std::uint64_t seed,
    const std::function<void(Network&, std::vector<NodeBehavior>&)>&
        configure) {
  constexpr NodeId kNodes = 6;
  Network net(kNodes);
  net.add_complete();
  Fnv64 digest;
  std::vector<NodeBehavior> behaviors;
  for (NodeId v = 0; v < kNodes; ++v) {
    behaviors.emplace_back([&digest, v](RoundContext& ctx) {
      for (const auto& m : ctx.inbox()) {
        digest.u64(ctx.round()).u64(ctx.id()).u64(m.from).u64(m.to);
        digest.u64(m.bit_size).u64(m.payload.size());
        for (const std::uint64_t w : m.payload) digest.u64(w);
      }
      const unsigned r = ctx.round();
      const std::uint64_t word =
          r % 3 == 0 ? ctx.rng()() : 1000ULL * v + r;
      const NodeId to = (v + 1 + r % (kNodes - 1)) % kNodes;
      ctx.send(to, {v, r, word}, 129 + (v + r) % 64);
      if (r + 1 >= 5 + v) ctx.halt();
    });
  }
  configure(net, behaviors);
  for (NodeId v = 0; v < kNodes; ++v) net.set_behavior(v, behaviors[v]);
  Rng rng(seed);
  const NetworkStats s = net.run(rng, 40);
  return {s.rounds_executed,         s.messages_sent,
          s.bits_sent,               s.messages_delivered,
          s.messages_dropped,        s.messages_corrupted,
          s.messages_delayed,        s.messages_lost_to_outage,
          s.messages_lost_to_halted, s.nodes_crashed,
          digest.value(),            rng()};
}

struct GoldenScenario {
  const char* name;
  std::function<void(Network&, std::vector<NodeBehavior>&)> configure;
};

std::vector<GoldenScenario> golden_scenarios() {
  return {
      {"clean", [](Network&, std::vector<NodeBehavior>&) {}},
      {"corruption",
       [](Network& net, std::vector<NodeBehavior>&) {
         LinkFault f;
         f.corrupt_prob = 0.35;
         net.set_default_fault(f);
       }},
      {"delay",
       [](Network& net, std::vector<NodeBehavior>&) {
         LinkFault f;
         f.drop_prob = 0.1;
         f.delay_prob = 0.4;
         f.delay_rounds = 2;
         net.set_default_fault(f);
       }},
      {"outage_burst",
       [](Network& net, std::vector<NodeBehavior>&) {
         LinkFault burst;
         burst.drop_prob = 0.3;
         burst.corrupt_prob = 0.2;
         burst.burst_lo = 2;
         burst.burst_hi = 5;
         net.set_default_fault(burst);
         LinkFault dark;
         dark.outage_lo = 1;
         dark.outage_hi = 4;
         net.set_link_fault(0, 1, dark);
         dark.outage_lo = 0;
         dark.outage_hi = 100;
         net.set_link_fault(2, 3, dark);
       }},
      {"crash",
       [](Network& net, std::vector<NodeBehavior>&) {
         net.set_default_fault({0.2, 0.0});
         net.schedule_crash(2, 3);
         net.schedule_crash(4, 0);
         net.schedule_crash(5, 20);
       }},
      {"byzantine",
       [](Network& net, std::vector<NodeBehavior>& b) {
         net.set_default_fault({0.0, 0.1});
         b[1] = make_byzantine(b[1], ByzantineMode::kRandomBit);
         b[3] = make_byzantine(b[3], ByzantineMode::kAdversarialFlip);
         b[4] = make_byzantine(b[4], ByzantineMode::kStuckAtOne);
         b[5] = make_byzantine(b[5], ByzantineMode::kStuckAtZero);
       }},
  };
}

constexpr GoldenRecord kGoldenChatter[] = {
    // clean
    {10, 45, 6090, 35, 0, 0, 0, 0, 10, 0, 0xe96653b8dc03827fULL,
     0x013549006de5f23dULL},
    // corruption
    {10, 45, 6090, 35, 0, 18, 0, 0, 10, 0, 0x17efe5903886f8e4ULL,
     0x42c2589eed9f71f2ULL},
    // delay
    {10, 45, 6090, 28, 6, 0, 15, 0, 11, 0, 0xbd20ba18a53f3692ULL,
     0xe576228581afafbfULL},
    // outage_burst
    {10, 45, 6090, 30, 4, 2, 0, 2, 9, 0, 0xb7d34e275aaf4d2cULL,
     0x32b3122cc4758b89ULL},
    // crash
    {10, 32, 4315, 10, 7, 0, 0, 0, 15, 2, 0xc7b2ac8fad01473eULL,
     0x50d3550ed09a62b7ULL},
    // byzantine
    {10, 45, 6090, 35, 0, 1, 0, 0, 10, 0, 0x54d48c51e676a930ULL,
     0x1c280ae5d3a6a6d9ULL},
};

TEST(NetworkGolden, SingleRunsUnderEachFaultKindMatchRecordedValues) {
  const auto scenarios = golden_scenarios();
  ASSERT_EQ(scenarios.size(), std::size(kGoldenChatter));
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const GoldenRecord got =
        run_chatter(0xC0FFEE00ULL + i, scenarios[i].configure);
    for (std::size_t f = 0; f < kGoldenFields; ++f) {
      EXPECT_EQ(got[f], kGoldenChatter[i][f])
          << scenarios[i].name << "." << kGoldenNames[f];
    }
  }
}

}  // namespace
}  // namespace duti
