// Round-engine contract of Network::run: a run allocates its buffers once,
// so rounds in which no node sends allocate nothing, and each node's RNG is
// derived lazily from a run-RNG word that is drawn for every active node
// every round whether or not the behaviour uses it.
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

// --- Global allocation counter ---------------------------------------------
// Replaces the global allocation functions so the tests can count every
// heap allocation made inside Network::run, aligned variants included.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a =
      std::max(sizeof(void*), static_cast<std::size_t>(align));
  if (posix_memalign(&p, a, size ? size : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace duti {
namespace {

/// Allocations made by one `net.run(rng, max_rounds)` call.
std::uint64_t allocs_of_run(Network& net, unsigned max_rounds) {
  Rng rng(77);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const NetworkStats stats = net.run(rng, max_rounds);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(stats.rounds_executed, max_rounds);
  return after - before;
}

TEST(RoundEngine, IdleRoundsAllocateNothing) {
  // Eight never-halting nodes that read the inbox and the node RNG but
  // never send: 1000 rounds must cost exactly what 10 rounds cost.
  Network net(8);
  net.add_complete();
  net.set_default_fault({0.1, 0.1});
  net.schedule_crash(3, 5);
  std::uint64_t sink = 0;
  for (NodeId v = 0; v < 8; ++v) {
    net.set_behavior(v, [&sink](RoundContext& ctx) {
      sink += ctx.inbox().size();
      if (ctx.round() % 2 == 0) sink ^= ctx.rng()();
    });
  }
  (void)allocs_of_run(net, 10);  // the thread's run buffers warm up
  const std::uint64_t short_run = allocs_of_run(net, 10);
  const std::uint64_t long_run = allocs_of_run(net, 1000);
  EXPECT_EQ(long_run, short_run);
}

TEST(RoundEngine, RoundsAfterTrafficStopsAllocateNothing) {
  // Every node sends once in round 0, including along faulty and delayed
  // links; once that traffic has drained, further rounds allocate nothing.
  Network net(6);
  net.add_complete();
  LinkFault f;
  f.drop_prob = 0.2;
  f.delay_prob = 0.5;
  f.delay_rounds = 3;
  net.set_default_fault(f);
  for (NodeId v = 0; v < 6; ++v) {
    net.set_behavior(v, [](RoundContext& ctx) {
      if (ctx.round() == 0) {
        for (NodeId u = 0; u < 6; ++u) {
          if (u != ctx.id()) ctx.send(u, {ctx.id(), u}, 16);
        }
      }
    });
  }
  (void)allocs_of_run(net, 10);  // the thread's run buffers warm up
  const std::uint64_t short_run = allocs_of_run(net, 10);
  const std::uint64_t long_run = allocs_of_run(net, 1000);
  EXPECT_EQ(long_run, short_run);
}

/// Run `k` nodes for `rounds` rounds; node v halts after round halt_at[v].
/// Returns the run RNG's state after the run. With `draw`, every node
/// records the first word of ctx.rng() in every round into `seen`.
Rng::State run_and_record(const std::vector<unsigned>& halt_at,
                          unsigned rounds, bool draw,
                          std::vector<std::vector<std::uint64_t>>* seen) {
  const auto k = static_cast<NodeId>(halt_at.size());
  Network net(k);
  for (NodeId v = 0; v < k; ++v) {
    net.set_behavior(v, [&halt_at, draw, seen](RoundContext& ctx) {
      if (draw) (*seen)[ctx.id()].push_back(ctx.rng()());
      if (ctx.round() >= halt_at[ctx.id()]) ctx.halt();
    });
  }
  Rng rng(2024);
  net.run(rng, rounds);
  return rng.state();
}

TEST(RoundEngine, NodeRngIsMakeRngOfTheRunWordAndStreamOrderIsFixed) {
  const std::vector<unsigned> halt_at{3, 0, 7, 5};
  const unsigned rounds = 6;
  std::vector<std::vector<std::uint64_t>> seen(halt_at.size());
  const Rng::State with_draws = run_and_record(halt_at, rounds, true, &seen);

  // Replay the contract by hand: each round, one run-RNG word per active
  // node in id order; the node's RNG is make_rng(word, v, round).
  Rng run(2024);
  std::vector<std::vector<std::uint64_t>> expected(halt_at.size());
  for (unsigned round = 0; round < rounds; ++round) {
    for (NodeId v = 0; v < halt_at.size(); ++v) {
      if (round > halt_at[v]) continue;  // halted after halt_at[v]
      const std::uint64_t word = run();
      expected[v].push_back(make_rng(word, v, round)());
    }
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(with_draws, run.state());

  // The run RNG's exit state does not depend on whether behaviours call
  // ctx.rng(): the word is drawn either way.
  const Rng::State without_draws =
      run_and_record(halt_at, rounds, false, nullptr);
  EXPECT_EQ(without_draws, with_draws);
}

}  // namespace
}  // namespace duti
