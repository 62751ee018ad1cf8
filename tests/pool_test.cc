#include "resources/pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "resources/buffer_space.h"

// Every heap allocation in this test binary is counted, so a test can pin a
// code path as allocation-free.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfsight {
namespace {

const Duration kTick = Duration::millis(1);

// Steps the pool through `n` ticks with a per-tick consumer action.
template <typename Fn>
void run_ticks(ResourcePool& pool, int n, Fn&& per_tick) {
  SimTime t;
  for (int i = 0; i < n; ++i) {
    pool.step(t, kTick);
    per_tick(i);
    t = t + kTick;
  }
}

TEST(PoolTest, SingleConsumerGetsDemand) {
  ResourcePool pool("cpu", 8.0);  // 8 cores
  auto c = pool.add_consumer({"vm0", 1.0, -1.0});
  double granted = 0;
  run_ticks(pool, 5, [&](int) { granted = pool.request(c, 0.004); });
  EXPECT_NEAR(granted, 0.004, 1e-12);  // 4 cores' worth per ms, available
}

TEST(PoolTest, CapLimitsConsumer) {
  ResourcePool pool("cpu", 8.0);
  auto c = pool.add_consumer({"vm0", 1.0, 1.0});  // 1-vCPU cap
  double granted = 0;
  run_ticks(pool, 5, [&](int) { granted = pool.request(c, 0.004); });
  // Cap = 1 core * 1ms = 0.001 per tick even though the pool is idle.
  EXPECT_NEAR(granted, 0.001, 1e-12);
}

TEST(PoolTest, OversubscriptionConvergesToFairShares) {
  ResourcePool pool("cpu", 2.0);
  auto a = pool.add_consumer({"a", 1.0, -1.0});
  auto b = pool.add_consumer({"b", 1.0, -1.0});
  double ga = 0, gb = 0;
  run_ticks(pool, 20, [&](int) {
    ga = pool.request(a, 0.004);  // both want 4 cores' worth
    gb = pool.request(b, 0.004);
  });
  // 2 cores split evenly: 0.001 each per 1ms tick.
  EXPECT_NEAR(ga, 0.001, 1e-4);
  EXPECT_NEAR(gb, 0.001, 1e-4);
  EXPECT_LE(ga + gb, 0.002 + 1e-9);
}

TEST(PoolTest, WeightsBiasShares) {
  ResourcePool pool("bus", 10.0);
  auto heavy = pool.add_consumer({"hog", 4.0, -1.0});
  auto light = pool.add_consumer({"net", 1.0, -1.0});
  double gh = 0, gl = 0;
  run_ticks(pool, 20, [&](int) {
    gh = pool.request(heavy, 1.0);
    gl = pool.request(light, 1.0);
  });
  EXPECT_NEAR(gh / gl, 4.0, 0.05);
}

TEST(PoolTest, WorkConservingSpareLending) {
  ResourcePool pool("cpu", 2.0);
  auto a = pool.add_consumer({"a", 1.0, -1.0});
  auto b = pool.add_consumer({"b", 1.0, -1.0});
  double ga = 0, gb = 0;
  run_ticks(pool, 20, [&](int) {
    ga = pool.request(a, 0.0001);  // a wants little
    gb = pool.request(b, 0.010);   // b wants lots
  });
  EXPECT_NEAR(ga, 0.0001, 1e-9);
  // b can use the whole remainder of the 0.002 tick capacity.
  EXPECT_NEAR(gb, 0.002 - 0.0001, 1e-4);
}

TEST(PoolTest, UtilizationTracksConsumption) {
  ResourcePool pool("cpu", 4.0);
  auto c = pool.add_consumer({"c", 1.0, -1.0});
  run_ticks(pool, 10, [&](int) { pool.request(c, 0.002); });
  pool.step(SimTime::millis(10), kTick);  // close out last tick
  EXPECT_NEAR(pool.utilization(), 0.5, 1e-6);
}

TEST(PoolTest, DemandAccumulatesAcrossRequestsInTick) {
  ResourcePool pool("cpu", 1.0);
  auto a = pool.add_consumer({"a", 1.0, -1.0});
  auto b = pool.add_consumer({"b", 1.0, -1.0});
  double ga = 0, gb = 0;
  run_ticks(pool, 20, [&](int) {
    ga = pool.request(a, 0.001);
    ga += pool.request(a, 0.001);  // second request, same tick
    gb = pool.request(b, 0.002);
  });
  // Both demand 2x capacity-per-tick; fair split.
  EXPECT_NEAR(ga, 0.0005, 1e-4);
  EXPECT_NEAR(gb, 0.0005, 1e-4);
}

TEST(PoolTest, RatePrevTickReporting) {
  ResourcePool pool("bus", 1000.0);
  auto c = pool.add_consumer({"c", 1.0, -1.0});
  SimTime t;
  pool.step(t, kTick);
  pool.request(c, 0.5);
  pool.step(t + kTick, kTick);
  EXPECT_NEAR(pool.rate_prev_tick(c), 500.0, 1e-6);  // 0.5 units / 1ms
}

// The arbiter's demand, allocation and scratch buffers live in the pool:
// after the first step sizes them, stepping allocates nothing.
TEST(PoolTest, SteadyStateStepDoesNotAllocate) {
  for (PoolPolicy policy : {PoolPolicy::kMaxMin, PoolPolicy::kProportional}) {
    ResourcePool pool("cpu", 4.0, policy);
    std::vector<ResourcePool::ConsumerId> ids;
    for (int i = 0; i < 12; ++i) {
      ids.push_back(pool.add_consumer(
          {"c" + std::to_string(i), 1.0 + i % 3, i % 4 == 0 ? 0.5 : -1.0}));
    }
    SimTime t;
    pool.step(t, kTick);
    const uint64_t before = g_allocations.load();
    for (int tick = 0; tick < 1000; ++tick) {
      for (size_t i = 0; i < ids.size(); ++i) {
        pool.request(ids[i], 0.0001 * static_cast<double>((tick + i) % 7));
      }
      t = t + kTick;
      pool.step(t, kTick);
    }
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << "policy " << static_cast<int>(policy);
  }
}

TEST(BufferSpaceTest, NoPressureFullAllowance) {
  BufferSpace bs(1000000);
  auto a = bs.add_owner(300000);
  auto b = bs.add_owner(300000);
  EXPECT_EQ(bs.allowance(a), 300000u);
  EXPECT_EQ(bs.allowance(b), 300000u);
}

TEST(BufferSpaceTest, PressureScalesProportionally) {
  BufferSpace bs(1000000);
  auto a = bs.add_owner(600000);
  auto b = bs.add_owner(600000);
  bs.set_pressure_bytes(400000);  // only 600000 left for 1200000 desired
  EXPECT_EQ(bs.allowance(a), 300000u);
  EXPECT_EQ(bs.allowance(b), 300000u);
}

TEST(BufferSpaceTest, AllowanceNeverBelowFloor) {
  BufferSpace bs(1000000);
  auto a = bs.add_owner(500000);
  bs.set_pressure_bytes(999999);
  EXPECT_GE(bs.allowance(a), 2048u);
}

}  // namespace
}  // namespace perfsight
