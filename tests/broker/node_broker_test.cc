// NodeBroker unit tests: the shared memory ledger across session views,
// per-tenant quotas, launch admission control, weighted fair-share
// arbitration, the shared kernel-rate table, and shutdown semantics.
// Everything here drives the broker directly — no transport, no sessions.
#include "broker/node_broker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace haocl::broker {
namespace {

TEST(NodeBrokerTest, LedgersShareOneCapacity) {
  NodeBroker broker(/*mem_capacity_bytes=*/1000);
  runtime::MemoryLedger* a = broker.LedgerFor(1);
  runtime::MemoryLedger* b = broker.LedgerFor(2);

  ASSERT_TRUE(a->Reserve(/*buffer=*/10, 0, 700).ok());
  EXPECT_EQ(broker.resident_bytes(), 700u);
  EXPECT_EQ(a->resident_bytes(), 700u);
  EXPECT_EQ(b->resident_bytes(), 0u);

  // The second tenant sees the FIRST tenant's consumption: 400 more do
  // not fit in the 300 that remain, even though b itself holds nothing.
  Status over = b->Reserve(20, 0, 400);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), ErrorCode::kMemObjectAllocationFailure);
  EXPECT_EQ(broker.resident_bytes(), 700u);  // Failed reserve charged 0.

  ASSERT_TRUE(b->Reserve(20, 0, 300).ok());
  EXPECT_EQ(broker.resident_bytes(), 1000u);
  EXPECT_EQ(broker.resident_bytes_of(2), 300u);

  // Releasing tenant a's buffer frees the node for tenant b.
  EXPECT_EQ(a->ReleaseBuffer(10), 700u);
  EXPECT_EQ(broker.resident_bytes(), 300u);
  ASSERT_TRUE(b->Reserve(21, 0, 400).ok());
  EXPECT_EQ(broker.resident_bytes(), 700u);
}

TEST(NodeBrokerTest, OverlappingRangesChargeOnce) {
  NodeBroker broker(1000);
  runtime::MemoryLedger* a = broker.LedgerFor(1);
  ASSERT_TRUE(a->Reserve(1, 0, 600).ok());
  // Re-reserving a resident range is free, so it succeeds even though a
  // fresh 600 would not fit next to the existing 600.
  ASSERT_TRUE(a->Reserve(1, 100, 500).ok());
  EXPECT_EQ(broker.resident_bytes(), 600u);
  // Extending charges only the new bytes.
  ASSERT_TRUE(a->Reserve(1, 500, 900).ok());
  EXPECT_EQ(broker.resident_bytes(), 900u);
}

TEST(NodeBrokerTest, TenantQuotaCapsBelowNodeCapacity) {
  NodeBroker broker(10000);
  TenantConfig config;
  config.name = "capped";
  config.mem_quota_bytes = 500;
  broker.RegisterTenant(7, config);
  runtime::MemoryLedger* capped = broker.LedgerFor(7);

  Status over = capped->Reserve(1, 0, 600);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), ErrorCode::kMemObjectAllocationFailure);

  ASSERT_TRUE(capped->Reserve(1, 0, 400).ok());
  EXPECT_FALSE(capped->Reserve(2, 0, 200).ok());  // 400 + 200 > 500.
  ASSERT_TRUE(capped->Reserve(2, 0, 100).ok());

  // An unquota'd tenant still has the rest of the device.
  runtime::MemoryLedger* free_rider = broker.LedgerFor(8);
  ASSERT_TRUE(free_rider->Reserve(3, 0, 9000).ok());
  EXPECT_EQ(broker.resident_bytes(), 9500u);
}

TEST(NodeBrokerTest, UnregisterReturnsResidentBytesToTheNode) {
  NodeBroker broker(1000);
  ASSERT_TRUE(broker.LedgerFor(1)->Reserve(1, 0, 800).ok());
  runtime::MemoryLedger* b = broker.LedgerFor(2);
  ASSERT_FALSE(b->Reserve(2, 0, 800).ok());
  broker.UnregisterTenant(1);
  EXPECT_EQ(broker.resident_bytes(), 0u);
  ASSERT_TRUE(b->Reserve(2, 0, 800).ok());
}

TEST(NodeBrokerTest, AdmissionControlRejectsOverShareBacklog) {
  BrokerLimits limits;
  limits.max_backlog_seconds = 5.0;
  NodeBroker broker(0, limits);

  // 4s of admitted backlog fits the 5s budget.
  auto first = broker.AcquireLaunchSlot(1, 4.0);
  ASSERT_TRUE(first.ok());
  EXPECT_NEAR(broker.backlog_seconds(), 4.0, 1e-12);

  // The same tenant's next 2s would push the node to 6s > 5s, and the
  // tenant (alone, so its share is the whole budget) past its share:
  // rejected WITHOUT blocking.
  auto rejected = broker.AcquireLaunchSlot(1, 2.0);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kBackpressure);
  EXPECT_EQ(broker.StatsFor(1).launches_rejected, 1u);
  EXPECT_NEAR(broker.backlog_seconds(), 4.0, 1e-12);  // Not charged.

  // Completion refunds the backlog; the retry is admitted.
  broker.CompleteLaunch(1, *first, /*success=*/true, 4.0, "k", 0.0);
  auto retried = broker.AcquireLaunchSlot(1, 2.0);
  ASSERT_TRUE(retried.ok());
  broker.CompleteLaunch(1, *retried, true, 2.0, "k", 0.0);
  EXPECT_NEAR(broker.backlog_seconds(), 0.0, 1e-12);
  EXPECT_EQ(broker.StatsFor(1).launches_admitted, 2u);
}

TEST(NodeBrokerTest, WeightedFairQueuingServesLightBeforeHogBacklog) {
  NodeBroker broker(0);
  TenantConfig hog;
  hog.name = "hog";
  hog.weight = 1.0;
  broker.RegisterTenant(1, hog);
  TenantConfig light;
  light.name = "light";
  light.weight = 10.0;
  broker.RegisterTenant(2, light);

  // Occupy the gate so subsequent acquires queue up as waiters.
  auto gate = broker.AcquireLaunchSlot(99, 1.0);
  ASSERT_TRUE(gate.ok());

  std::mutex order_mutex;
  std::vector<int> order;
  auto serve = [&broker, &order_mutex, &order](std::uint64_t session,
                                               int tag) {
    auto grant = broker.AcquireLaunchSlot(session, 10.0);
    ASSERT_TRUE(grant.ok());
    {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    }
    broker.CompleteLaunch(session, *grant, true, 10.0, "k", 0.0);
  };

  // Enqueue, in arrival order: hog #1, hog #2, then light. Polling the
  // backlog between spawns pins the arrival order without sleeping.
  std::thread hog1(serve, 1, 101);
  while (broker.backlog_seconds_of(1) < 10.0) std::this_thread::yield();
  std::thread hog2(serve, 1, 102);
  while (broker.backlog_seconds_of(1) < 20.0) std::this_thread::yield();
  std::thread light1(serve, 2, 201);
  while (broker.backlog_seconds_of(2) < 10.0) std::this_thread::yield();

  // Tags: hog #1 starts at virtual time 0 and finishes at 10/1; hog #2
  // therefore starts at 10 and finishes at 20. The light tenant also
  // starts at 0 but finishes at 10/10 = 1, the smallest finish tag, so
  // the fair order is light, hog #1, hog #2 — the light launch overtakes
  // the hog's whole queued backlog.
  broker.CompleteLaunch(99, *gate, true, 1.0, "k", 0.0);
  hog1.join();
  hog2.join();
  light1.join();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 201);
  EXPECT_EQ(order[1], 101);
  EXPECT_EQ(order[2], 102);
}

TEST(NodeBrokerTest, OneInFlightLightTenantIsServedEveryTimeItWaits) {
  // The regime of real sessions: each tenant keeps ONE launch in flight
  // and re-arrives only after its own launch completed, i.e. after the
  // gate already picked the next launch without it. Four weight-1 hogs
  // and one weight-10 light tenant, equal predictions; every holder is
  // back at the gate before the next pick. The light tenant must win
  // every pick it waits for, so the hogs alternate with it instead of
  // taking several slots in a row.
  NodeBroker broker(0);
  constexpr std::uint64_t kLight = 5;
  for (std::uint64_t session = 1; session < kLight; ++session) {
    broker.RegisterTenant(session, {"hog", 1.0, 0});
  }
  broker.RegisterTenant(kLight, {"light", 10.0, 0});

  std::mutex mutex;
  std::condition_variable changed;
  std::vector<std::uint64_t> order;  // Session of each grant, in order.
  std::size_t released = 0;  // Grant i may complete once released > i.
  std::size_t returned = 0;  // Its holder may re-arrive once returned > i.
  bool stop = false;
  auto tenant = [&](std::uint64_t session) {
    while (true) {
      auto grant = broker.AcquireLaunchSlot(session, 1.0);
      if (!grant.ok()) return;  // Shut down.
      std::unique_lock<std::mutex> lock(mutex);
      const std::size_t index = order.size();
      order.push_back(session);
      changed.notify_all();
      changed.wait(lock, [&] { return stop || released > index; });
      lock.unlock();
      broker.CompleteLaunch(session, *grant, true, 1.0, "k", 0.0);
      lock.lock();
      changed.wait(lock, [&] { return stop || returned > index; });
      if (stop) return;
    }
  };

  // Queue all five behind a held gate, so the first pick sees everyone.
  auto gate = broker.AcquireLaunchSlot(99, 1.0);
  ASSERT_TRUE(gate.ok());
  std::vector<std::thread> threads;
  for (std::uint64_t session = 1; session <= kLight; ++session) {
    threads.emplace_back(tenant, session);
    while (broker.backlog_seconds_of(session) < 1.0) {
      std::this_thread::yield();
    }
  }
  broker.CompleteLaunch(99, *gate, true, 1.0, "k", 0.0);

  constexpr std::size_t kGrants = 40;
  for (std::size_t i = 0; i + 1 < kGrants; ++i) {
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] { return order.size() > i; });
    const std::uint64_t holder = order[i];
    released = i + 1;  // Complete grant i: the gate picks grant i + 1.
    changed.notify_all();
    changed.wait(lock, [&] { return order.size() > i + 1; });
    returned = i + 1;  // Only now does grant i's holder re-arrive.
    changed.notify_all();
    lock.unlock();
    while (broker.backlog_seconds_of(holder) < 1.0) {
      std::this_thread::yield();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    stop = true;
  }
  changed.notify_all();
  broker.Shutdown();
  for (auto& thread : threads) thread.join();

  ASSERT_GE(order.size(), kGrants);
  EXPECT_EQ(order[0], kLight);
  std::vector<int> hog_grants(kLight - 1, 0);
  for (std::size_t i = 1; i < kGrants; ++i) {
    EXPECT_TRUE(order[i - 1] == kLight || order[i] == kLight)
        << "grants " << i - 1 << " and " << i << " both went to hogs";
    if (order[i] != kLight) ++hog_grants[order[i] - 1];
  }
  // Work-conserving and fair among the hogs: they share the other slots.
  for (std::uint64_t session = 1; session < kLight; ++session) {
    EXPECT_EQ(hog_grants[session - 1], static_cast<int>(kGrants / 8))
        << "hog " << session;
  }
}

TEST(NodeBrokerTest, ServedWorkTracksWeightsUnderSaturation) {
  // Throughput-level fairness: a 10:1 weight pair, both saturated with
  // FOUR concurrent submitters each (so each tenant always has waiters
  // at the gate — the regime where weighted fair queuing, not arrival
  // timing, decides every slot). Served launches must land within 2x of
  // the 10:1 weight ratio.
  NodeBroker broker(0);
  broker.RegisterTenant(1, {"hog", 1.0, 0});
  broker.RegisterTenant(2, {"light", 10.0, 0});

  constexpr int kLightTarget = 200;
  std::atomic<int> light_completed{0};
  std::atomic<int> hog_completed{0};
  std::atomic<bool> stop{false};
  auto pump = [&broker, &stop](std::uint64_t session,
                               std::atomic<int>& completed) {
    while (!stop.load()) {
      auto grant = broker.AcquireLaunchSlot(session, 1.0);
      if (!grant.ok()) return;  // Only on shutdown.
      // Occupy the slot for real: while the holder sleeps, every other
      // thread re-reaches the gate, so each completion arbitrates over a
      // FULL waiter set (with zero-length service, OS scheduling quanta
      // — not the arbiter — would decide who even shows up).
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      broker.CompleteLaunch(session, *grant, true, 1.0, "k", 0.0);
      completed.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back(pump, 1, std::ref(hog_completed));
    threads.emplace_back(pump, 2, std::ref(light_completed));
  }
  while (light_completed.load() < kLightTarget) std::this_thread::yield();
  stop.store(true);
  for (auto& thread : threads) thread.join();

  // Expected hog share: kLightTarget / 10 = 20. Allow 2x either way,
  // plus the <= 8 in-flight completions racing the stop flag.
  const int hog = hog_completed.load();
  EXPECT_LE(hog, 2 * kLightTarget / 10 + 8)
      << "hog overtook its fair share: " << hog << " vs light "
      << light_completed.load();
  EXPECT_GE(hog, kLightTarget / 10 / 2)
      << "hog starved below its fair share: " << hog;
}

TEST(NodeBrokerTest, FifoArbitrationServesArrivalOrder) {
  BrokerLimits limits;
  limits.arbitration = BrokerLimits::Arbitration::kFifo;
  NodeBroker broker(0, limits);
  broker.RegisterTenant(1, {"hog", 1.0, 0});
  broker.RegisterTenant(2, {"light", 10.0, 0});

  auto gate = broker.AcquireLaunchSlot(99, 1.0);
  ASSERT_TRUE(gate.ok());

  std::mutex order_mutex;
  std::vector<int> order;
  auto serve = [&](std::uint64_t session, int tag) {
    auto grant = broker.AcquireLaunchSlot(session, 10.0);
    ASSERT_TRUE(grant.ok());
    {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    }
    broker.CompleteLaunch(session, *grant, true, 10.0, "k", 0.0);
  };
  std::thread hog1(serve, 1, 101);
  while (broker.backlog_seconds_of(1) < 10.0) std::this_thread::yield();
  std::thread hog2(serve, 1, 102);
  while (broker.backlog_seconds_of(1) < 20.0) std::this_thread::yield();
  std::thread light1(serve, 2, 201);
  while (broker.backlog_seconds_of(2) < 10.0) std::this_thread::yield();

  // FIFO: weights do not matter; the light launch waits out the hog's
  // whole backlog — the starvation BENCH_tenancy quantifies.
  broker.CompleteLaunch(99, *gate, true, 1.0, "k", 0.0);
  hog1.join();
  hog2.join();
  light1.join();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 101);
  EXPECT_EQ(order[1], 102);
  EXPECT_EQ(order[2], 201);
}

TEST(NodeBrokerTest, SharedRateTableFoldsAllSessions) {
  NodeBroker broker(0);
  auto grant = broker.AcquireLaunchSlot(1, 0.5);
  ASSERT_TRUE(grant.ok());
  broker.CompleteLaunch(1, *grant, true, /*modeled_seconds=*/2.0, "matmul",
                        /*flops=*/1e9);

  // A DIFFERENT session reads the rate session 1 observed.
  auto rates = broker.KernelRates();
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_EQ(rates[0].kernel, "matmul");
  EXPECT_EQ(rates[0].samples, 1u);
  EXPECT_NEAR(rates[0].seconds_per_flop, 2e-9, 1e-15);

  // Failed launches contribute nothing.
  auto failed = broker.AcquireLaunchSlot(2, 0.5);
  ASSERT_TRUE(failed.ok());
  broker.CompleteLaunch(2, *failed, /*success=*/false, 9.0, "matmul", 1e9);
  EXPECT_EQ(broker.KernelRates()[0].samples, 1u);
  EXPECT_EQ(broker.kernels_completed(), 1u);
}

TEST(NodeBrokerTest, ShutdownWakesBlockedWaiters) {
  NodeBroker broker(0);
  auto gate = broker.AcquireLaunchSlot(1, 1.0);
  ASSERT_TRUE(gate.ok());

  std::atomic<bool> woke{false};
  Status waiter_status = Status::Ok();
  std::thread waiter([&] {
    auto blocked = broker.AcquireLaunchSlot(2, 1.0);
    waiter_status = blocked.ok() ? Status::Ok() : blocked.status();
    woke = true;
  });
  while (broker.backlog_seconds_of(2) < 1.0) std::this_thread::yield();
  EXPECT_FALSE(woke.load());

  broker.Shutdown();
  waiter.join();
  EXPECT_EQ(waiter_status.code(), ErrorCode::kDeviceNotAvailable);
  // The aborted waiter's backlog charge was refunded.
  EXPECT_NEAR(broker.backlog_seconds_of(2), 0.0, 1e-12);
  // Post-shutdown acquires fail immediately.
  EXPECT_FALSE(broker.AcquireLaunchSlot(3, 1.0).ok());
}

}  // namespace
}  // namespace haocl::broker
