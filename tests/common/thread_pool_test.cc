/**
 * @file
 * Tests for the persistent work-sharing thread pool.
 *
 * The properties the runtime depends on: every index runs exactly
 * once, the same pool (and threads) can be reused across many
 * parallelFor calls, nested regions complete without deadlock (the
 * caller participates in its own region), and exceptions propagate to
 * the caller. The spin-then-park cases drive regions back to back
 * (workers still spinning) and after idle gaps far longer than the
 * spin window (workers parked).
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/sync.hh"
#include "common/thread_pool.hh"

namespace cuttlesys {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ReusedAcrossManyCallsWithoutSpawning)
{
    // The point of the pool: per-call cost must not include thread
    // creation. Collect the set of thread ids across many regions —
    // it must stay bounded by pool size + caller.
    ThreadPool pool(3);
    Mutex mu;
    std::set<std::thread::id> ids;
    for (int call = 0; call < 50; ++call) {
        pool.parallelFor(16, [&](std::size_t) {
            LockGuard lock(mu);
            ids.insert(std::this_thread::get_id());
        });
    }
    EXPECT_LE(ids.size(), pool.size() + 1);
}

TEST(ThreadPoolTest, ZeroThreadRequestFallsBackToHardware)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.size(), 2u);
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(10, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPoolTest, NestedRegionsComplete)
{
    // The runtime nests: parallelFor(3 metrics) whose bodies call
    // parallelFor(SGD workers) on the same pool. Work-sharing makes
    // this deadlock-free — each caller can finish its region alone.
    ThreadPool pool(2);
    std::atomic<std::size_t> leaf{0};
    pool.parallelFor(3, [&](std::size_t) {
        pool.parallelFor(4, [&](std::size_t) { leaf.fetch_add(1); });
    });
    EXPECT_EQ(leaf.load(), 12u);
}

TEST(ThreadPoolTest, HandlesZeroAndSingleElementRegions)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.parallelFor(0, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    pool.parallelFor(1, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, PropagatesExceptionsToCaller)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallelFor(8,
                         [&](std::size_t i) {
                             if (i == 3)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool survives a throwing region.
    std::atomic<int> ok{0};
    pool.parallelFor(4, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPoolTest, GlobalPoolIsASingleton)
{
    ThreadPool &a = ThreadPool::global();
    ThreadPool &b = ThreadPool::global();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.size(), 1u);
}

TEST(ThreadPoolTest, ConcurrentSubmittersShareThePool)
{
    // Two external threads submitting regions to one pool must both
    // complete (the queue serves batches FIFO; callers work-share).
    ThreadPool pool(2);
    std::atomic<std::size_t> total{0};
    auto submit = [&] {
        for (int i = 0; i < 20; ++i) {
            pool.parallelFor(32, [&](std::size_t) {
                total.fetch_add(1);
            });
        }
    };
    std::thread t1(submit), t2(submit);
    t1.join();
    t2.join();
    EXPECT_EQ(total.load(), 2u * 20u * 32u);
}

/** A few hundred ns of work per unit, invisible to the optimizer. */
void
spinWork(std::size_t units)
{
    std::atomic<std::size_t> sink{0};
    for (std::size_t u = 0; u < units * 64; ++u)
        sink.fetch_add(u, std::memory_order_relaxed);
}

TEST(ThreadPoolSpinTest, BackToBackUnevenRegionsRunEveryIndexOnce)
{
    // 100k regions with no gap between them keep the workers in the
    // spin phase, joining regions through the lock-free path while
    // the caller recycles the same few records.
    ThreadPool pool(3);
    constexpr std::size_t kRegions = 100'000;
    constexpr std::size_t kTasks = 8;
    std::array<std::atomic<int>, kTasks> hits{};
    std::size_t bad = 0;
    for (std::size_t r = 0; r < kRegions; ++r) {
        for (auto &h : hits)
            h.store(0, std::memory_order_relaxed);
        pool.parallelFor(kTasks, [&](std::size_t i) {
            // Uneven: a few tasks per region are much longer.
            spinWork((i + r) % kTasks == 0 ? 8 : (i % 3));
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto &h : hits)
            bad += h.load(std::memory_order_relaxed) != 1 ? 1 : 0;
    }
    EXPECT_EQ(bad, 0u);
}

TEST(ThreadPoolSpinTest, RegionAfterIdleGapWakesAParkedWorker)
{
    // After a gap far longer than the spin window every worker has
    // parked. Index 0 then waits for index 1 to run on another thread,
    // so the region finishes in time only if posting it woke a parked
    // worker: a lost wake-up leaves index 0 to time out.
    ThreadPool pool(2);
    for (int round = 0; round < 20; ++round) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        std::atomic<bool> partnerRan{false};
        std::atomic<bool> timedOut{false};
        pool.parallelFor(2, [&](std::size_t i) {
            if (i == 1) {
                partnerRan.store(true);
                return;
            }
            // Give up after ~5 s of 1 ms naps.
            for (int nap = 0; !partnerRan.load(); ++nap) {
                if (nap == 5000) {
                    timedOut.store(true);
                    return;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
        ASSERT_FALSE(timedOut.load()) << "round " << round;
    }
}

TEST(ThreadPoolSpinTest, NestedRegionWhileOthersSpin)
{
    // Each outer region is posted the moment the previous one retires,
    // so idle workers are mid-spin when the outer tasks post their
    // inner regions; spinners then join the newest region while
    // older ones still run.
    ThreadPool pool(4);
    std::atomic<std::size_t> leaf{0};
    for (int r = 0; r < 2000; ++r) {
        pool.parallelFor(3, [&](std::size_t) {
            pool.parallelFor(6, [&](std::size_t j) {
                spinWork(j % 2);
                leaf.fetch_add(1, std::memory_order_relaxed);
            });
        });
    }
    EXPECT_EQ(leaf.load(), 2000u * 3u * 6u);
}

TEST(ThreadPoolSpinTest, ExceptionAfterSpinPhasePropagates)
{
    ThreadPool pool(3);
    std::atomic<std::size_t> count{0};
    for (int r = 0; r < 1000; ++r)
        pool.parallelFor(8, [&](std::size_t) { count.fetch_add(1); });
    // Workers are spinning now; whoever claims index 3 throws.
    EXPECT_THROW(pool.parallelFor(8,
                                  [&](std::size_t i) {
                                      spinWork(4);
                                      if (i == 3)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // A throw from a parked-then-woken worker propagates too.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_THROW(pool.parallelFor(8,
                                  [&](std::size_t i) {
                                      spinWork(4);
                                      if (i == 6)
                                          throw std::runtime_error("late");
                                  }),
                 std::runtime_error);
    pool.parallelFor(8, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1000u * 8u + 8u);
}

} // namespace
} // namespace cuttlesys
