/**
 * @file
 * Persistent work-sharing thread pool for the per-quantum hot path.
 *
 * Every decision quantum used to spawn and join ~4 fresh std::thread
 * fleets (three SGD reconstructions plus parallel DDS) — thousands of
 * spawns per experiment. The pool keeps a fixed set of workers alive
 * for the process lifetime and hands them fork-join parallel regions.
 *
 * parallelFor(n, fn) runs fn(0) .. fn(n-1) with the *caller
 * participating*: the caller claims indices from the same atomic
 * counter the workers do, so a parallelFor issued from inside another
 * parallelFor task (nested parallelism — the runtime reconstructs
 * three matrices concurrently and each reconstruction is itself
 * parallel) always makes progress even when every pool worker is
 * busy. The caller can finish the whole region alone, so the pool is
 * deadlock-free by construction regardless of its size.
 *
 * Steady-state regions are heap-free: the callable is passed as a
 * non-owning (invoke-pointer, context) pair — the callable outlives
 * the region because parallelFor blocks until it completes — and the
 * per-region Batch records come from a fixed table built with the
 * pool and are recycled by reference count instead of allocated per
 * call.
 *
 * Waiting is spin-then-park. Back-to-back regions (40 DDS rounds of
 * ~4 us tasks per decision) would otherwise pay a futex sleep/wake
 * round trip per region on both sides, which costs more than the
 * work. An idle worker first spins on the posted-region counter for
 * kSpinIterations pauses (about one futex wake round trip) and joins
 * a newly posted region without touching the pool mutex; only then
 * does it park on the condition variable. The caller likewise spins
 * on the region's completion count before sleeping on it. A pool with
 * more workers than hardware threads does not spin at all.
 */

#ifndef CUTTLESYS_COMMON_THREAD_POOL_HH
#define CUTTLESYS_COMMON_THREAD_POOL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/sync.hh"

namespace cuttlesys {

/** Fixed-size pool of persistent worker threads. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 falls back to the hardware. */
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker threads owned by the pool (callers come on top). */
    std::size_t size() const { return workers_.size(); }

    /**
     * Run fn(i) for i in [0, n), distributing indices over the pool
     * workers and the calling thread; returns once every invocation
     * completed. The first exception thrown by any invocation is
     * rethrown on the caller. Reentrant: fn may itself call
     * parallelFor on the same pool. The callable is borrowed, not
     * copied — no type erasure, no allocation.
     */
    template <typename Fn>
    void
    parallelFor(std::size_t n, Fn &&fn)
    {
        using Decayed = std::remove_reference_t<Fn>;
        parallelForTask(
            n,
            TaskRef{[](void *ctx, std::size_t i) {
                        (*static_cast<Decayed *>(ctx))(i);
                    },
                    const_cast<std::remove_const_t<Decayed> *>(
                        std::addressof(fn))});
    }

    /**
     * Run fn(block, begin, end) over [0, n) split into fixed-size
     * chunks of @p chunk indices. The decomposition depends only on
     * n and chunk — never on the pool width — so per-block partial
     * results (and any reduction that combines them in block order)
     * are bitwise identical at any CS_POOL_THREADS. This is the
     * building block of the fleet controller's deterministic
     * parallel phases (DESIGN.md §12).
     */
    template <typename Fn>
    void
    parallelChunks(std::size_t n, std::size_t chunk, Fn &&fn)
    {
        if (n == 0)
            return;
        const std::size_t blocks = (n + chunk - 1) / chunk;
        auto body = [&fn, n, chunk](std::size_t b) {
            const std::size_t begin = b * chunk;
            const std::size_t end = std::min(n, begin + chunk);
            fn(b, begin, end);
        };
        parallelFor(blocks, body);
    }

    /**
     * This thread's worker slot: 0 for any thread outside the pool
     * (including a parallelFor caller, which participates in its own
     * regions), 1..size() for the pool workers. Slots are distinct
     * per OS thread, so indexing per-slot scratch (e.g. a
     * WorkerArenaSet sized to slotCount()) is race-free even with
     * nested parallel regions.
     */
    static std::size_t currentSlot();

    /** Distinct worker-slot values handed out: workers + caller. */
    std::size_t slotCount() const { return workers_.size() + 1; }

    /**
     * The process-wide pool used by the SGD reconstruction, parallel
     * DDS and the runtime. Sized to the hardware (at least 2 workers
     * so parallel code paths are exercised even on one core);
     * override with the CS_POOL_THREADS environment variable.
     */
    static ThreadPool &global();

  private:
    /** Non-owning view of the region's callable. */
    struct TaskRef
    {
        void (*invoke)(void *ctx, std::size_t i) = nullptr;
        void *ctx = nullptr;
    };

    /** Shared state of one parallelFor region. */
    struct Batch;

    void parallelForTask(std::size_t n, TaskRef task);
    void workerLoop();
    void spinForRegions(std::uint64_t seen);
    void joinHotRegion();
    void wakeChain();
    bool takeSleeper() CS_REQUIRES(mutex_);
    void runClaimed(Batch &batch, std::size_t i);
    static void runIndex(Batch &batch, std::size_t i, std::size_t n);
    Batch *acquireBatch() CS_REQUIRES(mutex_);

    Mutex mutex_;
    CondVar cv_;
    /** FIFO of active regions; head index instead of pop_front so the
     *  buffer's capacity is reused across quanta. */
    std::vector<Batch *> queue_ CS_GUARDED_BY(mutex_);
    std::size_t queueHead_ CS_GUARDED_BY(mutex_) = 0;
    /** Fixed table of region records (see acquireBatch). */
    std::unique_ptr<Batch[]> batches_;
    std::vector<std::thread> workers_;
    /** Pauses an idle thread spins before it sleeps (spinBound). */
    std::size_t spinLimit_ = 0;
    bool stop_ CS_GUARDED_BY(mutex_) = false;
    /**
     * Workers asleep on cv_, and wakes sent to them that no sleeper
     * has consumed yet (takeSleeper). Both change only under mutex_,
     * so a poster deciding under the lock never misses a sleeper; the
     * wake chain reads them lock-free first, as a hint.
     */
    std::atomic<std::size_t> parked_{0};
    std::atomic<std::size_t> wakesInFlight_{0};
    /**
     * Regions posted so far, and the record of the latest one (kept
     * after it retires until the record is recycled). Written only
     * under mutex_; spinning workers read both lock-free. A line of
     * their own keeps the spinners' polling off the lines the mutex
     * and queue writes dirty.
     */
    alignas(64) std::atomic<std::uint64_t> posted_{0};
    std::atomic<Batch *> hot_{nullptr};
};

} // namespace cuttlesys

#endif // CUTTLESYS_COMMON_THREAD_POOL_HH
