#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "common/sync.hh"

namespace cuttlesys {

namespace {

/** Free-list capacity; reserved up front so retiring never allocates. */
constexpr std::size_t kMaxFreeBatches = 64;

/** This thread's worker slot; 0 for every non-pool thread. */
// Per-thread identity is the one legitimate thread_local in the tree:
// it is written once at worker startup and only ever read by its own
// thread. cslint: allow(mutable-static)
thread_local std::size_t tls_worker_slot = 0;

} // namespace

struct ThreadPool::Batch
{
    TaskRef task;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};  //!< next index to claim
    std::atomic<std::size_t> done{0};  //!< completed invocations
    Mutex doneMutex;
    CondVar doneCv;
    /** First failure, if any. */
    std::exception_ptr error CS_GUARDED_BY(doneMutex);
};

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0) {
        threads = std::max(2u, std::thread::hardware_concurrency());
    }
    queue_.reserve(kMaxFreeBatches);
    freeBatches_.reserve(kMaxFreeBatches);
    // Populate the free list up front: whether a record is reusable
    // at acquire time depends on straggler workers still holding a
    // reference to the previous region's batch, so growing the list
    // lazily would allocate at schedule-dependent moments — exactly
    // what the steady-state zero-allocation gates forbid.
    for (std::size_t b = 0; b < kMaxFreeBatches; ++b)
        freeBatches_.push_back(std::make_shared<Batch>());
    workers_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        workers_.emplace_back([this, t] {
            tls_worker_slot = t + 1;
            workerLoop();
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        LockGuard lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::runIndex(Batch &batch, std::size_t i)
{
    try {
        batch.task.invoke(batch.task.ctx, i);
    } catch (...) {
        LockGuard lock(batch.doneMutex);
        if (!batch.error)
            batch.error = std::current_exception();
    }
    if (batch.done.fetch_add(1) + 1 == batch.n) {
        // The lock pairs with the caller's predicate check so the
        // final notification cannot slip between check and sleep.
        LockGuard lock(batch.doneMutex);
        batch.doneCv.notify_all();
    }
}

void
ThreadPool::workerLoop()
{
    UniqueLock lock(mutex_);
    for (;;) {
        // Explicit predicate loop: the guarded reads stay in this
        // function's analysis context, where the checker sees the
        // lock held (a predicate lambda would be analyzed unlocked).
        while (!stop_ && queueHead_ >= queue_.size())
            cv_.wait(lock);
        if (stop_)
            return;
        {
            std::shared_ptr<Batch> batch = queue_[queueHead_];
            std::size_t i = batch->next.fetch_add(1);
            if (i >= batch->n) {
                // Exhausted; retire it so later batches become
                // visible. Rewinding the head to 0 when the queue
                // drains keeps the vector's capacity bounded.
                if (queueHead_ < queue_.size() &&
                    queue_[queueHead_] == batch) {
                    queue_[queueHead_].reset();
                    ++queueHead_;
                    if (queueHead_ == queue_.size()) {
                        queue_.clear();
                        queueHead_ = 0;
                    }
                }
                continue;
            }
            lock.unlock();
            // Propagate the wake chain before working: if indices
            // remain beyond the one just claimed, another worker can
            // help. Claim-then-wake keeps the number of futex wakes
            // proportional to the parallelism the region actually
            // has, not the pool width.
            if (i + 1 < batch->n)
                cv_.notify_one();
            do {
                runIndex(*batch, i);
                i = batch->next.fetch_add(1);
            } while (i < batch->n);
            // Re-lock before the batch reference dies. acquireBatch
            // reads use_count() under mutex_, and that read is
            // relaxed: only dropping the reference under the same
            // mutex orders this thread's last reads of the record
            // before the thread that recycles it resets its fields.
            lock.lock();
        }
    }
}

std::shared_ptr<ThreadPool::Batch>
// Analysis exemption: resetting slot->error nominally needs
// slot->doneMutex, but a record with use_count() == 1 is referenced by
// the free list alone — no worker can reach it, so this thread owns it
// exclusively and the guarded write cannot race.
ThreadPool::acquireBatch() CS_NO_THREAD_SAFETY_ANALYSIS
{
    // The free list owns one permanent reference to every record
    // (created in the constructor, bounded at kMaxFreeBatches), so an
    // idle record has use_count() == 1 and an in-flight one > 1:
    // handing out a copy marks it busy, and the count falling back to
    // 1 when the region's last reference dies returns it to the pool
    // with no explicit retire step. Records still visible to a worker
    // are skipped, never mutated. The allocation below is a fallback
    // for the pathological case of kMaxFreeBatches overlapping
    // regions; normal operation performs zero allocations.
    for (auto &slot : freeBatches_) {
        if (slot.use_count() == 1) {
            slot->task = TaskRef{};
            slot->n = 0;
            slot->next.store(0, std::memory_order_relaxed);
            slot->done.store(0, std::memory_order_relaxed);
            slot->error = nullptr;
            return slot;
        }
    }
    auto batch = std::make_shared<Batch>();
    if (freeBatches_.size() < kMaxFreeBatches)
        freeBatches_.push_back(batch);
    return batch;
}

void
ThreadPool::parallelForTask(std::size_t n, TaskRef task)
{
    if (n == 0)
        return;
    if (n == 1 || workers_.empty()) {
        for (std::size_t i = 0; i < n; ++i)
            task.invoke(task.ctx, i);
        return;
    }

    std::shared_ptr<Batch> batch;
    {
        LockGuard lock(mutex_);
        batch = acquireBatch();
        batch->task = task;
        batch->n = n;
        queue_.push_back(batch);
    }
    // Wake chain: rouse one worker; each worker that claims an index
    // wakes the next while unclaimed indices remain (workerLoop). A
    // notify_all here costs one futex wake *per pool worker* per
    // region — with many workers on few cores the woken threads just
    // contend, find the caller already finished, and go back to
    // sleep, which dominated the fleet controller's small parallel
    // phases. The chain wakes only as many workers as the region can
    // feed, and the caller's own participation keeps the region
    // live-lock free even if no worker ever wakes.
    cv_.notify_one();

    // Work-sharing: the caller claims indices like any worker, so the
    // region completes even if every pool thread is busy elsewhere
    // (including nested parallelFor calls from pool tasks).
    std::size_t i;
    while ((i = batch->next.fetch_add(1)) < n)
        runIndex(*batch, i);

    std::exception_ptr error;
    {
        UniqueLock lock(batch->doneMutex);
        while (batch->done.load() < batch->n)
            batch->doneCv.wait(lock);
        // Every invocation has completed, so reading the first
        // recorded failure here (still under doneMutex) sees its
        // final value.
        error = batch->error;
    }

    {
        // Retire the batch if no worker got to it; dropping our
        // reference afterwards is what returns the record to the free
        // list (see acquireBatch).
        LockGuard qlock(mutex_);
        for (std::size_t q = queueHead_; q < queue_.size(); ++q) {
            if (queue_[q] == batch) {
                queue_.erase(queue_.begin() +
                             static_cast<std::ptrdiff_t>(q));
                break;
            }
        }
        if (queueHead_ == queue_.size()) {
            queue_.clear();
            queueHead_ = 0;
        }
        batch.reset();
    }
    if (error)
        std::rethrow_exception(error);
}

std::size_t
ThreadPool::currentSlot()
{
    return tls_worker_slot;
}

ThreadPool &
ThreadPool::global()
{
    // Process-lifetime singleton; constructed once, never torn down
    // mid-run. cslint: allow(mutable-static)
    static ThreadPool pool([] {
        // The pool width is configuration, not decision input: it may
        // change the schedule of work but never the committed trace
        // (the determinism gates run at widths 1/4/8 to prove it).
        // cslint: allow(wall-clock)
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        if (const char *env = std::getenv("CS_POOL_THREADS")) {
            const long parsed = std::atol(env);
            if (parsed > 0)
                return static_cast<std::size_t>(parsed);
        }
        return static_cast<std::size_t>(
            std::max(2u, std::thread::hardware_concurrency()));
    }());
    return pool;
}

} // namespace cuttlesys
