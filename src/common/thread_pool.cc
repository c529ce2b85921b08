#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "common/sync.hh"

namespace cuttlesys {

namespace {

/**
 * Region records in the pool's fixed table. Every thread of the pool
 * plus each caller sits in at most one region per nesting level, so
 * in-flight regions stay far below this; a caller that finds every
 * record busy runs its region alone rather than allocate.
 */
constexpr std::size_t kMaxBatches = 64;

/**
 * Pauses an idle thread spins before it sleeps. The bound is about
 * one futex wake round trip: an empty parallelFor(8) whose worker has
 * to be woken took ~7.5 us at the median on the 4-vCPU Xeon where
 * this was tuned (the back-to-back case, worker already awake, took
 * 0.3 us), and one pause measured 17-26 ns there, so 500 pauses are
 * ~9-13 us. A region posted inside that window is joined without a
 * syscall; past it, parking costs at most one more round trip than
 * spinning would have saved. Spinning longer bought no wall time
 * (2000 and 8000 pauses) but cost 10-36% more CPU per quantum.
 */
constexpr std::size_t kSpinIterations = 500;

/**
 * The spin bound for a pool of @p threads workers: none when the
 * workers alone outnumber the hardware threads. There a spinner holds
 * a core that a thread with a claimed index is waiting for; at
 * CS_POOL_THREADS=8 on 4 vCPUs spinning made the (since deleted)
 * parallel(4) SGD 8.7 -> 13.5 ms and the 8-worker DDS 1.42 -> 1.67 ms.
 * Such a pool waits as it did before spinning: straight to the
 * condition variables.
 */
std::size_t
spinBound(std::size_t threads)
{
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 || threads <= hardware ? kSpinIterations : 0;
}

/** This thread's worker slot; 0 for every non-pool thread. */
// Per-thread identity is the one legitimate thread_local in the tree:
// it is written once at worker startup and only ever read by its own
// thread. cslint: allow(mutable-static)
thread_local std::size_t tls_worker_slot = 0;

/** Spin-wait hint: yields the core's pipeline to its sibling. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace

struct alignas(64) ThreadPool::Batch
{
    TaskRef task;
    /** Region size. Atomic (always relaxed) only because a spinning
     *  worker peeks at it before holding a reference (joinHotRegion);
     *  every other read is ordered by the reference protocol. */
    std::atomic<std::size_t> n{0};
    std::atomic<std::size_t> next{0};  //!< next index to claim
    std::atomic<std::size_t> done{0};  //!< completed invocations
    /**
     * Threads holding the record: its caller plus every worker inside
     * the region. 0 = free for reuse (acquireBatch).
     */
    std::atomic<std::size_t> refs{0};
    /** The caller gave up spinning and sleeps on doneCv. */
    std::atomic<bool> callerAsleep{false};
    Mutex doneMutex;
    CondVar doneCv;
    /** First failure, if any. */
    std::exception_ptr error CS_GUARDED_BY(doneMutex);
};

ThreadPool::ThreadPool(std::size_t threads)
    // Built up front, never grown: a lazily grown table would allocate
    // at schedule-dependent moments, which the steady-state
    // zero-allocation gates forbid.
    : batches_(std::make_unique<Batch[]>(kMaxBatches))
{
    if (threads == 0) {
        threads = std::max(2u, std::thread::hardware_concurrency());
    }
    spinLimit_ = spinBound(threads);
    queue_.reserve(kMaxBatches);
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
ThreadPool::runIndex(Batch &batch, std::size_t i, std::size_t n)
{
    try {
        batch.task.invoke(batch.task.ctx, i);
    } catch (...) {
        LockGuard lock(batch.doneMutex);
        if (!batch.error)
            batch.error = std::current_exception();
    }
    // The caller sets callerAsleep before its last look at done, and
    // the count is raised before callerAsleep is read here (all
    // sequentially consistent), so either the caller sees the region
    // complete or the last finisher sees it asleep. A caller still
    // spinning costs the finisher no lock at all. The lock pairs with
    // the caller's predicate check so the notification cannot slip
    // between check and sleep.
    if (batch.done.fetch_add(1) + 1 == n && batch.callerAsleep.load()) {
        LockGuard lock(batch.doneMutex);
        batch.doneCv.notify_one();
    }
}

void
ThreadPool::runClaimed(Batch &batch, std::size_t i)
{
    const std::size_t n = batch.n.load(std::memory_order_relaxed);
    // Propagate the wake chain before working: if indices remain
    // beyond the one just claimed, another worker can help.
    // Claim-then-wake keeps the number of futex wakes proportional to
    // the parallelism the region actually has, not the pool width.
    if (i + 1 < n)
        wakeChain();
    do {
        runIndex(batch, i, n);
        i = batch.next.fetch_add(1);
    } while (i < n);
    // The release orders this thread's last use of the record before
    // the acquireBatch that sees the count reach 0 and recycles it.
    batch.refs.fetch_sub(1, std::memory_order_release);
}

bool
ThreadPool::takeSleeper()
{
    if (parked_.load(std::memory_order_relaxed) <=
        wakesInFlight_.load(std::memory_order_relaxed))
        return false;
    wakesInFlight_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
ThreadPool::wakeChain()
{
    // Lock-free hint first: with every idle worker spinning (the
    // common case inside a burst of regions) there is nobody to wake,
    // and the mutex is not touched.
    if (parked_.load(std::memory_order_relaxed) <=
        wakesInFlight_.load(std::memory_order_relaxed))
        return;
    bool wake;
    {
        LockGuard lock(mutex_);
        wake = takeSleeper();
    }
    if (wake)
        cv_.notify_one();
}

void
ThreadPool::joinHotRegion()
{
    Batch *batch = hot_.load(std::memory_order_acquire);
    if (batch == nullptr)
        return;
    // Peek before touching the record's lines for writing: a tiny
    // region is usually fully claimed by its caller before a spinner
    // gets here, and the caller should not have to win its cache
    // lines back. The peek may read a record mid-recycle; it is only
    // a hint, checked again below.
    if (batch->next.load(std::memory_order_relaxed) >=
        batch->n.load(std::memory_order_relaxed))
        return;
    // Publish the reference, then confirm the record is still posted
    // (both sequentially consistent). Recycling a posted record
    // unposts it first and then reads the count (acquireBatch), so
    // either that read sees this reference and skips the record, or
    // this check sees it unposted. If the record was recycled and
    // posted again meanwhile, the check passes and this thread joins
    // the new region, whose fields were published before hot_.
    batch->refs.fetch_add(1);
    if (hot_.load() != batch) {
        batch->refs.fetch_sub(1, std::memory_order_release);
        return;
    }
    const std::size_t i = batch->next.fetch_add(1);
    if (i < batch->n.load(std::memory_order_relaxed))
        runClaimed(*batch, i);
    else
        batch->refs.fetch_sub(1, std::memory_order_release);
}

void
ThreadPool::spinForRegions(std::uint64_t seen)
{
    // The window restarts after every region joined, so a worker stays
    // awake through a run of back-to-back regions and parks only after
    // spinLimit_ pauses without a new one. Only the newest region
    // is joined here; an older one still in the queue is finished by
    // its own caller and by whoever serves the queue.
    std::size_t idle = 0;
    while (idle < spinLimit_) {
        const std::uint64_t now = posted_.load(std::memory_order_acquire);
        if (now == seen) {
            cpuRelax();
            ++idle;
            continue;
        }
        seen = now;
        joinHotRegion();
        idle = 0;
    }
}

void
ThreadPool::workerLoop()
{
    UniqueLock lock(mutex_);
    for (;;) {
        if (stop_)
            return;
        if (queueHead_ < queue_.size()) {
            Batch *batch = queue_[queueHead_];
            const std::size_t i = batch->next.fetch_add(1);
            if (i >= batch->n.load(std::memory_order_relaxed)) {
                // Exhausted; retire it so later batches become
                // visible. Rewinding the head to 0 when the queue
                // drains keeps the vector's capacity bounded.
                queue_[queueHead_] = nullptr;
                ++queueHead_;
                if (queueHead_ == queue_.size()) {
                    queue_.clear();
                    queueHead_ = 0;
                }
                continue;
            }
            // A queued record is not yet retired (its caller removes
            // it under mutex_ before dropping its own reference), so
            // the count is nonzero and this reference keeps it alive.
            batch->refs.fetch_add(1);
            lock.unlock();
            runClaimed(*batch, i);
            lock.lock();
            continue;
        }
        // Nothing queued. Every region posted up to `seen` is in the
        // queue (posting increments the counter under mutex_), so
        // spinning on the counter misses none.
        const std::uint64_t seen = posted_.load(std::memory_order_relaxed);
        lock.unlock();
        spinForRegions(seen);
        lock.lock();
        // Park. Counting the sleeper under the same lock the poster
        // reads it under is what makes skipping the notify safe. One
        // wait, not a predicate loop: a woken worker goes back through
        // the queue check and a full spin window, since a wake means
        // regions are being posted again. Each return from the wait
        // consumes one wake in flight, whoever it was sent to: a
        // miscount can only send a spare wake, never withhold one.
        if (!stop_ && queueHead_ >= queue_.size()) {
            parked_.fetch_add(1, std::memory_order_relaxed);
            cv_.wait(lock);
            parked_.fetch_sub(1, std::memory_order_relaxed);
            if (wakesInFlight_.load(std::memory_order_relaxed) > 0)
                wakesInFlight_.fetch_sub(1, std::memory_order_relaxed);
        }
    }
}

ThreadPool::Batch *
// Analysis exemption: resetting slot.error nominally needs
// slot.doneMutex, but a record whose reference count is 0 is not
// queued, and the scan unposts it before taking it, so no worker can
// reach it and this thread owns it exclusively; the guarded write
// cannot race.
ThreadPool::acquireBatch() CS_NO_THREAD_SAFETY_ANALYSIS
{
    // A record is in flight while any thread holds a reference; the
    // last one to leave drops the count to 0, and that (acquire) read
    // orders every earlier use before the reset below. A retired
    // record stays posted in hot_ until a newer region replaces it or
    // it is recycled here: unposting it then, rather than at
    // retirement, saves every region a write to the line the spinners
    // poll. A spinner may briefly count a reference on a record it
    // read stale from hot_; that only makes this scan skip it.
    for (std::size_t b = 0; b < kMaxBatches; ++b) {
        Batch &slot = batches_[b];
        if (slot.refs.load() != 0)
            continue;
        if (hot_.load(std::memory_order_relaxed) == &slot) {
            hot_.store(nullptr);
            if (slot.refs.load() != 0)
                continue; // a spinner got in first (joinHotRegion)
        }
        slot.refs.fetch_add(1);
        slot.task = TaskRef{};
        slot.n.store(0, std::memory_order_relaxed);
        slot.next.store(0, std::memory_order_relaxed);
        slot.done.store(0, std::memory_order_relaxed);
        slot.callerAsleep.store(false, std::memory_order_relaxed);
        slot.error = nullptr;
        return &slot;
    }
    return nullptr;
}

void
ThreadPool::parallelForTask(std::size_t n, TaskRef task)
{
    if (n == 0)
        return;
    Batch *batch = nullptr;
    bool wake = false;
    if (n > 1 && !workers_.empty()) {
        LockGuard lock(mutex_);
        batch = acquireBatch();
        if (batch != nullptr) {
            batch->task = task;
            batch->n.store(n, std::memory_order_relaxed);
            // Under overlapping regions the queue may never drain, so
            // retired slots pile up ahead of the head. Drop them in
            // place before the buffer would grow: the live entries are
            // acquired records, fewer than kMaxBatches, so the push
            // then fits the reserved capacity.
            if (queue_.size() == queue_.capacity()) {
                queue_.erase(queue_.begin(),
                             queue_.begin() +
                                 static_cast<std::ptrdiff_t>(queueHead_));
                queueHead_ = 0;
            }
            queue_.push_back(batch);
            hot_.store(batch);
            posted_.fetch_add(1);
            wake = takeSleeper();
        }
    }
    if (batch == nullptr) {
        for (std::size_t i = 0; i < n; ++i)
            task.invoke(task.ctx, i);
        return;
    }
    // Wake chain: rouse one sleeping worker; each worker that claims
    // an index wakes the next while unclaimed indices remain
    // (runClaimed). A notify_all here costs one futex wake *per pool
    // worker* per region — with many workers on few cores the woken
    // threads just contend, find the caller already finished, and go
    // back to sleep. Workers still spinning join through the posted
    // counter and need no wake at all, and a sleeper already woken
    // but not yet running needs no second one. The caller's own
    // participation keeps the region live-lock free even if no worker
    // ever wakes.
    if (wake)
        cv_.notify_one();

    // Work-sharing: the caller claims indices like any worker, so the
    // region completes even if every pool thread is busy elsewhere
    // (including nested parallelFor calls from pool tasks).
    std::size_t i;
    while ((i = batch->next.fetch_add(1)) < n)
        runIndex(*batch, i, n);

    // Workers still running claimed indices usually finish within a
    // task's length; spin that long before paying for a sleep.
    for (std::size_t spin = 0;
         spin < spinLimit_ &&
         batch->done.load(std::memory_order_acquire) < n;
         ++spin)
        cpuRelax();
    std::exception_ptr error;
    {
        UniqueLock lock(batch->doneMutex);
        if (batch->done.load() < n) {
            batch->callerAsleep.store(true);
            while (batch->done.load() < n)
                batch->doneCv.wait(lock);
        }
        // Every invocation has completed, so reading the first
        // recorded failure here (still under doneMutex) sees its
        // final value.
        error = batch->error;
    }

    {
        // Retire the batch from the queue if no worker got to it.
        // Dropping our reference afterwards is what frees the record
        // (acquireBatch).
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
    }
    batch->refs.fetch_sub(1, std::memory_order_release);
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
