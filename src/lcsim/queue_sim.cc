#include "lcsim/queue_sim.hh"

#include <algorithm>
#include <cstddef>
#include <functional>

#include "common/logging.hh"
#include "common/stats.hh"

namespace cuttlesys {

namespace {

/**
 * Spare service-heap entries past the server count: one cache line.
 * Simulators built together for a parallel grid get their heaps from
 * adjacent malloc chunks; without the slack the last busy core's entry
 * in one heap shares a line with the top of the next, and the slots
 * false-share on every event (a fifth of the grid's time, measured).
 */
constexpr std::size_t kHeapSlack = 64 / sizeof(std::pair<double, double>);

} // namespace

LcQueueSim::LcQueueSim(AppProfile profile, std::size_t num_servers,
                       double ips_per_core, std::uint64_t seed)
    : profile_(std::move(profile)), numServers_(num_servers),
      ips_(ips_per_core), rng_(seed)
{
    CS_ASSERT(numServers_ > 0, "LC service needs at least one core");
    CS_ASSERT(ips_ > 0.0, "service rate must be positive");
    inService_.reserve(numServers_ + kHeapSlack);
}

void
LcQueueSim::reset(const AppProfile &profile, std::size_t num_servers,
                  double ips_per_core, std::uint64_t seed)
{
    CS_ASSERT(num_servers > 0, "LC service needs at least one core");
    CS_ASSERT(ips_per_core > 0.0, "service rate must be positive");
    profile_ = profile;
    numServers_ = num_servers;
    ips_ = ips_per_core;
    qps_ = 0.0;
    rng_ = Rng(seed);
    now_ = 0.0;
    nextArrival_ = -1.0;
    pending_.clear();
    pendingHead_ = 0;
    inService_.clear();
    inService_.reserve(numServers_ + kHeapSlack);
    window_.clear();
    windowStart_ = 0.0;
    busyTime_ = 0.0;
    lastAccounted_ = 0.0;
}

void
LcQueueSim::reserveFor(double qps, double duration)
{
    // Amortized-headroom growth for the event buffers: reserve twice
    // the window's expected arrivals up front. push_back's exact
    // doubling would still occasionally realloc quanta later when a
    // noisy window sets a new high-water; with 2x headroom the
    // buffers settle during warm-up and the steady state stays
    // heap-free.
    if (qps <= 0.0)
        return;
    const std::size_t want =
        static_cast<std::size_t>(2.0 * qps * duration) + 64;
    pending_.reserve(want);
    window_.reserve(window_.size() + want);
}

void
LcQueueSim::setLoadQps(double qps)
{
    CS_ASSERT(qps >= 0.0, "negative load");
    qps_ = qps;
    if (qps_ > 0.0)
        nextArrival_ = now_ + rng_.exponential(qps_);
    else
        nextArrival_ = -1.0;
}

void
LcQueueSim::setIpsPerCore(double ips)
{
    CS_ASSERT(ips > 0.0, "service rate must be positive");
    ips_ = ips;
}

void
LcQueueSim::setServers(std::size_t num_servers)
{
    CS_ASSERT(num_servers > 0, "LC service needs at least one core");
    numServers_ = num_servers;
    dispatch();
}

void
LcQueueSim::scheduleNextArrival()
{
    if (qps_ > 0.0)
        nextArrival_ = now_ + rng_.exponential(qps_);
    else
        nextArrival_ = -1.0;
}

void
LcQueueSim::dispatch()
{
    while (pendingHead_ < pending_.size() &&
           inService_.size() < numServers_) {
        const Pending req = pending_[pendingHead_];
        ++pendingHead_;
        const double service = req.instructions / ips_;
        inService_.emplace_back(now_ + service, req.arrival);
        std::push_heap(inService_.begin(), inService_.end(),
                       std::greater<>());
    }
    if (pendingHead_ == pending_.size()) {
        // Fully drained: recycle the buffer (capacity is kept).
        pending_.clear();
        pendingHead_ = 0;
    } else if (pendingHead_ >= 64 &&
               pendingHead_ * 2 >= pending_.size()) {
        // Mostly-consumed prefix on a queue that never quite drains:
        // shift the live tail down in place (no allocation) so the
        // buffer cannot grow without bound.
        pending_.erase(pending_.begin(),
                       pending_.begin() +
                           static_cast<std::ptrdiff_t>(pendingHead_));
        pendingHead_ = 0;
    }
}

void
LcQueueSim::run(double duration)
{
    CS_ASSERT(duration >= 0.0, "negative run duration");
    const double end = now_ + duration;

    reserveFor(qps_, duration);

    while (true) {
        // Next event: arrival or earliest completion.
        double t_event = end;
        enum class Kind { None, Arrival, Completion } kind = Kind::None;

        if (nextArrival_ >= 0.0 && nextArrival_ < t_event) {
            t_event = nextArrival_;
            kind = Kind::Arrival;
        }
        if (!inService_.empty() && inService_.front().first < t_event) {
            t_event = inService_.front().first;
            kind = Kind::Completion;
        }

        // Integrate busy time up to the event (or the horizon).
        const double busy_cores = static_cast<double>(
            std::min(inService_.size(), numServers_));
        busyTime_ += busy_cores * (t_event - lastAccounted_);
        lastAccounted_ = t_event;
        now_ = t_event;

        if (kind == Kind::None)
            break;

        if (kind == Kind::Arrival) {
            Pending req;
            req.arrival = now_;
            req.instructions = rng_.lognormalMeanCv(
                profile_.requestInstructions(), profile_.requestCv);
            pending_.push_back(req);
            dispatch();
            scheduleNextArrival();
        } else {
            std::pop_heap(inService_.begin(), inService_.end(),
                          std::greater<>());
            const auto [completion, arrival] = inService_.back();
            inService_.pop_back();
            window_.push_back(completion - arrival);
            dispatch();
        }
    }
}

double
LcQueueSim::tailLatency(double pct) const
{
    if (window_.empty())
        return 0.0;
    return percentile(window_, pct, tailScratch_);
}

double
LcQueueSim::consumeTailLatency(double pct)
{
    if (window_.empty())
        return 0.0;
    const double tail = percentileInPlace(window_, pct);
    clearWindow();
    return tail;
}

double
LcQueueSim::meanLatency() const
{
    if (window_.empty())
        return 0.0;
    return mean(window_);
}

double
LcQueueSim::utilization() const
{
    const double elapsed = now_ - windowStart_;
    if (elapsed <= 0.0)
        return 0.0;
    return busyTime_ / (static_cast<double>(numServers_) * elapsed);
}

void
LcQueueSim::clearWindow()
{
    window_.clear();
    windowStart_ = now_;
    busyTime_ = 0.0;
    lastAccounted_ = now_;
}

std::vector<LcQueueSim>
oneShotSims(std::size_t count, const AppProfile &app, std::size_t servers,
            double max_qps, double max_duration)
{
    std::vector<LcQueueSim> sims;
    sims.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
        // Rate and seed are placeholders: oneShotTail() resets both.
        sims.emplace_back(app, servers, 1.0, 0);
        sims.back().reserveFor(max_qps, max_duration);
    }
    return sims;
}

double
oneShotTail(LcQueueSim &sim, const AppProfile &app, std::size_t servers,
            double ips, std::uint64_t seed, double qps, double warmup,
            double measure, double empty_value)
{
    sim.reset(app, servers, ips, seed);
    sim.setLoadQps(qps);
    sim.run(warmup);
    sim.clearWindow();
    sim.run(measure);
    if (sim.completedInWindow() == 0)
        return empty_value;
    return sim.consumeTailLatency(99.0);
}

} // namespace cuttlesys
