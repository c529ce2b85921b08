/**
 * @file
 * cs_bench — one end-to-end and per-layer benchmark over four
 * workloads.
 *
 * The binary drives the shipped public entry points from outside the
 * library: calibrateMaxQps, buildTrainingTables, ColocationRun::step,
 * CuttleSysScheduler::decideInto and FleetController::stepQuantum.
 *
 *   cs_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--trace-out FILE] [--smoke]
 *
 * Run rules (bench/suite/README.md has the full definitions):
 *  - Closed loop: this thread calls step() / stepQuantum() back to
 *    back on simulated time, with no wall-clock pacing. Offered load,
 *    churn and workflow arrivals are drawn inside the simulator from
 *    the workload seed (--seed overrides the committed default).
 *  - CS_POOL_THREADS defaults to nproc - 1: the calling thread is also
 *    a pool slot, so the process runs nproc threads.
 *  - A workload is a fixed-length episode. A round runs one whole
 *    episode at the workload's committed seed and one at --seed.
 *  - Set-up (calibrate, train, construct, 4 warm-up quanta) runs
 *    kSetupReps times and setup_s is the median. Each set-up is
 *    followed by its share of --seconds, at least one round, so the
 *    repeats of an episode are spread over the whole run.
 *  - Every repeat of an episode must replay its first one bitwise.
 *    Each quantum's time is its fastest repeat, which filters out
 *    interference from other processes on a shared host; the timing
 *    percentiles are taken over both seeds' quanta. Timing half of
 *    every round at the committed seed halves the timing's variation
 *    between --seed values.
 *  - The quality metrics (qos_pct, batch_ginstr, drop_pct, makespan)
 *    come from the committed seed's episode, whatever --seed is, so
 *    they are exact per commit and a bound of a fraction of a percent
 *    holds.
 *  - --trace 1 follows every untraced share with a traced one. The
 *    traced episodes attach a TraceSink that aggregates each
 *    QuantumRecord's phaseSec split into the per-layer metrics,
 *    records bench-side spans, and must agree with the untraced ones
 *    on every deterministic metric.
 *
 * Output: `# key value` provenance lines, then one line per metric,
 * `<workload> <metric> <value> <unit>`. The exit status is 1 when a
 * check fails: a failed decision quantum, a non-finite metric, a
 * replay mismatch, or (traced) a decide-time residual above 5% or a
 * parallel efficiency above 1.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/gallery.hh"
#include "apps/mix.hh"
#include "check/schedule_validator.hh"
#include "cluster/fleet.hh"
#include "common/kernels.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/cuttlesys.hh"
#include "core/training.hh"
#include "lcsim/calibrate.hh"
#include "lcsim/scenarios.hh"
#include "power/power_model.hh"
#include "sim/driver.hh"
#include "telemetry/trace_sink.hh"

using namespace cuttlesys;
using telemetry::DecisionPath;
using telemetry::Phase;
using telemetry::QuantumRecord;

namespace {

using Clock = std::chrono::steady_clock;

/** Quanta excluded from every timing (bench_fleet's kAbWarmQuanta);
 *  they run inside set-up, so setup_s still shows them. */
constexpr std::size_t kWarmQuanta = 4;
/** Set-up repetitions per run; setup_s is their median. */
constexpr std::size_t kSetupReps = 3;
/** Timed quanta a round needs so p90 has 10 samples above it. */
constexpr std::size_t kMinTimedQuanta = 100;
/** Table II decision budget: 4.8 ms SGD + 1.3 ms DDS. */
constexpr double kDecideBudgetMs = 6.1;
/** Largest allowed outside-minus-inside decideInto residual. */
constexpr double kMaxResidualPct = 5.0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/**
 * Peak resident set of this process image, MB. VmHWM, not ru_maxrss:
 * Linux carries ru_maxrss across execve, so a launcher's own peak
 * (run.py's Python interpreter) would leak into it.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

/** Nearest-rank percentile (a measured value, never interpolated). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** CPUs this process may run on (what `nproc` prints). */
std::size_t
visibleCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
    return 1;
}

// ---------------------------------------------------------------------
// Spans: kept in memory, written as Chrome trace-event JSON at exit.

class SpanLog
{
  public:
    void enable(Clock::time_point origin)
    {
        enabled_ = true;
        origin_ = origin;
    }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const char *name)
    {
        if (!enabled_)
            return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{name, micros(), 0.0, parent});
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].endUs = micros();
        stack_.pop_back();
    }

    bool write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"cat\":\"cs_bench\","
                          "\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                          "\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d}}",
                          i ? "," : "", s.name, s.startUs,
                          s.endUs - s.startUs, i, s.parent);
            out << buf;
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        const char *name;
        double startUs;
        double endUs;
        int parent;
    };

    double micros() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    bool enabled_ = false;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span scope. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name)
        : log_(log), id_(log.open(name))
    {
    }
    ~SpanScope() { log_.close(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

// ---------------------------------------------------------------------
// Workloads.

enum class Shape
{
    NodeFull,
    FleetCalm,
    FleetChurn,
    FleetDag,
};

struct Workload
{
    const char *name;
    Shape shape;
    std::uint64_t seed; //!< committed default; --seed overrides
    std::size_t nodes;
    std::size_t quanta; //!< per episode, warm-up included
};

// Why each workload exists is recorded in bench/suite/README.md and
// BENCHMARK.json. Every episode takes about 1.25 s on a 4-core host,
// so a 10 s measurement split over three set-ups runs one round (two
// episodes) after each, and an untraced run stays near 24 s.
constexpr std::array<Workload, 4> kWorkloads = {{
    {"node-full", Shape::NodeFull, 42, 1, 300},
    {"fleet-calm", Shape::FleetCalm, 42, 16, 110},
    {"fleet-churn", Shape::FleetChurn, 2026, 16, 58},
    {"fleet-dag", Shape::FleetDag, 2026, 16, 54},
}};

/** Smoke sizes: every workload, tiny. */
constexpr std::size_t kSmokeNodes = 4;
constexpr std::size_t kSmokeQuanta = 12;

/** The calibrated, trained offline stack every episode shares. */
struct Stack
{
    SystemParams params;
    TrainTestSplit split;
    AppProfile lc;
    TrainingTables tables;
    double nodeMaxW = 0.0;
};

/** Compressed day spanning @p quanta with the peak-price window at its
 *  usual day-relative position. */
CompressedDayScenario
dayOf(std::size_t quanta, double timeslice_sec)
{
    CompressedDayScenario day;
    day.daySeconds = static_cast<double>(quanta) * timeslice_sec;
    day.peakWindowStartSec = 0.375 * day.daySeconds;
    day.peakWindowEndSec = 0.75 * day.daySeconds;
    return day;
}

cluster::FleetOptions
fleetOptions(Shape shape, const Stack &st, std::size_t nodes,
             std::size_t quanta, std::uint64_t seed,
             telemetry::TraceSink *sink)
{
    const double n = static_cast<double>(nodes);
    cluster::FleetOptions o;
    o.numNodes = nodes;
    o.seed = seed;
    o.scenario = dayOf(quanta, st.params.timesliceSec);
    o.sink = sink;
    if (shape == Shape::FleetCalm) {
        // bench_fleet's calm diurnal day: a moderate wave, light churn
        // and a 28-quantum phase cycle, where steady quanta dominate.
        o.scenario.loadTrough = 0.45;
        o.scenario.loadPeak = 0.80;
        o.loadScaleMin = 1.0;
        o.loadScaleMax = 1.0;
        o.churn.departureProbability = 0.002;
        o.churn.meanArrivalsPerQuantum = 0.01 * n;
        o.phaseDriftPeriodSec = 28.0 * st.params.timesliceSec;
        return o;
    }
    // fleet_sim's configuration: a scarce rack budget and hot churn.
    o.rackBudgetFrac = 0.55;
    o.churn.departureProbability = 0.06;
    o.churn.meanArrivalsPerQuantum = 0.5 * n;
    if (shape == Shape::FleetDag) {
        o.dag.enable = true;
        o.dag.localityAware = true;
        o.dag.maxLiveWorkflows = 2 * nodes;
        o.churn.meanWorkflowArrivalsPerQuantum = 0.05 * n;
    }
    return o;
}

// ---------------------------------------------------------------------
// Episodes: one fixed-length run of a workload.

/**
 * An episode's outcome is the library's own FleetSummary (node-full
 * fills the cluster-wide fields of its single node). These are the
 * values that must repeat exactly for a seed at any pool width, and
 * that the traced and untraced halves must share.
 */
bool
sameResults(const cluster::FleetSummary &a, const cluster::FleetSummary &b)
{
    return a.clusterQosPct == b.clusterQosPct &&
        a.totalBatchInstructions == b.totalBatchInstructions &&
        a.arrivals == b.arrivals &&
        a.droppedArrivals == b.droppedArrivals &&
        a.droppedQueued == b.droppedQueued &&
        a.gmeanMakespanQuanta == b.gmeanMakespanQuanta &&
        a.fastPathHits == b.fastPathHits && a.fullQuanta == b.fullQuanta &&
        a.memoSeededQuanta == b.memoSeededQuanta;
}

/** Queue drops as a share of submissions, %. */
double
dropPct(const cluster::FleetSummary &s)
{
    return 100.0 *
        ratio(static_cast<double>(s.droppedArrivals + s.droppedQueued),
              static_cast<double>(s.arrivals + s.droppedArrivals));
}

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }
    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Fold one node's last decision and measurement into @p d. */
void
digestQuantum(Digest &d, const ColocationRun &run)
{
    const SliceDecision &dec = run.lastDecision();
    d.add(static_cast<std::uint64_t>(dec.lcConfig.index()));
    d.add(static_cast<std::uint64_t>(dec.lcCores));
    for (std::size_t j = 0; j < dec.batchConfigs.size(); ++j) {
        d.add(static_cast<std::uint64_t>(dec.batchConfigs[j].index()));
        d.add(static_cast<std::uint64_t>(dec.batchActive[j]));
    }
    const SliceMeasurement &m = run.lastMeasurement();
    d.add(m.lcTailLatency);
    d.add(m.batchInstructions);
    d.add(m.totalPower);
}

class Episode
{
  public:
    virtual ~Episode() = default;

    virtual bool done() const = 0;
    virtual std::size_t nodes() const = 0;
    /** One ColocationRun::step() or FleetController::stepQuantum(). */
    virtual void step() = 0;
    /** Digest of the quantum the last step() ran. */
    virtual std::uint64_t lastDigest() = 0;
    /** Node quanta of the last step() whose decision failed a
     *  ScheduleValidator invariant. */
    virtual std::size_t lastFailed() const { return 0; }
    /** Wall seconds of the last decideInto, timed outside the library;
     *  negative where the bench cannot see the call (fleets). */
    virtual double lastDecideSec() const { return -1.0; }
    virtual cluster::FleetSummary summary() = 0;
};

/**
 * Forwarding Scheduler decorator: times decideInto from outside the
 * library and hands the driver's trace and validator attachments to
 * the wrapped scheduler for the duration of the call.
 */
class TimedScheduler final : public Scheduler
{
  public:
    TimedScheduler(Scheduler &inner, SpanLog &spans)
        : inner_(inner), spans_(spans)
    {
    }

    std::string name() const override { return inner_.name(); }
    bool wantsProfiling() const override
    {
        return inner_.wantsProfiling();
    }
    bool usesReconfigurableCores() const override
    {
        return inner_.usesReconfigurableCores();
    }
    bool enforcesPowerCap() const override
    {
        return inner_.enforcesPowerCap();
    }
    void onJobChurn(std::size_t slot) override { inner_.onJobChurn(slot); }

    SliceDecision decide(const SliceContext &ctx) override
    {
        SliceDecision out;
        decideInto(ctx, out);
        return out;
    }

    void decideInto(const SliceContext &ctx, SliceDecision &out) override
    {
        inner_.attachTrace(trace());
        inner_.attachValidator(validator());
        {
            SpanScope span(spans_, "decideInto");
            const Clock::time_point t0 = Clock::now();
            inner_.decideInto(ctx, out);
            lastSec_ = secondsSince(t0);
        }
        inner_.attachTrace(nullptr);
        inner_.attachValidator(nullptr);
    }

    double lastSec() const { return lastSec_; }

  private:
    Scheduler &inner_;
    SpanLog &spans_;
    double lastSec_ = 0.0;
};

/** node-full: one CuttleSys node on the always-full decision path. */
class NodeEpisode final : public Episode
{
  public:
    NodeEpisode(const Stack &st, std::size_t quanta, std::uint64_t seed,
                telemetry::TraceSink *sink, SpanLog &spans)
        : mix_(makeMix(st)), sim_(st.params, mix_, seed),
          scheduler_(st.params, st.tables, mix_.batch.size(),
                     mix_.lc.qosSeconds(), fullPathOptions()),
          timed_(scheduler_, spans),
          validator_(check::ValidatorOptions{
              .failMode = check::FailMode::Record}),
          run_(sim_, timed_, driverOptions(st, quanta, sink))
    {
    }

    bool done() const override { return run_.done(); }
    std::size_t nodes() const override { return 1; }

    void step() override
    {
        const std::size_t before = validator_.violationCount();
        run_.step();
        failed_ = validator_.violationCount() > before ? 1 : 0;
    }

    std::uint64_t lastDigest() override
    {
        Digest d;
        digestQuantum(d, run_);
        return d.value();
    }

    std::size_t lastFailed() const override { return failed_; }
    double lastDecideSec() const override { return timed_.lastSec(); }

    cluster::FleetSummary summary() override
    {
        const RunResult &r = run_.result();
        cluster::FleetSummary s;
        s.numNodes = 1;
        s.quanta = run_.nextSlice();
        s.clusterQosPct = 100.0 *
            (1.0 - static_cast<double>(r.qosViolations) /
                       static_cast<double>(s.quanta));
        s.totalBatchInstructions = r.totalBatchInstructions;
        s.fastPathHits = scheduler_.fastPathHits();
        s.fullQuanta = scheduler_.fullQuanta();
        s.memoSeededQuanta = scheduler_.memoSeededQuanta();
        return s;
    }

  private:
    /** masstree plus the 16-job SPEC test mix (makeBatchMix seed 1). */
    static WorkloadMix makeMix(const Stack &st)
    {
        WorkloadMix mix;
        mix.name = "masstree/node-full";
        mix.lc = st.lc;
        mix.batch = makeBatchMix(st.split.test, 16, 1);
        return mix;
    }

    /** The paper's Table II loop every quantum: no fast path. */
    static CuttleSysOptions fullPathOptions()
    {
        CuttleSysOptions o;
        o.fastPath = false;
        return o;
    }

    DriverOptions driverOptions(const Stack &st, std::size_t quanta,
                                telemetry::TraceSink *sink)
    {
        const CompressedDayScenario day =
            dayOf(quanta, st.params.timesliceSec);
        DriverOptions o;
        o.durationSec = day.daySeconds;
        o.loadPattern = day.loadPattern();
        o.powerPattern = day.powerPattern();
        o.maxPowerW = st.nodeMaxW;
        o.keepSliceRecords = false;
        o.traceSink = sink;
        o.validator = &validator_;
        return o;
    }

    WorkloadMix mix_;
    MulticoreSim sim_;
    CuttleSysScheduler scheduler_;
    TimedScheduler timed_;
    check::ScheduleValidator validator_;
    ColocationRun run_;
    std::size_t failed_ = 0;
};

/** fleet-*: the shipped FleetController, validation on (Panic). */
class FleetEpisode final : public Episode
{
  public:
    FleetEpisode(const Stack &st, const cluster::FleetOptions &opts)
        : fleet_(st.params, st.tables, st.lc, st.split.test, st.nodeMaxW,
                 placement_, opts)
    {
    }

    bool done() const override { return fleet_.done(); }
    std::size_t nodes() const override { return fleet_.numNodes(); }
    void step() override { fleet_.stepQuantum(); }

    std::uint64_t lastDigest() override
    {
        Digest d;
        for (std::size_t i = 0; i < fleet_.numNodes(); ++i)
            digestQuantum(d, fleet_.node(i).run());
        return d.value();
    }

    cluster::FleetSummary summary() override { return fleet_.summary(); }

  private:
    cluster::BackfillBinPack placement_;
    cluster::FleetController fleet_;
};

// ---------------------------------------------------------------------
// Per-layer aggregation through the public TraceSink seam.

/** Deterministic per-episode record counts. */
struct RecordCounts
{
    std::size_t records = 0;      //!< every record, warm-up included
    std::size_t timed = 0;        //!< records past the warm-up
    std::size_t fastReuse = 0;    //!< timed fast-reuse records
    std::size_t memoSeeded = 0;   //!< timed memo-seeded records
    std::size_t fullEvaluations = 0; //!< DDS evaluations, timed full
    std::array<std::size_t, telemetry::kNumInvalidationReasons>
        invalidations{};
};

/** Accumulates phase times (pooled) and counts (per episode). */
class LayerSink final : public telemetry::TraceSink
{
  public:
    void record(const QuantumRecord &r) override
    {
        ++counts_.records;
        if (r.slice < kWarmQuanta)
            return;
        ++counts_.timed;
        ++timedRecords_;
        for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
            phaseSec_[p] += r.phaseSec[p];
        const double decide = r.phase(Phase::Ingest) +
            r.phase(Phase::Reconstruct) + r.phase(Phase::Search) +
            r.phase(Phase::Enforce);
        decideMs_.push_back(decide * 1e3);
        if (r.decisionPath == DecisionPath::FastReuse) {
            ++counts_.fastReuse;
            ++fastRecords_;
            revalidateSec_ += r.phase(Phase::Search);
            return;
        }
        // Full quanta: the gate's verdict, or the always-full path.
        ++fullRecords_;
        reconstructFullSec_ += r.phase(Phase::Reconstruct);
        searchFullSec_ += r.phase(Phase::Search);
        counts_.fullEvaluations += r.searchEvaluations;
        if (r.decisionPath == DecisionPath::MemoSeeded)
            ++counts_.memoSeeded;
        if (r.decisionPath != DecisionPath::None)
            ++counts_.invalidations[static_cast<std::size_t>(
                r.invalidationReason)];
    }

    /** Start a new episode's counts (times keep pooling). */
    RecordCounts takeCounts()
    {
        RecordCounts c = counts_;
        counts_ = RecordCounts{};
        return c;
    }

    double phaseMs(Phase p) const
    {
        return 1e3 *
            ratio(phaseSec_[static_cast<std::size_t>(p)],
                  static_cast<double>(timedRecords_));
    }
    double allPhasesSec() const
    {
        double sum = 0.0;
        for (double s : phaseSec_)
            sum += s;
        return sum;
    }
    const std::vector<double> &decideMs() const { return decideMs_; }
    double reconstructFullMs() const
    {
        return 1e3 * ratio(reconstructFullSec_,
                           static_cast<double>(fullRecords_));
    }
    double searchFullMs() const
    {
        return 1e3 *
            ratio(searchFullSec_, static_cast<double>(fullRecords_));
    }
    double revalidateMs() const
    {
        return 1e3 *
            ratio(revalidateSec_, static_cast<double>(fastRecords_));
    }

  private:
    RecordCounts counts_;
    std::array<double, telemetry::kNumPhases> phaseSec_{};
    std::size_t timedRecords_ = 0;
    std::size_t fullRecords_ = 0;
    std::size_t fastRecords_ = 0;
    double reconstructFullSec_ = 0.0;
    double searchFullSec_ = 0.0;
    double revalidateSec_ = 0.0;
    std::vector<double> decideMs_;
};

// ---------------------------------------------------------------------
// The run.

struct Config
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    bool smoke = false;

    std::size_t nodes() const
    {
        return smoke ? std::min(kSmokeNodes, workload->nodes)
                     : workload->nodes;
    }
    std::size_t quanta() const
    {
        return smoke ? kSmokeQuanta : workload->quanta;
    }
};

std::unique_ptr<Episode>
makeEpisode(const Config &cfg, const Stack &st, std::uint64_t seed,
            telemetry::TraceSink *sink, SpanLog &spans)
{
    if (cfg.workload->shape == Shape::NodeFull) {
        return std::make_unique<NodeEpisode>(st, cfg.quanta(), seed, sink,
                                             spans);
    }
    return std::make_unique<FleetEpisode>(
        st, fleetOptions(cfg.workload->shape, st, cfg.nodes(),
                         cfg.quanta(), seed, sink));
}

/** One set-up: calibrate, train, construct, warm up. */
struct Setup
{
    double calibrateSec = 0.0;
    double trainSec = 0.0;
    double buildSec = 0.0;
    double warmupSec = 0.0;
    double total() const
    {
        return calibrateSec + trainSec + buildSec + warmupSec;
    }
};

/** Episodes a round times: the workload's committed seed, whose first
 *  episode also gives the quality metrics, then --seed. */
constexpr std::size_t kRoundSeeds = 2;

static_assert(std::all_of(kWorkloads.begin(), kWorkloads.end(),
                          [](const Workload &w) {
                              return kRoundSeeds * (w.quanta - kWarmQuanta) >=
                                  kMinTimedQuanta;
                          }),
              "a round needs kMinTimedQuanta timed quanta");
// kWorkloads[0] is node-full.
static_assert(kSetupReps * kRoundSeeds *
                      (kWorkloads[0].quanta - kWarmQuanta) >=
                  1000,
              "node-full's traced decideInto p99 needs 10 samples above it");

/** One seed's episodes in a measurement. */
struct SeedTiming
{
    /** Per timed quantum, its fastest repeat. */
    std::vector<double> stepMs;
    /** node-full: per timed quantum, its fastest decideInto. */
    std::vector<double> decideMs;
    /** CPU time over the timed steps of the cheapest repeat. */
    double cpuSec = std::numeric_limits<double>::infinity();
    std::size_t timedNodeQuanta = 0; //!< per episode
    std::size_t episodes = 0;
    cluster::FleetSummary summary;      //!< first episode
    std::vector<std::uint64_t> digests; //!< first episode, per step
};

/** What a measurement (one half of a traced run) collects. */
struct Measurement
{
    std::array<SeedTiming, kRoundSeeds> seeds;
    /** node-full: every timed decideInto of every repeat. */
    std::vector<double> decideMs;
    double wallSec = 0.0;       //!< every timed step of every repeat
    std::size_t timedSteps = 0; //!< every timed step of every repeat
    std::size_t replayMismatches = 0;
    RecordCounts counts; //!< committed seed, first episode

    /** Every seed's per-quantum fastest step times. */
    std::vector<double> fastestStepMs() const
    {
        std::vector<double> out;
        for (const SeedTiming &s : seeds)
            out.insert(out.end(), s.stepMs.begin(), s.stepMs.end());
        return out;
    }
    /** Every seed's per-quantum fastest decideInto times. */
    std::vector<double> fastestDecideMs() const
    {
        std::vector<double> out;
        for (const SeedTiming &s : seeds)
            out.insert(out.end(), s.decideMs.begin(), s.decideMs.end());
        return out;
    }
    /** Timed node-quanta of one round. */
    double nodeQuanta() const
    {
        double n = 0.0;
        for (const SeedTiming &s : seeds)
            n += static_cast<double>(s.timedNodeQuanta);
        return n;
    }
    /** CPU time of one round, each seed at its cheapest repeat. */
    double cpuSec() const
    {
        double sec = 0.0;
        for (const SeedTiming &s : seeds)
            sec += s.cpuSec;
        return sec;
    }
};

/** Fold one repeat's per-quantum times into the fastest so far. */
void
keepFastest(std::vector<double> &fastest, const std::vector<double> &ms)
{
    if (fastest.empty()) {
        fastest = ms;
        return;
    }
    for (std::size_t i = 0; i < ms.size(); ++i)
        fastest[i] = std::min(fastest[i], ms[i]);
}

class Runner
{
  public:
    Runner(const Config &cfg, SpanLog &spans)
        : cfg_(cfg), spans_(spans), seeds_{cfg.workload->seed, cfg.seed}
    {
    }

    /** Calibrate, train, construct and warm up once. The new stack
     *  serves the episodes that follow. */
    Setup setUp()
    {
        SpanScope rep(spans_, "setup");
        Setup s;
        stack_ = std::make_unique<Stack>();
        std::vector<AppProfile> services = tailbenchGallery();
        {
            SpanScope span(spans_, "calibrateMaxQps");
            const Clock::time_point t0 = Clock::now();
            calibrateMaxQps(services, stack_->params);
            for (const AppProfile &svc : services) {
                if (svc.name == "masstree")
                    stack_->lc = svc;
            }
            s.calibrateSec = secondsSince(t0);
        }
        {
            SpanScope span(spans_, "buildTrainingTables");
            const Clock::time_point t0 = Clock::now();
            stack_->split = splitSpecGallery();
            stack_->tables = buildTrainingTables(stack_->split.train,
                                                 services, stack_->params);
            stack_->nodeMaxW =
                systemMaxPower(stack_->split.test, stack_->params);
            s.trainSec = secondsSince(t0);
        }
        std::unique_ptr<Episode> ep;
        {
            SpanScope span(spans_, "construct");
            const Clock::time_point t0 = Clock::now();
            ep = start(cfg_.seed, nullptr);
            s.buildSec = secondsSince(t0);
        }
        {
            SpanScope span(spans_, "warmup");
            const Clock::time_point t0 = Clock::now();
            std::vector<std::uint64_t> digests;
            warmUp(*ep, digests);
            s.warmupSec = secondsSince(t0);
        }
        // The measurement starts fresh episodes: the rest of this one is
        // not an operation the run attempted.
        unrun_ = 0;
        return s;
    }

    /**
     * Run rounds, one whole episode per seed each, until @p budget_sec
     * have passed (at least one round), and fold them into @p m.
     */
    void measure(Measurement &m, double budget_sec, LayerSink *sink)
    {
        const Clock::time_point t0 = Clock::now();
        double roundSec = 0.0;
        do {
            const Clock::time_point r0 = Clock::now();
            for (std::size_t k = 0; k < kRoundSeeds; ++k)
                runEpisode(m, k, sink);
            roundSec = secondsSince(r0);
        } while (secondsSince(t0) + roundSec <= budget_sec);
    }

    /** Node quanta attempted so far, set-up warm-up included. */
    std::size_t attempted() const { return attempted_; }
    /** Node quanta whose decision failed a schedule invariant. */
    std::size_t failed() const { return failed_; }

    /** Count the live episode's remaining quanta as attempted and
     *  failed (the run aborted). */
    void abort()
    {
        attempted_ += unrun_;
        failed_ += unrun_;
        unrun_ = 0;
    }

  private:
    const char *stepName() const
    {
        return cfg_.workload->shape == Shape::NodeFull
            ? "ColocationRun::step"
            : "FleetController::stepQuantum";
    }

    std::unique_ptr<Episode> start(std::uint64_t seed,
                                   telemetry::TraceSink *sink)
    {
        std::unique_ptr<Episode> ep = makeEpisode(cfg_, *stack_, seed,
                                                  sink, spans_);
        unrun_ = cfg_.quanta() * ep->nodes();
        return ep;
    }

    /** One whole episode of seed @p k, which must replay that seed's
     *  first episode bitwise. */
    void runEpisode(Measurement &m, std::size_t k, LayerSink *sink)
    {
        SpanScope span(spans_, "episode");
        SeedTiming &seed = m.seeds[k];
        std::unique_ptr<Episode> ep = start(seeds_[k], sink);
        std::vector<std::uint64_t> digests;
        warmUp(*ep, digests);
        std::vector<double> stepMs;
        std::vector<double> decideMs;
        const double cpu0 = cpuSeconds();
        while (!ep->done()) {
            const double sec = step(*ep, digests);
            stepMs.push_back(sec * 1e3);
            m.wallSec += sec;
            if (ep->lastDecideSec() >= 0.0)
                decideMs.push_back(ep->lastDecideSec() * 1e3);
        }
        seed.cpuSec = std::min(seed.cpuSec, cpuSeconds() - cpu0);
        keepFastest(seed.stepMs, stepMs);
        keepFastest(seed.decideMs, decideMs);
        m.decideMs.insert(m.decideMs.end(), decideMs.begin(),
                          decideMs.end());
        m.timedSteps += stepMs.size();
        const RecordCounts counts = sink ? sink->takeCounts()
                                         : RecordCounts{};
        if (seed.episodes == 0) {
            seed.timedNodeQuanta = stepMs.size() * ep->nodes();
            seed.summary = ep->summary();
            seed.digests = digests;
            if (k == 0)
                m.counts = counts;
        } else if (digests != seed.digests) {
            ++m.replayMismatches;
        }
        ++seed.episodes;
    }

    /** One quantum: returns its wall seconds. */
    double step(Episode &ep, std::vector<std::uint64_t> &digests)
    {
        double sec = 0.0;
        {
            SpanScope span(spans_, stepName());
            const Clock::time_point t0 = Clock::now();
            ep.step();
            sec = secondsSince(t0);
        }
        attempted_ += ep.nodes();
        unrun_ -= ep.nodes();
        failed_ += ep.lastFailed();
        digests.push_back(ep.lastDigest());
        return sec;
    }

    void warmUp(Episode &ep, std::vector<std::uint64_t> &digests)
    {
        for (std::size_t q = 0; q < kWarmQuanta && !ep.done(); ++q)
            step(ep, digests);
    }

    const Config &cfg_;
    SpanLog &spans_;
    const std::array<std::uint64_t, kRoundSeeds> seeds_;
    std::unique_ptr<Stack> stack_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::size_t unrun_ = 0; //!< node quanta the live episode has left
};

// ---------------------------------------------------------------------
// Output and checks.

class Report
{
  public:
    explicit Report(const char *workload) : workload_(workload) {}

    void metric(const char *name, double value, const char *unit)
    {
        std::printf("%s %s %.17g %s\n", workload_, name, value, unit);
        if (!std::isfinite(value)) {
            fail(std::string("metric ") + name + " is not finite");
        }
    }

    void count(const char *name, std::size_t value)
    {
        metric(name, static_cast<double>(value), "count");
    }

    void fail(const std::string &why)
    {
        std::fprintf(stderr, "cs_bench: check failed: %s\n", why.c_str());
        ok_ = false;
    }

    bool ok() const { return ok_; }

  private:
    const char *workload_;
    bool ok_ = true;
};

double
medianOf(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
sumOf(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum;
}

void
reportEndToEnd(Report &out, const Config &cfg,
               const std::vector<Setup> &setups, const Measurement &m)
{
    std::vector<double> totals;
    for (const Setup &setup : setups)
        totals.push_back(setup.total());
    out.metric("setup_s", medianOf(totals), "s");
    const std::vector<double> stepMs = m.fastestStepMs();
    out.metric("quantum_ms_p50", percentile(stepMs, 50.0), "ms");
    out.metric("quantum_ms_p90", percentile(stepMs, 90.0), "ms");
    out.count("quantum_samples", stepMs.size());
    const std::vector<double> decideMs = m.fastestDecideMs();
    if (!decideMs.empty()) {
        out.metric("decision_ms_p50", percentile(decideMs, 50.0), "ms");
        out.metric("decision_ms_p90", percentile(decideMs, 90.0), "ms");
        out.count("decision_samples", decideMs.size());
    }
    out.metric("node_quanta_per_s",
               ratio(m.nodeQuanta(), 1e-3 * sumOf(stepMs)), "1/s");
    out.metric("cpu_ms_per_node_quantum",
               1e3 * ratio(m.cpuSec(), m.nodeQuanta()), "ms");
    out.metric("peak_rss_mb", peakRssMb(), "MB");
    // The quality metrics: the committed seed's episode.
    const cluster::FleetSummary &s = m.seeds[0].summary;
    out.metric("qos_pct", s.clusterQosPct, "%");
    out.metric("batch_ginstr", s.totalBatchInstructions * 1e-9, "Ginstr");
    if (cfg.workload->shape != Shape::NodeFull)
        out.metric("drop_pct", dropPct(s), "%");
    if (cfg.workload->shape == Shape::FleetDag)
        out.metric("makespan_gmean_quanta", s.gmeanMakespanQuanta,
                   "quanta");
    out.count("repeats", m.seeds[0].episodes);
}

void
reportLayers(Report &out, const Config &cfg,
             const std::vector<Setup> &setups, const Measurement &plain,
             const Measurement &traced, const LayerSink &layers)
{
    const auto medianSetup = [&](double Setup::*field) {
        std::vector<double> v;
        for (const Setup &s : setups)
            v.push_back(s.*field);
        return medianOf(v);
    };
    out.metric("setup.calibrate_s", medianSetup(&Setup::calibrateSec), "s");
    out.metric("setup.train_s", medianSetup(&Setup::trainSec), "s");
    out.metric("setup.build_s", medianSetup(&Setup::buildSec), "s");
    out.metric("setup.warmup_s", medianSetup(&Setup::warmupSec), "s");

    out.metric("sim.profile_ms", layers.phaseMs(Phase::Profile), "ms");
    out.metric("sim.execute_ms", layers.phaseMs(Phase::Execute), "ms");

    const double insideMs = layers.phaseMs(Phase::Ingest) +
        layers.phaseMs(Phase::Reconstruct) + layers.phaseMs(Phase::Search) +
        layers.phaseMs(Phase::Enforce);
    const bool nodeFull = cfg.workload->shape == Shape::NodeFull;
    // node-full times decideInto outside the library; fleets hide the
    // call inside the controller, so their tail comes from the records.
    out.metric("core.decide_ms", insideMs, "ms");
    out.metric("core.decide_ms_p99",
               percentile(nodeFull ? traced.decideMs : layers.decideMs(),
                          99.0),
               "ms");
    out.metric("core.ingest_ms", layers.phaseMs(Phase::Ingest), "ms");
    out.metric("core.enforce_ms", layers.phaseMs(Phase::Enforce), "ms");
    const RecordCounts &c = traced.counts;
    out.metric("core.fast_reuse_ratio",
               ratio(static_cast<double>(c.fastReuse),
                     static_cast<double>(c.timed)),
               "ratio");
    out.count("core.memo_seeded_quanta", c.memoSeeded);
    std::size_t over = 0;
    for (double ms : layers.decideMs())
        over += ms > kDecideBudgetMs;
    out.metric("core.over_budget_pct",
               100.0 * ratio(static_cast<double>(over),
                             static_cast<double>(layers.decideMs().size())),
               "%");
    static constexpr std::array<const char *,
                                telemetry::kNumInvalidationReasons>
        kInvalidationMetric = {
            "", "core.invalidation.cold", "core.invalidation.refresh",
            "core.invalidation.churn", "core.invalidation.load-drift",
            "core.invalidation.tail-floor", "core.invalidation.lc-slack",
            "core.invalidation.budget-shift",
            "core.invalidation.revalidate"};
    for (std::size_t r = 1; r < kInvalidationMetric.size(); ++r)
        out.count(kInvalidationMetric[r], c.invalidations[r]);
    double residualPct = 0.0;
    if (nodeFull) {
        const double outsideMs =
            ratio(sumOf(traced.decideMs),
                  static_cast<double>(traced.decideMs.size()));
        residualPct = 100.0 * ratio(outsideMs - insideMs, outsideMs);
        if (residualPct > kMaxResidualPct) {
            out.fail("decideInto residual " + std::to_string(residualPct) +
                     "% is above 5%");
        }
    }
    out.metric("core.decide_residual_pct", residualPct, "%");

    out.metric("cf.reconstruct_ms_full", layers.reconstructFullMs(), "ms");
    const double fullRecords = static_cast<double>(c.timed - c.fastReuse);
    out.metric("search.dds_ms_full", layers.searchFullMs(), "ms");
    out.metric("search.evaluations_full",
               ratio(static_cast<double>(c.fullEvaluations), fullRecords),
               "count");
    out.metric("search.revalidate_ms", layers.revalidateMs(), "ms");

    const double nodePhaseMs =
        1e3 *
        ratio(layers.allPhasesSec(), static_cast<double>(traced.timedSteps));
    const double slots =
        static_cast<double>(ThreadPool::global().slotCount());
    const double parallelEff =
        ratio(layers.allPhasesSec(), traced.wallSec * slots);
    const std::vector<double> tracedStepMs = traced.fastestStepMs();
    out.metric("cluster.step_ms_p50", percentile(tracedStepMs, 50.0), "ms");
    out.metric("cluster.node_phase_ms", nodePhaseMs, "ms");
    out.metric("cluster.parallel_eff", parallelEff, "ratio");
    if (parallelEff > 1.0)
        out.fail("cluster.parallel_eff is above 1");
    // Counters of the committed seed's episode: exact per commit.
    const cluster::FleetSummary &s = traced.seeds[0].summary;
    out.count("cluster.placements", s.placements);
    out.count("cluster.placement_stalls", s.placementStalls);
    out.count("cluster.preemptions", s.preemptions);
    out.count("cluster.load_shifts", s.loadShifts);
    out.count("cluster.dropped_arrivals", s.droppedArrivals);
    out.count("cluster.dropped_queued", s.droppedQueued);
    out.metric("cluster.drop_pct", dropPct(s), "%");

    out.count("memo.lookups", s.memoLookups);
    out.count("memo.hits", s.memoHits);
    out.count("memo.stores", s.memoStores);
    out.metric("memo.hit_ratio",
               ratio(static_cast<double>(s.memoHits),
                     static_cast<double>(s.memoLookups)),
               "ratio");

    out.count("dag.workflows_completed", s.workflowsCompleted);
    out.metric("dag.artifact_hit_ratio", s.artifactHitRate, "ratio");
    out.metric("dag.transfer_mb", s.transferBytes / (1024.0 * 1024.0),
               "MB");
    out.count("dag.evictions", s.artifactEvictions);
    out.metric("dag.makespan_gmean_quanta", s.gmeanMakespanQuanta,
               "quanta");

    // Both halves time the same episodes, quantum by quantum.
    out.metric("telemetry.overhead_pct",
               100.0 * (ratio(sumOf(tracedStepMs),
                              sumOf(plain.fastestStepMs())) -
                        1.0),
               "%");
    out.count("telemetry.records", c.records);
}

void
checkReplay(Report &out, const Measurement &m, const char *half)
{
    if (m.replayMismatches > 0) {
        out.fail(std::string(half) + ": a repeated episode did not "
                 "replay the first one bitwise");
    }
}

/** Digest of every seed's first episode, quantum by quantum. */
std::uint64_t
digestOf(const Measurement &m)
{
    Digest d;
    for (const SeedTiming &seed : m.seeds) {
        for (std::uint64_t s : seed.digests)
            d.add(s);
    }
    return d.value();
}

/** Whether two measurements ran the same episodes. */
bool
sameEpisodes(const Measurement &a, const Measurement &b)
{
    for (std::size_t k = 0; k < kRoundSeeds; ++k) {
        if (!sameResults(a.seeds[k].summary, b.seeds[k].summary) ||
            a.seeds[k].digests != b.seeds[k].digests)
            return false;
    }
    return true;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "cs_bench: %s\nusage: cs_bench --workload "
                 "{node-full|fleet-calm|fleet-churn|fleet-dag} [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE] "
                 "[--smoke]\n",
                 why);
    std::exit(2);
}

Config
parseArgs(int argc, char **argv)
{
    Config cfg;
    std::optional<std::uint64_t> seed;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (arg == "--workload") {
            const std::string_view name = value();
            for (const Workload &w : kWorkloads) {
                if (name == w.name)
                    cfg.workload = &w;
            }
            if (!cfg.workload)
                usage("unknown workload");
        } else if (arg == "--seed") {
            seed = std::strtoull(value(), nullptr, 10);
        } else if (arg == "--seconds") {
            cfg.seconds = std::atof(value());
            if (!(cfg.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (arg == "--trace") {
            const std::string_view v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            cfg.trace = v == "1";
        } else if (arg == "--trace-out") {
            cfg.traceOut = value();
        } else if (arg == "--smoke") {
            cfg.smoke = true;
        } else {
            usage("unknown argument");
        }
    }
    if (!cfg.workload)
        usage("--workload is required");
    cfg.seed = seed.value_or(cfg.workload->seed);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point start = Clock::now();
    const Config cfg = parseArgs(argc, argv);
    setInformEnabled(false);

    // The pool sizes itself from CS_POOL_THREADS on first use; the
    // caller's value wins.
    const std::size_t cpus = visibleCpus();
    const std::string width = std::to_string(cpus > 1 ? cpus - 1 : 1);
    setenv("CS_POOL_THREADS", width.c_str(), 0);

    std::printf("# workload %s\n# seed %llu\n# compiler %s\n"
                "# build_type %s\n# nproc %zu\n# CS_POOL_THREADS %s\n"
                "# pool_slots %zu\n# kernels %s\n# nodes %zu\n"
                "# quanta_per_episode %zu\n# trace %d\n",
                cfg.workload->name,
                static_cast<unsigned long long>(cfg.seed),
                CS_BENCH_COMPILER, CS_BENCH_BUILD_TYPE, cpus,
                std::getenv("CS_POOL_THREADS"),
                ThreadPool::global().slotCount(), kernels::backendName(),
                cfg.nodes(), cfg.quanta(), cfg.trace ? 1 : 0);

    SpanLog spans;
    if (cfg.trace)
        spans.enable(start);
    Report out(cfg.workload->name);
    Runner runner(cfg, spans);
    try {
        // Each set-up is followed by its share of the measurement (a
        // traced run splits every share between untraced and traced
        // rounds); a smoke run sets up once and runs one round each.
        const std::size_t reps = cfg.smoke ? 1 : kSetupReps;
        const double share = cfg.smoke
            ? 0.0
            : cfg.seconds / static_cast<double>(reps * (cfg.trace ? 2 : 1));
        std::vector<Setup> setups;
        Measurement plain;
        Measurement traced;
        LayerSink layers;
        for (std::size_t r = 0; r < reps; ++r) {
            setups.push_back(runner.setUp());
            runner.measure(plain, share, nullptr);
            if (cfg.trace)
                runner.measure(traced, share, &layers);
        }
        checkReplay(out, plain, "untraced");
        reportEndToEnd(out, cfg, setups, plain);
        std::printf("# digest %016llx\n",
                    static_cast<unsigned long long>(digestOf(plain)));
        if (cfg.trace) {
            checkReplay(out, traced, "traced");
            if (!sameEpisodes(traced, plain))
                out.fail("the traced run diverged from the untraced run");
            reportLayers(out, cfg, setups, plain, traced, layers);
            if (!cfg.traceOut.empty() && !spans.write(cfg.traceOut))
                out.fail("cannot write " + cfg.traceOut);
        }
    } catch (const std::exception &e) {
        // A Panic-mode validator (or any other failure) aborted the
        // run: every quantum that did not run counts as failed.
        std::fprintf(stderr, "cs_bench: run aborted: %s\n", e.what());
        out.fail("run aborted");
        runner.abort();
    }
    out.count("ops", runner.attempted());
    out.count("failed_ops", runner.failed());
    if (runner.failed() > 0)
        out.fail(std::to_string(runner.failed()) + " failed ops");
    return out.ok() ? 0 : 1;
}
