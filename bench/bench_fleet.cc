/**
 * @file
 * Fleet bench: the shipped FleetController, timed and A/B'd.
 *
 * Controller overhead: real fleets (per-node simulators, masstree LC
 * tier, the fleet_sim placement-comparison churn day) of N = 16 / 64
 * / 256 nodes, plus 1024 in the full run, are stepped quantum by
 * quantum, and FleetController::lastStepSeconds() splits each
 * stepQuantum() into its controller phases (churn, view gather,
 * place, power split, load shift, accounting + trace gather) and the
 * parallel node step. Per N the curve reports the median and p90
 * controller µs per quantum, the per-phase medians, the node-step
 * wall time, the controller's share of the 100 ms decision quantum,
 * and the residual between the phase sum and the bench's own
 * stepQuantum() wall time.
 *
 * Incremental decisions: the same real fleet rides a calm diurnal
 * day twice per fleet size — stability gate on vs. --no-fastpath
 * always-full — and reports the mean per-node decision time (ingest,
 * reconstruct, search, enforce), the node-step wall time per cluster
 * quantum, the fast-path hit rate, and the QoS / batch-Ginstr deltas
 * the reuse costs.
 *
 * DAG data gravity: the churn day with DAG workflow arrivals runs
 * twice — locality-aware placement vs the locality-blind baseline
 * (transfers modeled and charged in both) — and reports completed
 * workflows, gmean makespan, artifact hit rate, transfer volume, and
 * the QoS / Ginstr deltas.
 *
 * Every fleet runs under the same test-speed scheduler caps
 * (RealStack::fleetOptions). Results land in BENCH_fleet.json, which
 * opens with the run's provenance.
 *
 * --smoke (16/64/256-node curve, 16-node A/Bs): exit nonzero unless
 * the median controller µs per quantum at N=256 is at most 8x the
 * N=64 median (a scaling exponent below 1.5), the phase sum is
 * within 5% of the stepQuantum() wall time at the median for every
 * N, the incremental A/B shows >= 2.5x mean decision-time reduction
 * at a >= 50% hit rate with QoS within 1 point and batch Ginstr
 * within 1%, and the dag A/B completes workflows with locality-aware
 * gmean makespan strictly below blind at unchanged QoS and batch
 * throughput. The controller's heap freedom and width determinism
 * are gated elsewhere: tests/common/zeroalloc_test.cc and the CI
 * fleet_replay_check runs at CS_POOL_THREADS 1/4/8.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/app_profile.hh"
#include "apps/gallery.hh"
#include "bench_common.hh"
#include "cluster/fleet.hh"
#include "cluster/placement.hh"
#include "core/training.hh"
#include "lcsim/calibrate.hh"
#include "power/power_model.hh"
#include "telemetry/trace_sink.hh"

using namespace cuttlesys;
using namespace cuttlesys::cluster;

namespace {

using Clock = std::chrono::steady_clock;

/** Microseconds elapsed since @p t0. */
double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     t0).count();
}

/** Everything the offline stack needs to build real fleets once. */
struct RealStack
{
    SystemParams params;
    TrainTestSplit split = splitSpecGallery();
    std::vector<AppProfile> services = tailbenchGallery();
    AppProfile lc;
    TrainingTables tables;
    double nodeMaxW = 0.0;

    RealStack()
    {
        calibrateMaxQps(services, params);
        for (const AppProfile &s : services) {
            if (s.name == "masstree")
                lc = s;
        }
        TrainingOptions topts;
        topts.latencyLoads = {0.25, 0.55, 0.85};
        tables = buildTrainingTables(split.train, services, params,
                                     topts);
        nodeMaxW = systemMaxPower(split.test, params);
    }

    /** An @p n-node fleet over a @p quanta-quantum compressed day. */
    FleetOptions
    fleetOptions(std::size_t n, std::size_t quanta,
                 std::uint64_t seed) const
    {
        FleetOptions opts;
        opts.numNodes = n;
        opts.seed = seed;
        opts.scenario.daySeconds =
            static_cast<double>(quanta) * params.timesliceSec;
        opts.scenario.peakWindowStartSec =
            0.375 * opts.scenario.daySeconds;
        opts.scenario.peakWindowEndSec =
            0.75 * opts.scenario.daySeconds;
        // Test-speed reconstruction budgets: each A/B compares two
        // arms under identical search settings, so the *ratio* is
        // representative while the absolute full-quantum cost stays
        // benchable at 1024 nodes.
        opts.scheduler.sgdBips.maxIterations = 40;
        opts.scheduler.sgdPower.maxIterations = 40;
        opts.scheduler.sgdLatency.maxIterations = 40;
        opts.scheduler.dds.maxIterations = 25;
        opts.scheduler.dds.threads = 4;
        return opts;
    }

    /**
     * The fleet_sim placement-comparison day: churn hot enough that
     * slots free every few quanta and a scarce rack budget, so
     * placement is busy every quantum.
     */
    FleetOptions
    churnDayOptions(std::size_t n, std::size_t quanta) const
    {
        FleetOptions opts = fleetOptions(n, quanta, 2026);
        opts.rackBudgetFrac = 0.55;
        opts.churn.departureProbability = 0.06;
        opts.churn.meanArrivalsPerQuantum =
            0.5 * static_cast<double>(n);
        return opts;
    }
};

// ---------------------------------------------------------------------
// Controller overhead: the shipped FleetController, phase by phase.

/** Quanta excluded from the curve (cold caches, first placements). */
constexpr std::size_t kCurveWarmQuanta = 2;

/** Linear-interpolated @p q quantile of @p v. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** One fleet size on the curve: per-quantum medians and spread. */
struct CurvePoint
{
    std::size_t nodes = 0;
    std::size_t quanta = 0;          //!< measured (post-warm-up)
    double controllerUs = 0.0;       //!< median, all but the node step
    double controllerUsP90 = 0.0;
    double phaseUs[kNumStepPhases] = {}; //!< per-phase medians
    double stepWallUs = 0.0;         //!< median bench-timed step
    double residualPct = 0.0;        //!< median (wall - sum) / wall
    double sharePct = 0.0;           //!< median controller / quantum
};

CurvePoint
measureController(const RealStack &stack, std::size_t n,
                  std::size_t quanta)
{
    BackfillBinPack backfill;
    FleetController fleet(stack.params, stack.tables, stack.lc,
                          stack.split.test, stack.nodeMaxW, backfill,
                          stack.churnDayOptions(
                              n, kCurveWarmQuanta + quanta));
    constexpr std::size_t kNodeStep =
        static_cast<std::size_t>(StepPhase::NodeStep);
    std::vector<double> phases[kNumStepPhases];
    std::vector<double> controller, wall, residual;
    while (!fleet.done()) {
        const Clock::time_point t0 = Clock::now();
        fleet.stepQuantum();
        const double us = usSince(t0);
        if (fleet.nextQuantum() <= kCurveWarmQuanta)
            continue;
        const StepSeconds &sec = fleet.lastStepSeconds();
        double sum = 0.0;
        for (std::size_t p = 0; p < kNumStepPhases; ++p) {
            phases[p].push_back(sec[p] * 1e6);
            sum += sec[p] * 1e6;
        }
        controller.push_back(sum - sec[kNodeStep] * 1e6);
        wall.push_back(us);
        residual.push_back(100.0 * (us - sum) / us);
    }

    CurvePoint pt;
    pt.nodes = n;
    pt.quanta = wall.size();
    pt.controllerUs = quantile(controller, 0.5);
    pt.controllerUsP90 = quantile(controller, 0.9);
    for (std::size_t p = 0; p < kNumStepPhases; ++p)
        pt.phaseUs[p] = quantile(phases[p], 0.5);
    pt.stepWallUs = quantile(wall, 0.5);
    pt.residualPct = quantile(residual, 0.5);
    pt.sharePct =
        100.0 * pt.controllerUs / (stack.params.timesliceSec * 1e6);
    return pt;
}

// ---------------------------------------------------------------------
// Incremental decisions: the real FleetController, A/B vs always-full.

/** Quanta of warm-up excluded from the steady-state decision means
 *  (cold-start fulls and the first anchor updates). */
constexpr std::size_t kAbWarmQuanta = 4;

/** One arm of the A/B: a full diurnal fleet run, instrumented. */
struct AbArm
{
    double decisionUs = 0.0; //!< mean per-node decision time, steady
    double phaseUs[telemetry::kNumPhases] = {}; //!< per node-quantum
    double stepUs = 0.0;     //!< mean cluster-quantum wall time
    std::size_t invalidations[telemetry::kNumInvalidationReasons] =
        {}; //!< why full quanta ran (steady records)
    FleetSummary summary;
};

AbArm
runAbArm(const RealStack &stack, std::size_t n, std::size_t quanta,
         bool fastpath)
{
    telemetry::MemorySink sink;
    FleetOptions opts = stack.fleetOptions(n, quanta, 42);
    // The calm diurnal fleet the incremental path targets: replicas
    // ride a moderate wave with light churn, so steady-state quanta
    // dominate and the stability gate earns its keep. The compressed
    // day makes per-quantum load deltas ~2000x a real day's, so the
    // wave stays inside [0.45, 0.80] — at the default [0.15, 0.95]
    // every quantum near the trough or the peak legitimately trips
    // the drift and tail-guard checks, which measures the scenario's
    // aggression, not the fast path.
    opts.scenario.loadTrough = 0.45;
    opts.scenario.loadPeak = 0.80;
    opts.loadScaleMin = 1.0;
    opts.loadScaleMax = 1.0;
    opts.churn.departureProbability = 0.002;
    opts.churn.meanArrivalsPerQuantum =
        0.01 * static_cast<double>(n);
    // Same compression argument for application phases: the sim's
    // unit-test default cycles a job's memory intensity every 7
    // timeslices, i.e. the job changes identity faster than any
    // scheduler — full or incremental — can track it. Real phases
    // span many decision quanta; 28 timeslices keeps drift live (the
    // refresh cadence still has work to do) without reducing the A/B
    // to a profile-oscillator microbenchmark.
    opts.phaseDriftPeriodSec = 28.0 * stack.params.timesliceSec;
    opts.sink = &sink;
    if (!fastpath)
        opts.scheduler.fastPath = false;

    BackfillBinPack backfill;
    FleetController fleet(stack.params, stack.tables, stack.lc,
                          stack.split.test, stack.nodeMaxW, backfill,
                          opts);
    AbArm arm;
    double stepUsSum = 0.0;
    std::size_t steps = 0;
    while (!fleet.done()) {
        const Clock::time_point t0 = Clock::now();
        fleet.stepQuantum();
        const double us = usSince(t0);
        if (fleet.nextQuantum() > kAbWarmQuanta) {
            stepUsSum += us;
            ++steps;
        }
    }
    arm.summary = fleet.summary();
    arm.stepUs = steps > 0 ? stepUsSum / static_cast<double>(steps)
                           : 0.0;

    // Mean per-node decision time over the steady records: the
    // scheduler-side phases only (ingest + reconstruct + search +
    // enforce) — profiling and slice execution are driver cost either
    // way.
    std::size_t records = 0;
    for (const telemetry::QuantumRecord &r : sink.records()) {
        if (r.slice < kAbWarmQuanta)
            continue;
        ++records;
        if (r.decisionPath != telemetry::DecisionPath::None &&
            r.decisionPath != telemetry::DecisionPath::FastReuse) {
            ++arm.invalidations[static_cast<std::size_t>(
                r.invalidationReason)];
        }
        for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
            arm.phaseUs[p] += r.phaseSec[p] * 1e6;
        arm.decisionUs +=
            (r.phase(telemetry::Phase::Ingest) +
             r.phase(telemetry::Phase::Reconstruct) +
             r.phase(telemetry::Phase::Search) +
             r.phase(telemetry::Phase::Enforce)) * 1e6;
    }
    if (records > 0) {
        arm.decisionUs /= static_cast<double>(records);
        for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
            arm.phaseUs[p] /= static_cast<double>(records);
    }
    return arm;
}

/** One fleet size's A/B outcome. */
struct AbPoint
{
    std::size_t nodes = 0;
    std::size_t quanta = 0;
    AbArm on;  //!< stability gate on (shipped default)
    AbArm off; //!< --no-fastpath always-full baseline
    double decisionSpeedup = 0.0;
    double qosDeltaPts = 0.0;    //!< on - off, percentage points
    double ginstrRelDelta = 0.0; //!< |on/off - 1|
};

AbPoint
measureIncremental(const RealStack &stack, std::size_t n,
                   std::size_t quanta)
{
    AbPoint pt;
    pt.nodes = n;
    pt.quanta = quanta;
    pt.off = runAbArm(stack, n, quanta, /*fastpath=*/false);
    pt.on = runAbArm(stack, n, quanta, /*fastpath=*/true);
    pt.decisionSpeedup = pt.on.decisionUs > 0.0
        ? pt.off.decisionUs / pt.on.decisionUs
        : 0.0;
    pt.qosDeltaPts =
        pt.on.summary.clusterQosPct - pt.off.summary.clusterQosPct;
    pt.ginstrRelDelta = pt.off.summary.totalBatchInstructions > 0.0
        ? std::fabs(pt.on.summary.totalBatchInstructions /
                        pt.off.summary.totalBatchInstructions -
                    1.0)
        : 0.0;
    return pt;
}

/**
 * One arm of the data-gravity A/B: the fleet_sim --dag configuration
 * — the churn day, plus DAG workflows whose tasks publish and consume
 * content-addressed artifacts through the per-node caches. The two
 * arms differ only in dag.localityAware — whether placement sees the
 * per-node resident-byte deltas — so any makespan gap is the gravity
 * term's doing.
 */
FleetSummary
runDagArm(const RealStack &stack, std::size_t n, std::size_t quanta,
          bool aware)
{
    FleetOptions opts = stack.churnDayOptions(n, quanta);
    opts.dag.enable = true;
    opts.dag.maxLiveWorkflows = 2 * n;
    opts.dag.localityAware = aware;
    opts.churn.meanWorkflowArrivalsPerQuantum =
        0.05 * static_cast<double>(n);

    BackfillBinPack backfill;
    FleetController fleet(stack.params, stack.tables, stack.lc,
                          stack.split.test, stack.nodeMaxW, backfill,
                          opts);
    fleet.run();
    return fleet.summary();
}

/** One fleet size's data-gravity A/B outcome. */
struct DagPoint
{
    std::size_t nodes = 0;
    std::size_t quanta = 0;
    FleetSummary aware;
    FleetSummary blind;
    double makespanRelDelta = 0.0; //!< aware/blind - 1 (neg = win)
    double qosDeltaPts = 0.0;      //!< aware - blind, pct points
    double ginstrRelDelta = 0.0;   //!< aware/blind - 1, signed
};

DagPoint
measureDag(const RealStack &stack, std::size_t n, std::size_t quanta)
{
    DagPoint pt;
    pt.nodes = n;
    pt.quanta = quanta;
    pt.blind = runDagArm(stack, n, quanta, /*aware=*/false);
    pt.aware = runDagArm(stack, n, quanta, /*aware=*/true);
    pt.makespanRelDelta = pt.blind.gmeanMakespanQuanta > 0.0
        ? pt.aware.gmeanMakespanQuanta /
                pt.blind.gmeanMakespanQuanta - 1.0
        : 0.0;
    pt.qosDeltaPts =
        pt.aware.clusterQosPct - pt.blind.clusterQosPct;
    pt.ginstrRelDelta = pt.blind.totalBatchInstructions > 0.0
        ? pt.aware.totalBatchInstructions /
                pt.blind.totalBatchInstructions -
            1.0
        : 0.0;
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    std::printf("==============================================="
                "=========================\n");
    std::printf("bench_fleet — the shipped FleetController: controller "
                "overhead, incremental\n");
    std::printf("decisions, and DAG data gravity on real fleets\n");
    std::printf("-----------------------------------------------"
                "-------------------------\n");

    const RealStack stack;
    std::vector<std::size_t> sizes = {16, 64, 256};
    if (!smoke)
        sizes.push_back(1024);
    const std::size_t curveQuanta = smoke ? 12 : 16;
    std::vector<CurvePoint> curve;
    for (const std::size_t n : sizes)
        curve.push_back(measureController(stack, n, curveQuanta));

    // The real-fleet incremental-decisions A/B. Smoke keeps CI fast
    // with the 16-node day; the full run sweeps 16 to 1024 nodes.
    std::vector<AbPoint> ab;
    if (smoke) {
        ab.push_back(measureIncremental(stack, 16, 40));
    } else {
        ab.push_back(measureIncremental(stack, 16, 40));
        ab.push_back(measureIncremental(stack, 64, 40));
        ab.push_back(measureIncremental(stack, 256, 24));
        ab.push_back(measureIncremental(stack, 1024, 12));
    }
    const AbPoint &gatePt = ab.front();

    // The DAG data-gravity A/B: locality-aware vs blind placement on
    // the churn day with churned workflow arrivals.
    std::vector<DagPoint> dagPts;
    if (smoke) {
        dagPts.push_back(measureDag(stack, 16, 40));
    } else {
        dagPts.push_back(measureDag(stack, 16, 40));
        dagPts.push_back(measureDag(stack, 64, 40));
        dagPts.push_back(measureDag(stack, 256, 24));
    }
    const DagPoint &dagGate = dagPts.front();

    std::printf("controller overhead — fleet_sim churn day, %zu "
                "measured quanta per N (medians)\n", curveQuanta);
    std::printf("%7s %12s %12s %8s %14s %10s\n", "nodes",
                "ctl us p50", "ctl us p90", "share%", "node-step us",
                "residual%");
    double ctlAt64 = 0.0;
    double ctlAt256 = 0.0;
    double worstResidualPct = 0.0;
    for (const CurvePoint &pt : curve) {
        std::printf("%7zu %12.1f %12.1f %7.3f%% %14.1f %+9.3f%%\n",
                    pt.nodes, pt.controllerUs, pt.controllerUsP90,
                    pt.sharePct,
                    pt.phaseUs[static_cast<std::size_t>(
                        StepPhase::NodeStep)],
                    pt.residualPct);
        if (pt.nodes == 64)
            ctlAt64 = pt.controllerUs;
        if (pt.nodes == 256)
            ctlAt256 = pt.controllerUs;
        worstResidualPct =
            std::max(worstResidualPct, std::fabs(pt.residualPct));
    }
    const double scaling = ctlAt64 > 0.0 ? ctlAt256 / ctlAt64 : 0.0;
    std::printf("controller us/quantum N=256 / N=64: %.2fx\n",
                scaling);

    std::printf("\nper-phase medians (us/quantum):\n%7s", "nodes");
    for (std::size_t p = 0; p < kNumStepPhases; ++p)
        std::printf(" %10s", stepPhaseName(static_cast<StepPhase>(p)));
    std::printf("\n");
    for (const CurvePoint &pt : curve) {
        std::printf("%7zu", pt.nodes);
        for (std::size_t p = 0; p < kNumStepPhases; ++p)
            std::printf(" %10.1f", pt.phaseUs[p]);
        std::printf("\n");
    }

    std::printf("\n-----------------------------------------------"
                "-------------------------\n");
    std::printf("incremental decisions — real fleet, diurnal day, "
                "gate vs always-full\n");
    std::printf("%7s %6s %12s %12s %8s %6s %9s %9s\n", "nodes",
                "quanta", "full us/dec", "fast us/dec", "speedup",
                "hit%", "dQoS(pt)", "dGinstr%");
    for (const AbPoint &pt : ab) {
        std::printf("%7zu %6zu %12.1f %12.1f %7.2fx %5.1f%% "
                    "%+9.2f %9.3f\n",
                    pt.nodes, pt.quanta, pt.off.decisionUs,
                    pt.on.decisionUs, pt.decisionSpeedup,
                    100.0 * pt.on.summary.fastPathHitRate,
                    pt.qosDeltaPts, 100.0 * pt.ginstrRelDelta);
    }
    std::printf("\nnode-step wall (us/cluster-quantum) and per-node "
                "decision phases at N=%zu:\n", gatePt.nodes);
    std::printf("%9s %10s", "", "step-wall");
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p) {
        std::printf(" %11s",
                    telemetry::phaseName(
                        static_cast<telemetry::Phase>(p)));
    }
    std::printf("\n%9s %10.1f", "always", gatePt.off.stepUs);
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
        std::printf(" %11.1f", gatePt.off.phaseUs[p]);
    std::printf("\n%9s %10.1f", "gate", gatePt.on.stepUs);
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
        std::printf(" %11.1f", gatePt.on.phaseUs[p]);
    std::printf("\ninvalidations:");
    for (std::size_t i = 0; i < telemetry::kNumInvalidationReasons;
         ++i) {
        if (gatePt.on.invalidations[i] > 0) {
            std::printf(
                " %s=%zu",
                telemetry::invalidationReasonName(
                    static_cast<telemetry::InvalidationReason>(i)),
                gatePt.on.invalidations[i]);
        }
    }
    std::printf("\ndecision split: full %zu, "
                "fast-reuse %zu of %zu node-quanta\n",
                gatePt.on.summary.fullQuanta,
                gatePt.on.summary.fastPathHits,
                gatePt.on.summary.fullQuanta +
                    gatePt.on.summary.fastPathHits);

    std::printf("\n-----------------------------------------------"
                "-------------------------\n");
    std::printf("dag workflows — data gravity: locality-aware vs "
                "locality-blind placement\n");
    std::printf("%7s %6s %5s %10s %10s %8s %6s %9s %9s %9s\n",
                "nodes", "quanta", "wfs", "gmean(aw)", "gmean(bl)",
                "dMk%", "hit%", "xfer(MB)", "dQoS(pt)", "dGinstr%");
    for (const DagPoint &pt : dagPts) {
        std::printf("%7zu %6zu %5zu %10.2f %10.2f %+7.2f %5.1f%% "
                    "%9.2f %+9.2f %+9.3f\n",
                    pt.nodes, pt.quanta,
                    pt.aware.workflowsCompleted,
                    pt.aware.gmeanMakespanQuanta,
                    pt.blind.gmeanMakespanQuanta,
                    100.0 * pt.makespanRelDelta,
                    100.0 * pt.aware.artifactHitRate,
                    pt.aware.transferBytes / (1024.0 * 1024.0),
                    pt.qosDeltaPts, 100.0 * pt.ginstrRelDelta);
    }

    if (FILE *f = std::fopen("BENCH_fleet.json", "w")) {
        std::fprintf(f, "{\n");
        bench::writeProvenance(f, curveQuanta);
        std::fprintf(f,
                     "  \"placement_policy\": \"%s\",\n"
                     "  \"quantum_us\": %.0f,\n"
                     "  \"curve\": [\n",
                     BackfillBinPack().name(),
                     stack.params.timesliceSec * 1e6);
        for (std::size_t i = 0; i < curve.size(); ++i) {
            const CurvePoint &pt = curve[i];
            std::fprintf(f,
                         "    {\"nodes\": %zu, \"quanta\": %zu, "
                         "\"controller_us_p50\": %.1f, "
                         "\"controller_us_p90\": %.1f, "
                         "\"controller_share_pct\": %.4f, "
                         "\"step_wall_us_p50\": %.1f, "
                         "\"residual_pct\": %.4f, "
                         "\"phase_us_p50\": {",
                         pt.nodes, pt.quanta, pt.controllerUs,
                         pt.controllerUsP90, pt.sharePct,
                         pt.stepWallUs, pt.residualPct);
            for (std::size_t p = 0; p < kNumStepPhases; ++p) {
                std::fprintf(f, "\"%s\": %.1f%s",
                             stepPhaseName(static_cast<StepPhase>(p)),
                             pt.phaseUs[p],
                             p + 1 < kNumStepPhases ? ", " : "");
            }
            std::fprintf(f, "}}%s\n", i + 1 < curve.size() ? "," : "");
        }
        std::fprintf(f,
                     "  ],\n"
                     "  \"incremental\": [\n");
        for (std::size_t i = 0; i < ab.size(); ++i) {
            const AbPoint &pt = ab[i];
            std::fprintf(
                f,
                "    {\"nodes\": %zu, \"quanta\": %zu, "
                "\"full_us_per_decision\": %.2f, "
                "\"fast_us_per_decision\": %.2f, "
                "\"decision_speedup\": %.3f, "
                "\"fast_path_hit_rate\": %.4f, "
                "\"step_wall_us_on\": %.1f, "
                "\"step_wall_us_off\": %.1f, "
                "\"qos_pct_on\": %.3f, \"qos_pct_off\": %.3f, "
                "\"ginstr_on\": %.1f, \"ginstr_off\": %.1f, "
                "\"ginstr_rel_delta\": %.5f}%s\n",
                pt.nodes, pt.quanta, pt.off.decisionUs,
                pt.on.decisionUs, pt.decisionSpeedup,
                pt.on.summary.fastPathHitRate, pt.on.stepUs,
                pt.off.stepUs, pt.on.summary.clusterQosPct,
                pt.off.summary.clusterQosPct,
                pt.on.summary.totalBatchInstructions,
                pt.off.summary.totalBatchInstructions,
                pt.ginstrRelDelta, i + 1 < ab.size() ? "," : "");
        }
        std::fprintf(f,
                     "  ],\n"
                     "  \"dag\": [\n");
        for (std::size_t i = 0; i < dagPts.size(); ++i) {
            const DagPoint &pt = dagPts[i];
            std::fprintf(
                f,
                "    {\"nodes\": %zu, \"quanta\": %zu, "
                "\"workflows_completed_aware\": %zu, "
                "\"workflows_completed_blind\": %zu, "
                "\"gmean_makespan_aware\": %.4f, "
                "\"gmean_makespan_blind\": %.4f, "
                "\"makespan_rel_delta\": %.5f, "
                "\"artifact_hit_rate_aware\": %.4f, "
                "\"artifact_hit_rate_blind\": %.4f, "
                "\"transfer_bytes_aware\": %.0f, "
                "\"transfer_bytes_blind\": %.0f, "
                "\"qos_delta_pts\": %.3f, "
                "\"ginstr_aware\": %.1f, \"ginstr_blind\": %.1f, "
                "\"ginstr_rel_delta\": %.5f}%s\n",
                pt.nodes, pt.quanta, pt.aware.workflowsCompleted,
                pt.blind.workflowsCompleted,
                pt.aware.gmeanMakespanQuanta,
                pt.blind.gmeanMakespanQuanta, pt.makespanRelDelta,
                pt.aware.artifactHitRate, pt.blind.artifactHitRate,
                pt.aware.transferBytes, pt.blind.transferBytes,
                pt.qosDeltaPts, pt.aware.totalBatchInstructions,
                pt.blind.totalBatchInstructions, pt.ginstrRelDelta,
                i + 1 < dagPts.size() ? "," : "");
        }
        std::fprintf(f,
                     "  ],\n"
                     "  \"controller_ratio_256_64\": %.3f,\n"
                     "  \"max_abs_residual_pct\": %.4f,\n"
                     "  \"decision_speedup\": %.3f,\n"
                     "  \"fast_path_hit_rate\": %.4f\n"
                     "}\n",
                     scaling, worstResidualPct,
                     gatePt.decisionSpeedup,
                     gatePt.on.summary.fastPathHitRate);
        std::fclose(f);
        std::printf("wrote BENCH_fleet.json\n");
    }

    if (smoke) {
        bool ok = true;
        // Placement is score-once + heap commit, O(N + jobs log N),
        // and jobs grow with N: a per-job O(N) rescan would turn 4x
        // the nodes into ~16x the time. 8x is a scaling exponent of
        // 1.5.
        if (scaling > 8.0) {
            std::printf("SMOKE FAIL: controller us/quantum at N=256 "
                        "is %.2fx N=64 (max 8x)\n", scaling);
            ok = false;
        }
        if (worstResidualPct > 5.0) {
            std::printf("SMOKE FAIL: phase sum misses the "
                        "stepQuantum() wall time by %.2f%% at the "
                        "median (max 5%%)\n", worstResidualPct);
            ok = false;
        }
        if (gatePt.decisionSpeedup < 2.5) {
            std::printf("SMOKE FAIL: incremental decision speedup "
                        "%.2fx < 2.5x (N=%zu)\n",
                        gatePt.decisionSpeedup, gatePt.nodes);
            ok = false;
        }
        if (gatePt.on.summary.fastPathHitRate < 0.5) {
            std::printf("SMOKE FAIL: fast-path hit rate %.1f%% < "
                        "50%% on the diurnal day\n",
                        100.0 * gatePt.on.summary.fastPathHitRate);
            ok = false;
        }
        if (std::fabs(gatePt.qosDeltaPts) > 1.0) {
            std::printf("SMOKE FAIL: QoS delta %+.2f points vs "
                        "always-full (|tol| 1.0)\n",
                        gatePt.qosDeltaPts);
            ok = false;
        }
        if (gatePt.ginstrRelDelta > 0.01) {
            std::printf("SMOKE FAIL: batch Ginstr drifts %.2f%% vs "
                        "always-full (tol 1%%)\n",
                        100.0 * gatePt.ginstrRelDelta);
            ok = false;
        }
        if (dagGate.aware.workflowsCompleted == 0) {
            std::printf("SMOKE FAIL: dag A/B completed no "
                        "workflows\n");
            ok = false;
        }
        if (dagGate.makespanRelDelta >= 0.0) {
            std::printf("SMOKE FAIL: locality-aware gmean makespan "
                        "%.2f not below blind %.2f (dag win "
                        "missing)\n",
                        dagGate.aware.gmeanMakespanQuanta,
                        dagGate.blind.gmeanMakespanQuanta);
            ok = false;
        }
        if (std::fabs(dagGate.qosDeltaPts) > 1.0) {
            std::printf("SMOKE FAIL: dag QoS delta %+.2f points vs "
                        "blind (|tol| 1.0)\n", dagGate.qosDeltaPts);
            ok = false;
        }
        // Asymmetric tolerance: the gravity term finishing MORE
        // batch work than blind placement is the win mechanism
        // (fewer slot-quanta burned on transfers); the regression
        // the gate guards against is locality bias starving batch
        // throughput.
        if (dagGate.ginstrRelDelta < -0.01) {
            std::printf("SMOKE FAIL: dag batch Ginstr %.2f%% below "
                        "blind placement (tol -1%%)\n",
                        100.0 * dagGate.ginstrRelDelta);
            ok = false;
        }
        if (ok)
            std::printf("SMOKE PASS\n");
        return ok ? 0 : 1;
    }
    return 0;
}
