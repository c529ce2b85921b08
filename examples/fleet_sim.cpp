/**
 * @file
 * Scenario: a rack of CuttleSys servers under one cluster brain.
 *
 * N replicas of a masstree-like service ride phase-staggered diurnal
 * waves (a fleet serving several time zones) while batch jobs churn
 * through the cluster: departures free slots, arrivals queue at the
 * controller and are placed by a Slurm-style policy, and a global
 * power manager re-splits the rack budget every quantum. The same
 * fleet (same seed, same churn stream) runs twice — once with
 * first-fit placement, once with headroom-scored backfill — so the
 * placement policies can be compared head-to-head.
 *
 * The backfill run's per-quantum trace is written to
 * fleet_trace.jsonl (one record per node per quantum, stamped with
 * the node index) for CI to archive.
 *
 * Usage: fleet_sim [--tenants] [--dag] [--no-fastpath]
 *                  [nodes] [day_seconds]
 *   nodes        fleet size (default 256; scales to 1024)
 *   day_seconds  compressed-day length (default 0.5 = 5 quanta;
 *                --dag defaults to 4.0 = 40 quanta so multi-task
 *                workflows actually run to completion)
 *
 * --no-fastpath disables the stability gate: every quantum runs the
 * full reconstruct + DDS pipeline, which reproduces the
 * pre-incremental controller's traces bitwise (the CI replay gate
 * holds fleet_trace.jsonl from this mode against the committed
 * reference).
 *
 * With --tenants the comparison switches from placement policies to
 * queue disciplines: the same churn stream runs once with no tenants
 * — a single anonymous account, whose fair-share queue is exactly
 * FIFO — and once with three accounts of skewed arrival weights but
 * equal fair-share entitlements, under fair-share ordering with
 * class-strict preemption. The per-tenant accounting table shows
 * what each account got; the three-tenant run's trace lands in
 * fleet_tenants_trace.jsonl (feed it to tools/sacct for the offline
 * accounting view).
 *
 * With --dag the churn stream also submits DAG workflows (chains,
 * diamonds, map/reduce fans from dag::standardWorkflowTemplates())
 * whose tasks produce and consume content-addressed artifacts, and
 * the comparison becomes a data-gravity A/B: the same fleet and the
 * same workflow stream run once with locality-blind backfill (every
 * non-resident input pays its modeled transfer quanta) and once with
 * the locality deltas steering tasks toward the nodes
 * already holding their inputs. The headline is the gmean workflow
 * makespan; the aware run's trace lands in fleet_dag_trace.jsonl.
 *
 * The per-node table is printed only for small fleets; at 256+ nodes
 * the cluster line and the policy comparison carry the story.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "apps/gallery.hh"
#include "apps/mix.hh"
#include "cluster/fleet.hh"
#include "common/logging.hh"
#include "core/cuttlesys.hh"
#include "core/training.hh"
#include "lcsim/calibrate.hh"
#include "power/power_model.hh"
#include "telemetry/trace_sink.hh"

using namespace cuttlesys;
using namespace cuttlesys::cluster;

namespace {

/** --no-fastpath: force every quantum down the full pipeline. */
bool gNoFastPath = false;

FleetOptions
makeFleetOptions(std::size_t nodes, double day_seconds,
                 telemetry::TraceSink *sink)
{
    FleetOptions opts;
    opts.numNodes = nodes;
    opts.seed = 2026;
    opts.scenario.daySeconds = day_seconds;
    // Keep the peak-price window at the same day-relative position
    // when the day is compressed or stretched.
    opts.scenario.peakWindowStartSec = 0.375 * day_seconds;
    opts.scenario.peakWindowEndSec = 0.75 * day_seconds;
    // A scarce rack budget is where placement matters: packing leaves
    // idle nodes stranding power at their floor while the packed
    // nodes starve.
    opts.rackBudgetFrac = 0.55;
    opts.churn.departureProbability = 0.06;
    opts.churn.meanArrivalsPerQuantum =
        0.5 * static_cast<double>(nodes);
    opts.sink = sink;
    if (gNoFastPath)
        opts.scheduler.fastPath = false;
    return opts;
}

/**
 * The 3-tenant skewed-arrival experiment: the heaviest submitter is
 * the lowest class, the lightest the highest — so fair-share ordering
 * and preemption have something to correct — while equal shares keep
 * the entitlement ratio at 1:1:1.
 */
std::vector<TenantSpec>
makeTenants()
{
    return {
        TenantSpec{.name = "ml-train", .arrivalWeight = 0.65,
                   .shares = 1.0, .qosClass = QosClass::Batch},
        TenantSpec{.name = "analytics", .arrivalWeight = 0.25,
                   .shares = 1.0, .qosClass = QosClass::Normal},
        TenantSpec{.name = "web-api", .arrivalWeight = 0.10,
                   .shares = 1.0, .qosClass = QosClass::Interactive},
    };
}

/** Per-node rows are readable up to about this fleet size. */
constexpr std::size_t kMaxNodeTableRows = 16;

void
printAccounts(const FleetSummary &s)
{
    std::printf("%-10s %-11s %6s %6s %6s %5s %5s %6s %6s %10s %9s %9s\n",
                "account", "class", "weight", "arr", "placed", "dropN",
                "dropQ", "preW", "preS", "core-sec", "Ginstr",
                "gmeanBIPS");
    for (const AccountSummary &a : s.accounts) {
        std::printf("%-10s %-11s %6.2f %6zu %6zu %5zu %5zu %6zu %6zu "
                    "%10.1f %9.1f %9.2f\n",
                    a.name.c_str(), qosClassName(a.qosClass),
                    a.arrivalWeight, a.arrivals, a.placements,
                    a.dropsNew, a.dropsQueued, a.preemptionsWon,
                    a.preemptionsSuffered, a.coreSeconds, a.ginstr,
                    a.gmeanBips);
    }
}

void
printDag(const FleetSummary &s)
{
    std::printf("dag: workflows %zu submitted / %zu completed "
                "(%zu dropped)  tasks %zu\n"
                "     artifacts %zu hit / %zu miss (%.1f%% hit, "
                "%zu evictions)  transfer %.1f MB\n"
                "     makespan gmean %.2f quanta (mean %.2f)\n",
                s.workflowsSubmitted, s.workflowsCompleted,
                s.workflowsDropped, s.dagTasksCompleted,
                s.artifactHits, s.artifactMisses,
                100.0 * s.artifactHitRate, s.artifactEvictions,
                s.transferBytes / (1024.0 * 1024.0),
                s.gmeanMakespanQuanta, s.meanMakespanQuanta);
}

void
printSummary(const FleetSummary &s)
{
    std::printf("placement=%s rack=%.0fW\n",
                s.placementPolicy.c_str(), s.rackBudgetW);
    if (s.nodes.size() <= kMaxNodeTableRows) {
        std::printf("%5s %7s %9s %9s %10s %9s %5s %5s\n", "node",
                    "QoS%", "job-gmean", "P(W)", "budget(W)",
                    "headroom", "arr", "dep");
        for (const NodeSummary &n : s.nodes) {
            std::printf(
                "%5zu %6.1f%% %9.2f %9.1f %10.1f %9.1f %5zu %5zu\n",
                n.node, n.qosPct, n.meanJobGmeanBips, n.meanPowerW,
                n.meanBudgetW, n.meanHeadroomW, n.arrivals,
                n.departures);
        }
    } else {
        std::printf("(per-node table suppressed at %zu nodes)\n",
                    s.nodes.size());
    }
    std::printf("cluster: QoS %.1f%%  job-gmean %.2f BIPS  batch "
                "%.1f Ginstr  power %.1f/%.0f W  churn %zu in / %zu "
                "out  placements %zu (stall-quanta %zu)  preempt %zu  "
                "dropQ %zu  load shifts %zu\n",
                s.clusterQosPct, s.jobGmeanBips,
                s.totalBatchInstructions * 1e-9, s.meanClusterPowerW,
                s.rackBudgetW, s.arrivals, s.departures, s.placements,
                s.placementStalls, s.preemptions, s.droppedQueued,
                s.loadShifts);
    if (s.fastPathHits + s.fullQuanta > 0) {
        std::printf("decision: full %zu  fast-reuse %zu  "
                    "hit-rate %.1f%%\n",
                    s.fullQuanta, s.fastPathHits,
                    100.0 * s.fastPathHitRate);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    bool tenantsMode = false;
    bool dagMode = false;
    std::size_t nodes = 256;
    double day_seconds = 0.5;
    std::size_t positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--tenants") {
            tenantsMode = true;
        } else if (arg == "--dag") {
            dagMode = true;
        } else if (arg == "--no-fastpath") {
            gNoFastPath = true;
        } else if (positional == 0) {
            nodes = static_cast<std::size_t>(std::atoi(argv[i]));
            ++positional;
        } else {
            day_seconds = std::atof(argv[i]);
            ++positional;
        }
    }
    // Multi-task workflows need tens of quanta to finish; give the
    // dag A/B a longer default day than the placement comparison.
    if (dagMode && positional < 2)
        day_seconds = 4.0;
    CS_ASSERT(nodes > 0 && day_seconds > 0.0,
              "usage: fleet_sim [--tenants] [--dag] [nodes>0] "
              "[day_seconds>0]");

    const SystemParams params;
    const TrainTestSplit split = splitSpecGallery();

    std::vector<AppProfile> services = tailbenchGallery();
    calibrateMaxQps(services, params);
    AppProfile lc;
    for (const AppProfile &s : services) {
        if (s.name == "masstree")
            lc = s;
    }
    const TrainingTables tables =
        buildTrainingTables(split.train, services, params);
    const double node_max_w = systemMaxPower(split.test, params);

    std::printf("fleet: %zu nodes x %zu quanta, masstree replicas on "
                "phase-staggered diurnal load, churning batch mix\n\n",
                nodes,
                CompressedDayScenario{.daySeconds = day_seconds}
                    .quanta(params.timesliceSec));

    if (tenantsMode) {
        // Same fleet, same churn stream, two queue disciplines: a
        // single anonymous tenant (its fair-share order is FIFO:
        // newcomers drop at the cap, nothing is preempted) against
        // three tenants under fair-share ordering with class-strict
        // preemption. Placement is backfill in both.
        // Queue discipline only matters under contention, so the
        // tenant day runs hotter than the placement comparison:
        // arrivals (1.5N/quantum) outpace departures (0.03/slot,
        // at most 0.48N even with every slot full) and the fleet
        // saturates within a few quanta — placement stalls, capacity
        // drops, and preemption all get exercised.
        BackfillBinPack backfill;
        FleetOptions fifoOpts =
            makeFleetOptions(nodes, day_seconds, nullptr);
        fifoOpts.churn.departureProbability = 0.03;
        fifoOpts.churn.meanArrivalsPerQuantum =
            1.5 * static_cast<double>(nodes);
        fifoOpts.churn.maxPendingJobs = 2 * nodes;
        FleetController fifoFleet(params, tables, lc, split.test,
                                  node_max_w, backfill, fifoOpts);
        const FleetSummary fifoSummary = fifoFleet.run();
        std::printf("--- single-tenant FIFO queue (baseline) ---\n");
        printSummary(fifoSummary);
        printAccounts(fifoSummary);

        telemetry::JsonlSink sink("fleet_tenants_trace.jsonl");
        FleetOptions fairOpts =
            makeFleetOptions(nodes, day_seconds, &sink);
        fairOpts.churn = fifoOpts.churn;
        fairOpts.tenants = makeTenants();
        FleetController fairFleet(params, tables, lc, split.test,
                                  node_max_w, backfill, fairOpts);
        const FleetSummary fairSummary = fairFleet.run();
        std::printf("\n--- fair-share queue + preemption ---\n");
        printSummary(fairSummary);
        printAccounts(fairSummary);

        // The two success metrics: per-tenant throughput spread under
        // equal shares, and the batch-work cost of reordering.
        double minG = 0.0, maxG = 0.0;
        bool first = true;
        for (const AccountSummary &a : fairSummary.accounts) {
            if (a.gmeanBips <= 0.0)
                continue;
            minG = first ? a.gmeanBips : std::min(minG, a.gmeanBips);
            maxG = first ? a.gmeanBips : std::max(maxG, a.gmeanBips);
            first = false;
        }
        const double spread = minG > 0.0 ? maxG / minG : 0.0;
        const double ginstrDelta = fifoSummary.totalBatchInstructions
                > 0.0
            ? 100.0 *
                (fairSummary.totalBatchInstructions /
                     fifoSummary.totalBatchInstructions -
                 1.0)
            : 0.0;
        std::printf("\nper-tenant gmean BIPS spread (max/min): "
                    "%.3fx (equal shares => want ~1x)\n",
                    spread);
        std::printf("batch Ginstr vs FIFO baseline: %+.2f%%\n",
                    ginstrDelta);
        sink.flush();
        std::printf("\nwrote fleet_tenants_trace.jsonl (%zu records, "
                    "three-tenant run)\n", sink.written());
        return 0;
    }

    if (dagMode) {
        // Same fleet, same workflow stream, two placement brains:
        // locality-blind backfill (transfers modeled and charged but
        // invisible to placement) against the locality deltas. The
        // win mechanism: a blind placement of a successor away from
        // its producer pays ceil(missing/bandwidth) extra quanta of
        // effective service time, holding its slot longer and
        // finishing the workflow later.
        BackfillBinPack backfill;
        const auto makeDagOptions =
            [&](telemetry::TraceSink *sink, bool aware) {
                FleetOptions o =
                    makeFleetOptions(nodes, day_seconds, sink);
                o.dag.enable = true;
                o.dag.maxLiveWorkflows = 2 * nodes;
                o.dag.localityAware = aware;
                o.churn.meanWorkflowArrivalsPerQuantum =
                    0.05 * static_cast<double>(nodes);
                return o;
            };
        FleetController blindFleet(params, tables, lc, split.test,
                                   node_max_w, backfill,
                                   makeDagOptions(nullptr, false));
        const FleetSummary blind = blindFleet.run();
        std::printf("--- locality-blind placement (baseline) ---\n");
        printSummary(blind);
        printDag(blind);

        telemetry::JsonlSink sink("fleet_dag_trace.jsonl");
        FleetController awareFleet(params, tables, lc, split.test,
                                   node_max_w, backfill,
                                   makeDagOptions(&sink, true));
        const FleetSummary aware = awareFleet.run();
        std::printf("\n--- data-gravity placement (aware) ---\n");
        printSummary(aware);
        printDag(aware);

        const double makespanDelta = blind.gmeanMakespanQuanta > 0.0
            ? 100.0 *
                (aware.gmeanMakespanQuanta /
                     blind.gmeanMakespanQuanta -
                 1.0)
            : 0.0;
        const double transferDelta = blind.transferBytes > 0.0
            ? 100.0 * (aware.transferBytes / blind.transferBytes -
                       1.0)
            : 0.0;
        const double ginstrDelta = blind.totalBatchInstructions > 0.0
            ? 100.0 *
                (aware.totalBatchInstructions /
                     blind.totalBatchInstructions -
                 1.0)
            : 0.0;
        std::printf("\ngmean makespan vs blind: %+.2f%%  transfer "
                    "bytes: %+.2f%%  batch Ginstr: %+.2f%%  QoS "
                    "%.1f%% -> %.1f%%\n",
                    makespanDelta, transferDelta, ginstrDelta,
                    blind.clusterQosPct, aware.clusterQosPct);
        sink.flush();
        std::printf("\nwrote fleet_dag_trace.jsonl (%zu records, "
                    "aware run)\n", sink.written());
        return 0;
    }

    // Same fleet, two placement brains. The backfill run carries the
    // JSONL trace.
    FifoFirstFit fifo;
    FleetController fifoFleet(params, tables, lc, split.test,
                              node_max_w, fifo,
                              makeFleetOptions(nodes, day_seconds,
                                               nullptr));
    const FleetSummary fifoSummary = fifoFleet.run();
    printSummary(fifoSummary);

    telemetry::JsonlSink sink("fleet_trace.jsonl");
    BackfillBinPack backfill;
    FleetController backfillFleet(params, tables, lc, split.test,
                                  node_max_w, backfill,
                                  makeFleetOptions(nodes, day_seconds,
                                                   &sink));
    const FleetSummary backfillSummary = backfillFleet.run();
    printSummary(backfillSummary);

    std::printf("%-18s %8s %10s %12s %11s %12s\n", "policy", "QoS%",
                "job-gmean", "batch Gins", "placements",
                "stall-quanta");
    for (const FleetSummary *s :
         {&fifoSummary, &backfillSummary}) {
        std::printf("%-18s %7.1f%% %10.2f %12.1f %11zu %12zu\n",
                    s->placementPolicy.c_str(), s->clusterQosPct,
                    s->jobGmeanBips,
                    s->totalBatchInstructions * 1e-9, s->placements,
                    s->placementStalls);
    }
    // The sink buffers lines; drain before reporting the file as
    // complete (the destructor would too, but not before this print).
    sink.flush();
    std::printf("\nwrote fleet_trace.jsonl (%zu records, backfill "
                "run)\n", sink.written());
    return 0;
}
