/**
 * @file
 * Whole colocation runs: Fig 5c's cap sweep, the Fig 7 and Fig 8
 * timelines, Fig 10b's DDS-vs-GA sweep and ablation D6.
 */

#include <algorithm>
#include <functional>

#include "baselines/asymmetric.hh"
#include "baselines/core_gating.hh"
#include "baselines/no_gating.hh"
#include "paper.hh"

namespace cuttlesys::paper {

namespace {

const std::vector<double> kCaps = {0.9, 0.8, 0.7, 0.6, 0.5};

/**
 * Batch instructions per cap, summed over @p mixes_per_lc mixes of
 * each LC service: @p run(mix, lc, m, cap) runs one colocation and
 * returns its instructions.
 */
template <typename Run>
std::vector<double>
sweep(const std::vector<double> &caps, std::size_t mixes_per_lc, Run run)
{
    std::vector<double> instr(caps.size(), 0.0);
    for (std::size_t lc = 0; lc < lcApps().size(); ++lc) {
        for (std::size_t m = 0; m < mixes_per_lc; ++m) {
            const WorkloadMix &mix = evaluationMixes()[lc * 10 + m];
            for (std::size_t ci = 0; ci < caps.size(); ++ci)
                instr[ci] += run(mix, lc, m, caps[ci]);
        }
    }
    return instr;
}

std::vector<double>
ratio(const std::vector<double> &num, const std::vector<double> &den)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < num.size(); ++i)
        out.push_back(num[i] / den[i]);
    return out;
}

double
minOf(const std::vector<double> &v, std::size_t from = 0,
      std::size_t to = SIZE_MAX)
{
    return *std::min_element(v.begin() + from,
                             v.begin() + std::min(to, v.size()));
}

double
maxOf(const std::vector<double> &v)
{
    return *std::max_element(v.begin(), v.end());
}

/** Puts the run's per-slice series under @p prefix. */
void
putTimeline(Outcome &out, const std::string &prefix, const RunResult &run,
            double qos_sec)
{
    auto series = [&](const char *name) -> std::vector<double> & {
        return out.rows[prefix + name];
    };
    std::vector<std::string> &lc_config = out.labels[prefix + "lc_config"];
    for (const SliceRecord &s : run.slices) {
        std::size_t active = 0, big = 0;
        for (std::size_t j = 0; j < s.decision.batchActive.size(); ++j) {
            active += s.decision.batchActive[j] ? 1 : 0;
            big += s.decision.batchConfigs[j].core() == CoreConfig::widest()
                ? 1 : 0;
        }
        series("t_s").push_back(s.measurement.timeSec);
        series("load_pct").push_back(s.loadFraction * 100.0);
        series("budget_w").push_back(s.powerBudgetW);
        series("power_w").push_back(s.measurement.totalPower);
        series("lc_power_w").push_back(s.measurement.lcPower);
        series("p99_over_qos").push_back(s.measurement.lcTailLatency /
                                         qos_sec);
        series("qos_violated").push_back(s.qosViolated ? 1.0 : 0.0);
        series("batch_ginstr").push_back(s.measurement.batchInstructions /
                                         1e9);
        series("gmean_bips").push_back(gmeanBatchBips(s.measurement));
        series("batch_active").push_back(static_cast<double>(active));
        series("batch_big").push_back(static_cast<double>(big));
        series("lc_cores").push_back(static_cast<double>(s.decision.lcCores));
        lc_config.push_back(s.decision.lcConfig.toString());
    }
}

using MakeScheduler = std::function<std::unique_ptr<Scheduler>(
    const MulticoreSim &, const WorkloadMix &)>;

} // namespace

Outcome
fig05c(const Preset &preset)
{
    const std::pair<const char *, MakeScheduler> schemes[] = {
        {"no_gating",
         [](const MulticoreSim &, const WorkloadMix &mix)
             -> std::unique_ptr<Scheduler> {
             return std::make_unique<NoGatingScheduler>(mix.batch.size());
         }},
        {"core_gating",
         [](const MulticoreSim &, const WorkloadMix &mix)
             -> std::unique_ptr<Scheduler> {
             return std::make_unique<CoreGatingScheduler>(params(), mix);
         }},
        {"core_gating_wp",
         [](const MulticoreSim &, const WorkloadMix &mix)
             -> std::unique_ptr<Scheduler> {
             return std::make_unique<CoreGatingScheduler>(params(), mix,
                                                          true);
         }},
        {"asymm_oracle",
         [](const MulticoreSim &sim, const WorkloadMix &)
             -> std::unique_ptr<Scheduler> {
             return std::make_unique<AsymmetricOracleScheduler>(sim);
         }},
        {"asymm_50_50",
         [](const MulticoreSim &sim, const WorkloadMix &)
             -> std::unique_ptr<Scheduler> {
             return std::make_unique<StaticAsymmetricScheduler>(sim);
         }},
        {"cuttlesys",
         [&](const MulticoreSim &, const WorkloadMix &mix)
             -> std::unique_ptr<Scheduler> { return preset.cuttleSys(mix); }},
    };

    Outcome out;
    out.rows["cap_pct"] = {90, 80, 70, 60, 50};
    std::map<std::string, std::vector<double>> instr;
    for (const auto &[name, make] : schemes) {
        // QoS over the slices after warm-up.
        std::size_t violations = 0;
        double worst = 0.0;
        instr[name] = sweep(
            kCaps, preset.mixesPerLc,
            [&](const WorkloadMix &mix, std::size_t lc, std::size_t m,
                double cap) {
                MulticoreSim sim(params(), mix, 5000 + lc * 100 + m);
                const auto sched = make(sim, mix);
                const RunResult r =
                    runColocation(sim, *sched, preset.driver(cap));
                for (std::size_t s = 3; s < r.slices.size(); ++s) {
                    violations += r.slices[s].qosViolated ? 1 : 0;
                    worst = std::max(worst,
                                     r.slices[s].measurement.lcTailLatency /
                                         mix.lc.qosSeconds());
                }
                return r.totalBatchInstructions;
            });
        const std::string n = name;
        out.rows[n + ".rel"] = ratio(instr[name], instr["no_gating"]);
        out.put(n + ".qos_violations", static_cast<double>(violations));
        out.put(n + ".worst_p99_over_qos", worst);
    }
    for (const char *base :
         {"core_gating", "core_gating_wp", "asymm_oracle", "asymm_50_50"}) {
        out.rows[std::string("cuttlesys_over.") + base] =
            ratio(instr["cuttlesys"], instr[base]);
    }

    const std::vector<double> &gating = out.rows["cuttlesys_over.core_gating"];
    out.claim("loses_to_gating_at_90_80",
              "CuttleSys loses at 90% (reconfiguration overheads)",
              std::max(gating[0], gating[1]), Bound::AtMost, 1.0);
    out.claim("beats_gating_at_60_50", "beats gating by up to 2.65x",
              minOf(gating, 3), Bound::AtLeast, 1.0);
    out.claim("gain_grows_as_caps_tighten",
              "the gain over gating grows as the cap tightens",
              std::min(gating[3] - gating[2], gating[4] - gating[3]),
              Bound::AtLeast, 0.0);
    out.claim("beats_static_50_50_at_90_80_70", "1.70/1.65/1.50x",
              minOf(out.rows["cuttlesys_over.asymm_50_50"], 0, 3),
              Bound::AtLeast, 1.0);
    out.claim("beats_asymm_oracle", "beats the asymm oracle by up to 1.55x",
              maxOf(out.rows["cuttlesys_over.asymm_oracle"]), Bound::AtLeast,
              1.0, Expect::Deviation);
    out.claim("cuttlesys_violations", "QoS always met",
              out.at("cuttlesys.qos_violations"), Bound::AtMost, 5.0);
    out.claim("baseline_violations", "QoS always met",
              out.at("core_gating.qos_violations") +
                  out.at("core_gating_wp.qos_violations") +
                  out.at("asymm_oracle.qos_violations") +
                  out.at("asymm_50_50.qos_violations"),
              Bound::AtMost, 0.0);
    return out;
}

Outcome
fig07(const Preset &preset)
{
    const WorkloadMix &mix = evaluationMixes()[0];
    const DriverOptions opts = preset.driver(0.7, 0.8, 1.0);
    Outcome out;
    {
        MulticoreSim sim(params(), mix, 600);
        CoreGatingScheduler sched(params(), mix);
        putTimeline(out, "core_gating.", runColocation(sim, sched, opts),
                    mix.lc.qosSeconds());
    }
    {
        MulticoreSim sim(params(), mix, 600);
        AsymmetricOracleScheduler sched(sim);
        putTimeline(out, "asymm_oracle.", runColocation(sim, sched, opts),
                    mix.lc.qosSeconds());
    }
    {
        MulticoreSim sim(params(), mix, 600);
        const auto sched = preset.cuttleSys(mix);
        putTimeline(out, "cuttlesys.", runColocation(sim, *sched, opts),
                    mix.lc.qosSeconds());
    }
    const auto jobs = static_cast<double>(mix.batch.size());
    out.claim("gating_gates_cores", "gated cores execute nothing",
              minOf(out.rows["core_gating.batch_active"]), Bound::AtMost,
              jobs - 1.0);
    out.claim("cuttlesys_keeps_all_jobs", "CuttleSys keeps all cores active",
              minOf(out.rows["cuttlesys.batch_active"], 2), Bound::AtLeast,
              jobs);
    return out;
}

namespace {

/** Mean of @p series over the slices where @p keep(slice) holds. */
template <typename Keep>
double
meanWhere(const RunResult &r, Keep keep, double (*series)(const SliceRecord &))
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const SliceRecord &s : r.slices) {
        if (keep(s)) {
            sum += series(s);
            ++n;
        }
    }
    return sum / static_cast<double>(std::max<std::size_t>(n, 1));
}

} // namespace

Outcome
fig08a(const Preset &preset)
{
    const WorkloadMix &mix = evaluationMixes()[0];
    MulticoreSim sim(params(), mix, 700);
    const auto sched = preset.cuttleSys(mix);
    DriverOptions opts = preset.driver(0.7, 0.8, 2.0);
    opts.loadPattern = LoadPattern::diurnal(0.2, 1.0, 2.0);
    const RunResult r = runColocation(sim, *sched, opts);

    Outcome out;
    putTimeline(out, "", r, mix.lc.qosSeconds());
    // Energy proportionality is about the LC cluster's power, which
    // reconfiguration cuts at low load. The first slice is cold.
    auto lc_power = [](const SliceRecord &s) { return s.measurement.lcPower; };
    out.put("lc_power_low_load_w",
            meanWhere(r, [](const SliceRecord &s) {
                return s.measurement.timeSec >= 0.15 && s.loadFraction < 0.35;
            }, lc_power));
    out.put("lc_power_high_load_w",
            meanWhere(r, [](const SliceRecord &s) {
                return s.measurement.timeSec >= 0.15 && s.loadFraction > 0.85;
            }, lc_power));
    out.put("qos_violations", static_cast<double>(r.qosViolations));
    out.claim("lc_power_follows_load", "low load -> cheap LC config",
              out.at("lc_power_low_load_w") / out.at("lc_power_high_load_w"),
              Bound::AtMost, 1.0);
    return out;
}

Outcome
fig08b(const Preset &preset)
{
    const WorkloadMix &mix = evaluationMixes()[0];
    MulticoreSim sim(params(), mix, 701);
    const auto sched = preset.cuttleSys(mix);
    DriverOptions opts = preset.driver(0.9, 0.8, 2.0);
    opts.powerPattern =
        LoadPattern::steps({{0.0, 0.9}, {0.6, 0.6}, {1.4, 0.9}});
    const RunResult r = runColocation(sim, *sched, opts);

    Outcome out;
    putTimeline(out, "", r, mix.lc.qosSeconds());
    // After warm-up, split at 75% of max power.
    const double split_w = 0.75 * maxPowerW();
    auto gmean = [](const SliceRecord &s) {
        return gmeanBatchBips(s.measurement);
    };
    out.put("gmean_tight_budget",
            meanWhere(r, [&](const SliceRecord &s) {
                return s.measurement.timeSec >= 0.2 &&
                       s.powerBudgetW < split_w;
            }, gmean));
    out.put("gmean_loose_budget",
            meanWhere(r, [&](const SliceRecord &s) {
                return s.measurement.timeSec >= 0.2 &&
                       s.powerBudgetW >= split_w;
            }, gmean));
    out.put("qos_violations", static_cast<double>(r.qosViolations));
    out.claim("batch_absorbs_budget", "batch downsizes under the tight budget",
              out.at("gmean_tight_budget") / out.at("gmean_loose_budget"),
              Bound::AtMost, 1.0);
    out.claim("qos_met", "QoS met throughout", out.at("qos_violations"),
              Bound::AtMost, 0.0);
    return out;
}

Outcome
fig08c(const Preset &preset)
{
    // The load rises to 135% of the calibrated knee: beyond what 16
    // cores serve at QoS, which forces relocation.
    const WorkloadMix &mix = evaluationMixes()[0];
    MulticoreSim sim(params(), mix, 702);
    const auto sched = preset.cuttleSys(mix);
    DriverOptions opts = preset.driver(0.9, 0.8, 3.6);
    opts.loadPattern =
        LoadPattern::steps({{0.0, 0.5}, {0.6, 1.35}, {1.6, 0.25}});
    Outcome out;
    putTimeline(out, "", runColocation(sim, *sched, opts),
                mix.lc.qosSeconds());
    const std::vector<double> &cores = out.rows["lc_cores"];
    out.claim("cores_reclaimed", "reclaim cores one per violating slice",
              maxOf(cores), Bound::AtLeast, 17.0);
    out.claim("cores_returned", "cores yielded back at 20% slack",
              std::abs(cores.back() - 16.0), Bound::AtMost, 0.0);
    return out;
}

Outcome
fig10b(const Preset &preset)
{
    // The same runtime with only the search swapped, raw as in the
    // paper and with the shared greedy warm start.
    auto run = [&](SearchAlgo algo, bool warm) {
        return sweep(kCaps, preset.mixesPerLc,
                     [&](const WorkloadMix &mix, std::size_t lc,
                         std::size_t m, double cap) {
                         MulticoreSim sim(params(), mix, 8000 + lc * 100 + m);
                         CuttleSysOptions copts;
                         copts.searchAlgo = algo;
                         copts.searchWarmStart = warm;
                         const auto sched = preset.cuttleSys(mix, copts);
                         return runColocation(sim, *sched, preset.driver(cap))
                             .totalBatchInstructions;
                     });
    };
    const auto dds_raw = run(SearchAlgo::ParallelDds, false);
    const auto ga_raw = run(SearchAlgo::Ga, false);
    const auto dds_warm = run(SearchAlgo::ParallelDds, true);
    const auto ga_warm = run(SearchAlgo::Ga, true);

    Outcome out;
    out.rows["cap_pct"] = {90, 80, 70, 60, 50};
    out.rows["ga_over_dds_raw"] = ratio(ga_raw, dds_raw);
    out.rows["ga_over_dds_warm"] = ratio(ga_warm, dds_warm);
    std::vector<double> &gain = out.rows["dds_gain_raw_pct"];
    for (double r : ratio(dds_raw, ga_raw))
        gain.push_back((r - 1.0) * 100.0);
    const char *keys[] = {"dds_ge_ga_at_90", "dds_ge_ga_at_80",
                          "dds_ge_ga_at_70", "dds_ge_ga_at_60",
                          "dds_ge_ga_at_50"};
    for (std::size_t ci = 0; ci < kCaps.size(); ++ci) {
        // DDS trails GA at the 70% cap.
        const bool trails = ci == 2;
        out.claim(keys[ci], "DDS up to +19% over GA", gain[ci],
                  Bound::AtLeast, 0.0,
                  trails ? Expect::Deviation : Expect::Holds);
    }
    return out;
}

Outcome
ablGatingPolicy(const Preset &preset)
{
    const GatingPolicy policies[] = {
        GatingPolicy::DescendingPower, GatingPolicy::AscendingPower,
        GatingPolicy::AscendingBipsPerWatt, GatingPolicy::AscendingBips};
    const std::vector<double> caps = {0.7, 0.6, 0.5};
    Outcome out;
    out.rows["cap_pct"] = {70, 60, 50};
    std::vector<double> desc, best_other(caps.size(), 0.0);
    for (const GatingPolicy policy : policies) {
        // The first mix of each service.
        const auto instr = sweep(
            caps, 1,
            [&](const WorkloadMix &mix, std::size_t lc, std::size_t,
                double cap) {
                MulticoreSim sim(params(), mix, 9100 + lc);
                CoreGatingScheduler sched(params(), mix, false, policy);
                return runColocation(sim, sched, preset.driver(cap))
                    .totalBatchInstructions;
            });
        out.rows[std::string(gatingPolicyName(policy)) + ".instr"] = instr;
        if (policy == GatingPolicy::DescendingPower) {
            desc = instr;
        } else {
            for (std::size_t ci = 0; ci < caps.size(); ++ci)
                best_other[ci] = std::max(best_other[ci], instr[ci]);
        }
    }
    out.claim("desc_power_best", "descending power is the best order",
              minOf(ratio(desc, best_other)), Bound::AtLeast, 1.0,
              Expect::Deviation);
    return out;
}

} // namespace cuttlesys::paper
