/**
 * @file
 * Reconstruction accuracy: Section VIII-A2's training-set size,
 * Fig 5a/5b's error box plots, Fig 9's RBF-vs-SGD comparison with
 * Section VIII-E's Flicker runs, and ablations D1, D2/D7 and D5.
 */

#include <algorithm>
#include <chrono>
#include <cmath>

#include "cf/engine.hh"
#include "common/stats.hh"
#include "flicker/flicker.hh"
#include "flicker/rbf.hh"
#include "model/core_model.hh"
#include "paper.hh"
#include "sim/ground_truth.hh"

namespace cuttlesys::paper {

namespace {

/** Puts a box-plot summary of @p errors (%) under @p prefix. */
void
putBox(Outcome &out, const std::string &prefix,
       const std::vector<double> &errors)
{
    const BoxPlot box = boxPlot(errors);
    double worst = 0.0;
    for (double e : errors)
        worst = std::max(worst, std::abs(e));
    out.put(prefix + ".p5", box.p5);
    out.put(prefix + ".q1", box.q1);
    out.put(prefix + ".median", box.median);
    out.put(prefix + ".q3", box.q3);
    out.put(prefix + ".p95", box.p95);
    out.put(prefix + ".worst_abs", worst);
    out.put(prefix + ".outliers", static_cast<double>(box.outliers.size()));
    out.put(prefix + ".samples", static_cast<double>(errors.size()));
}

/** Appends the median and p95 of |@p errors| (%) to the series
 *  median_abs_err and p95_abs_err. */
void
appendAbsErrors(Outcome &out, const std::vector<double> &errors)
{
    std::vector<double> abs_errors;
    for (double e : errors)
        abs_errors.push_back(std::abs(e));
    out.rows["median_abs_err"].push_back(percentile(abs_errors, 50.0));
    out.rows["p95_abs_err"].push_back(percentile(abs_errors, 95.0));
}

/** The configuration index of @p core at 1 LLC way: the profiling
 *  samples' cache allocation. */
std::size_t
oneWay(const CoreConfig &core)
{
    return JobConfig(core, 1).index();
}

/**
 * Reconstructs row @p app of @p truth from its entries at configs
 * @p s0 and @p s1, against the fully observed @p train rows, and
 * appends the signed relative error (%) at every other config.
 * Returns the reconstruction's wall ms.
 */
double
twoSampleErrors(const Matrix &train, const Matrix &truth, std::size_t app,
                std::size_t s0, std::size_t s1, std::vector<double> &errors,
                const SgdOptions &options = {})
{
    CfEngine engine(train, 1, kNumJobConfigs, options);
    engine.observe(0, s0, truth(app, s0));
    engine.observe(0, s1, truth(app, s1));
    const auto start = std::chrono::steady_clock::now();
    const Matrix pred = engine.predict();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
        if (c != s0 && c != s1)
            errors.push_back(relativeErrorPct(pred(0, c), truth(app, c)));
    }
    return ms;
}

const std::size_t kWide = oneWay(CoreConfig::widest());
const std::size_t kNarrow = oneWay(CoreConfig::narrowest());

/** max(-lo, hi): the half-width of the band around 0 that holds both. */
double
spread(const Outcome &out, const std::string &lo, const std::string &hi)
{
    return std::max(-out.at(lo), out.at(hi));
}

} // namespace

Outcome
tableA(const Preset &)
{
    Outcome out;
    for (std::size_t n : {8u, 16u, 24u}) {
        const TrainTestSplit split = splitSpecGallery(n);
        const BatchTruth train =
            batchTruthTables(split.train, params(), true, 0.01);
        const BatchTruth test = batchTruthTables(split.test, params());
        std::vector<double> errors;
        double ms = 0.0;
        for (std::size_t a = 0; a < split.test.size(); ++a) {
            ms += twoSampleErrors(train.bips, test.bips, a, kWide, kNarrow,
                                  errors);
        }
        out.rows["train_apps"].push_back(static_cast<double>(n));
        appendAbsErrors(out, errors);
        out.timings["sgd_per_app"].push_back(
            ms / static_cast<double>(split.test.size()));
    }
    const std::vector<double> &med = out.rows["median_abs_err"];
    const std::vector<double> &p95 = out.rows["p95_abs_err"];
    out.claim("median_8_over_16", "8 apps ~20% vs 16 apps ~10%",
              med[0] - med[1], Bound::AtLeast, 0.0, Expect::Deviation);
    out.claim("median_24_within_1pt_of_16", "24 apps ~8% vs 16 apps ~10%",
              med[2] - med[1], Bound::AtMost, 1.0, Expect::Deviation);
    out.claim("p95_falls_with_size", "inaccuracy falls with more apps",
              std::min(p95[0] - p95[1], p95[1] - p95[2]), Bound::AtLeast,
              1.0);
    return out;
}

Outcome
fig05a(const Preset &)
{
    // Throughput and power: the 12 held-out SPEC apps alone, two exact
    // samples each.
    const BatchTruth truth = batchTruthTables(specSplit().test, params());
    std::vector<double> bips_err, power_err;
    for (std::size_t a = 0; a < specSplit().test.size(); ++a) {
        twoSampleErrors(trainingTables().bips, truth.bips, a, kWide,
                        kNarrow, bips_err);
        twoSampleErrors(trainingTables().power, truth.power, a, kWide,
                        kNarrow, power_err);
    }

    // Tail latency: each service at 80% load, a load the offline
    // tables never characterized, anchored by one measured entry.
    std::vector<double> tail_err;
    std::size_t classified = 0, correct = 0, unsafe = 0;
    const std::size_t anchor =
        JobConfig(CoreConfig::widest(), kNumCacheAllocs - 1).index();
    for (const AppProfile &app : lcApps()) {
        const auto curve =
            lcTailCurve(app, 0.8 * app.maxQps, params(), LcCurveOptions{});
        SgdOptions latency_opts;
        latency_opts.logTransform = true;
        CfEngine engine(trainingTables().latency, 1, kNumJobConfigs,
                        latency_opts);
        engine.setTrainingContext(trainingTables().latencyRowUtil);
        // The runtime measures its utilization; in isolation the
        // analytic reference-configuration value is identical.
        const double ips =
            coreIps(app, JobConfig::fromIndex(anchor), params());
        engine.setJobContext(
            0, std::min(1.0, 0.8 * app.maxQps * app.requestInstructions() /
                                 (16.0 * ips)));
        engine.observe(0, anchor, curve[anchor]);
        const Matrix pred = engine.predict();
        for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
            if (c == anchor)
                continue;
            // Section VIII-B: past QoS "exact latency prediction is
            // less critical, as long as the prediction shows that QoS
            // is violated", so violating configs go into the
            // classification tally and the box plot covers the rest.
            const bool actual_viol = curve[c] > app.qosSeconds();
            const bool pred_viol = pred(0, c) > app.qosSeconds();
            if (!actual_viol)
                tail_err.push_back(relativeErrorPct(pred(0, c), curve[c]));
            ++classified;
            correct += actual_viol == pred_viol ? 1 : 0;
            unsafe += actual_viol && !pred_viol ? 1 : 0;
        }
    }

    Outcome out;
    putBox(out, "throughput", bips_err);
    putBox(out, "tail", tail_err);
    putBox(out, "power", power_err);
    out.put("tail_classified", static_cast<double>(classified));
    out.put("tail_correct_pct", 100.0 * static_cast<double>(correct) /
                                    static_cast<double>(classified));
    out.put("tail_unsafe", static_cast<double>(unsafe));

    const char *quartiles = "quartiles within 10%";
    const char *tails = "p5/p95 within 20%";
    out.claim("throughput_quartiles", quartiles,
              spread(out, "throughput.q1", "throughput.q3"), Bound::AtMost,
              10.0);
    out.claim("throughput_p5_p95", tails,
              spread(out, "throughput.p5", "throughput.p95"),
              Bound::AtMost, 20.0, Expect::Deviation);
    out.claim("power_quartiles", quartiles,
              spread(out, "power.q1", "power.q3"), Bound::AtMost, 10.0);
    out.claim("power_p5_p95", tails, spread(out, "power.p5", "power.p95"),
              Bound::AtMost, 20.0);
    out.claim("tail_quartiles", "tail slightly worse than throughput",
              spread(out, "tail.q1", "tail.q3"), Bound::AtMost, 15.0,
              Expect::Deviation);
    out.claim("tail_p5_p95", "tail slightly worse than throughput",
              spread(out, "tail.p5", "tail.p95"), Bound::AtMost, 40.0,
              Expect::Deviation);
    out.claim("tail_unsafe", "predictions show when QoS is violated",
              out.at("tail_unsafe"), Bound::AtMost, 0.0);
    return out;
}

Outcome
fig05b(const Preset &preset)
{
    // Each colocation is driven slice by slice at a 70% cap, so the
    // prediction behind each slice's chosen configuration can be
    // compared with what that slice then measured.
    std::vector<double> bips_err, power_err, tail_err;
    std::size_t mix_index = 0;
    for (std::size_t lc = 0; lc < lcApps().size(); ++lc) {
        for (std::size_t m = 0; m < preset.mixesPerLc; ++m, ++mix_index) {
            const WorkloadMix &mix = evaluationMixes()[lc * 10 + m];
            MulticoreSim sim(params(), mix, 4000 + mix_index);
            const auto scheduler = preset.cuttleSys(mix);
            const std::size_t slices = static_cast<std::size_t>(
                preset.durationSec / params().timesliceSec);
            SliceDecision prev_decision;
            SliceMeasurement prev_measurement;
            for (std::size_t s = 0; s < slices; ++s) {
                sim.setLcLoadFraction(0.8);
                SliceContext ctx;
                ctx.sliceIndex = s;
                ctx.timeSec = sim.now();
                ctx.powerBudgetW = 0.7 * maxPowerW();
                ctx.lcQosSec = mix.lc.qosSeconds();
                ctx.previous = s > 0 ? &prev_measurement : nullptr;
                ctx.previousDecision = s > 0 ? &prev_decision : nullptr;
                ctx.profiles =
                    sim.profileJobs(s > 0 ? prev_decision.lcCores : 16);
                const SliceDecision decision = scheduler->decide(ctx);
                const SliceMeasurement measured = sim.runSlice(
                    decision,
                    params().timesliceSec - 2.0 * params().sampleSec);
                if (s >= 3) {
                    for (std::size_t j = 0; j < mix.batch.size(); ++j) {
                        if (!decision.batchActive[j] ||
                            measured.batchBips[j] <= 0.0)
                            continue;
                        const std::size_t c =
                            decision.batchConfigs[j].index();
                        bips_err.push_back(relativeErrorPct(
                            scheduler->lastBipsPrediction()(1 + j, c),
                            measured.batchBips[j]));
                        power_err.push_back(relativeErrorPct(
                            scheduler->lastPowerPrediction()(1 + j, c),
                            measured.batchPower[j]));
                    }
                    if (measured.lcCompleted > 50 &&
                        measured.lcTailLatency > 0.0) {
                        tail_err.push_back(relativeErrorPct(
                            scheduler->lastLatencyPrediction()(
                                0, decision.lcConfig.index()),
                            measured.lcTailLatency));
                    }
                }
                prev_decision = decision;
                prev_measurement = measured;
            }
        }
    }

    Outcome out;
    putBox(out, "throughput", bips_err);
    putBox(out, "tail", tail_err);
    putBox(out, "power", power_err);
    out.claim("throughput_quartiles", "quartiles within 10%",
              spread(out, "throughput.q1", "throughput.q3"), Bound::AtMost,
              10.0);
    out.claim("power_quartiles", "quartiles within 10%",
              spread(out, "power.q1", "power.q3"), Bound::AtMost, 10.0);
    return out;
}

Outcome
fig09(const Preset &preset)
{
    // Part 1: RBF fitted to 3 samples vs SGD from 2, over the 27 core
    // configs at 1 LLC way.
    const BatchTruth truth = batchTruthTables(specSplit().test, params());
    const std::vector<std::size_t> three = {0, 13, 26};
    const std::size_t last = kNumCoreConfigs - 1;
    std::vector<double> rbf_bips, rbf_power, sgd_bips, sgd_power;
    for (std::size_t a = 0; a < specSplit().test.size(); ++a) {
        std::vector<double> bips27, power27;
        for (std::size_t k = 0; k < kNumCoreConfigs; ++k) {
            bips27.push_back(truth.bips(a, oneWay(CoreConfig::fromIndex(k))));
            power27.push_back(
                truth.power(a, oneWay(CoreConfig::fromIndex(k))));
        }
        std::vector<double> bips_samples, power_samples;
        for (std::size_t k : three) {
            bips_samples.push_back(bips27[k]);
            power_samples.push_back(power27[k]);
        }
        const auto rbf_b = rbfPredictCurve(three, bips_samples);
        const auto rbf_p = rbfPredictCurve(three, power_samples);

        CfEngine bips_engine(trainingTables().bips, 1, kNumJobConfigs);
        CfEngine power_engine(trainingTables().power, 1, kNumJobConfigs);
        for (std::size_t k : {std::size_t{0}, last}) {
            const std::size_t c = oneWay(CoreConfig::fromIndex(k));
            bips_engine.observe(0, c, bips27[k]);
            power_engine.observe(0, c, power27[k]);
        }
        const Matrix sgd_b = bips_engine.predict();
        const Matrix sgd_p = power_engine.predict();
        for (std::size_t k = 0; k < kNumCoreConfigs; ++k) {
            if (std::find(three.begin(), three.end(), k) == three.end()) {
                rbf_bips.push_back(relativeErrorPct(rbf_b[k], bips27[k]));
                rbf_power.push_back(relativeErrorPct(rbf_p[k], power27[k]));
            }
            if (k != 0 && k != last) {
                const std::size_t c = oneWay(CoreConfig::fromIndex(k));
                sgd_bips.push_back(relativeErrorPct(sgd_b(0, c), bips27[k]));
                sgd_power.push_back(
                    relativeErrorPct(sgd_p(0, c), power27[k]));
            }
        }
    }
    Outcome out;
    putBox(out, "throughput_rbf", rbf_bips);
    putBox(out, "throughput_sgd", sgd_bips);
    putBox(out, "power_rbf", rbf_power);
    putBox(out, "power_sgd", sgd_power);

    // Part 2 (Section VIII-E): worst p99/QoS after warm-up on the
    // first xapian mix at a 70% cap.
    const WorkloadMix &mix = evaluationMixes()[0];
    const DriverOptions opts = preset.driver(0.7, 0.8, 1.0);
    auto worst = [&](const RunResult &r) {
        double w = 0.0;
        for (std::size_t s = 2; s < r.slices.size(); ++s) {
            w = std::max(w, r.slices[s].measurement.lcTailLatency /
                                mix.lc.qosSeconds());
        }
        return w;
    };
    for (const auto &[key, method] :
         {std::pair{"flicker_manage_all", FlickerMethod::ManageAll},
          std::pair{"flicker_batch_only", FlickerMethod::BatchOnly}}) {
        MulticoreSim sim(params(), mix, 901);
        FlickerOptions fopts;
        fopts.method = method;
        out.put(std::string(key) + ".worst_p99_over_qos",
                worst(runFlicker(sim, opts, fopts)));
    }
    {
        MulticoreSim sim(params(), mix, 901);
        const auto sched = preset.cuttleSys(mix);
        out.put("cuttlesys.worst_p99_over_qos",
                worst(runColocation(sim, *sched, opts)));
    }

    out.claim("sgd_beats_rbf_worst", "RBF outliers up to ~600%, SGD bounded",
              out.at("throughput_rbf.worst_abs") /
                  out.at("throughput_sgd.worst_abs"),
              Bound::AtLeast, 1.0);
    out.claim("flicker_manage_all_violates",
              "manage-all violates QoS by over 10x",
              out.at("flicker_manage_all.worst_p99_over_qos"),
              Bound::AtLeast, 10.0);
    out.claim("flicker_batch_only_violates",
              "batch-only violates QoS by ~1.5x",
              out.at("flicker_batch_only.worst_p99_over_qos"),
              Bound::AtLeast, 1.0, Expect::Deviation);
    out.claim("cuttlesys_meets_qos", "CuttleSys meets QoS",
              out.at("cuttlesys.worst_p99_over_qos"), Bound::AtMost, 1.0);
    return out;
}

Outcome
ablSamples(const Preset &)
{
    const BatchTruth truth = batchTruthTables(specSplit().test, params());
    auto median_abs = [&](std::size_t a, std::size_t s0, std::size_t s1) {
        std::vector<double> errors;
        twoSampleErrors(trainingTables().bips, truth.bips, a, s0, s1,
                        errors);
        for (double &e : errors)
            e = std::abs(e);
        return percentile(errors, 50.0);
    };
    double extremes = 0.0, random_pair = 0.0, adjacent = 0.0;
    Rng rng(9090);
    const std::size_t n = specSplit().test.size();
    for (std::size_t a = 0; a < n; ++a) {
        extremes += median_abs(a, kWide, kNarrow);
        const auto r1 = static_cast<std::size_t>(
            rng.uniformInt(0, kNumJobConfigs - 1));
        std::size_t r2 = r1;
        while (r2 == r1) {
            r2 = static_cast<std::size_t>(
                rng.uniformInt(0, kNumJobConfigs - 1));
        }
        random_pair += median_abs(a, r1, r2);
        // Two adjacent mid-range configurations: the least informative.
        adjacent += median_abs(a, kNumJobConfigs / 2, kNumJobConfigs / 2 + 1);
    }
    Outcome out;
    out.put("extremes.median_abs_err", extremes / static_cast<double>(n));
    out.put("random_pair.median_abs_err",
            random_pair / static_cast<double>(n));
    out.put("adjacent.median_abs_err", adjacent / static_cast<double>(n));
    out.claim("extremes_best", "sample the widest and narrowest configs",
              std::min(out.at("random_pair.median_abs_err"),
                       out.at("adjacent.median_abs_err")) -
                  out.at("extremes.median_abs_err"),
              Bound::AtLeast, 0.0);
    return out;
}

namespace {

/** BIPS errors over the held-out apps with @p options; appends the
 *  mean reconstruction ms per app to timing @p timing. */
void
sweepPoint(Outcome &out, const SgdOptions &options, const char *timing)
{
    const BatchTruth truth = batchTruthTables(specSplit().test, params());
    std::vector<double> errors;
    double ms = 0.0;
    for (std::size_t a = 0; a < specSplit().test.size(); ++a) {
        ms += twoSampleErrors(trainingTables().bips, truth.bips, a, kWide,
                              kNarrow, errors, options);
    }
    appendAbsErrors(out, errors);
    out.timings[timing].push_back(
        ms / static_cast<double>(specSplit().test.size()));
}

} // namespace

Outcome
ablSgdRank(const Preset &)
{
    // The default sends 2-sample rows through the neighborhood blend
    // (D7), which never reads the factors; the sweep takes the factor
    // fold-in path so that the rank is what it measures.
    Outcome out;
    for (std::size_t rank : {4u, 8u, 12u, 24u, 48u, 108u}) {
        SgdOptions options;
        options.rank = rank;
        options.rowBlendThreshold = 0;
        out.rows["rank"].push_back(static_cast<double>(rank));
        sweepPoint(out, options, "predict_per_app");
    }
    // The trade-off: past rank 12 the p95 barely moves while the
    // median rises (the extra factors fit the two samples' noise).
    const std::vector<double> &med = out.rows["median_abs_err"];
    const std::vector<double> &p95 = out.rows["p95_abs_err"];
    out.claim("rank12_median_at_most_rank108",
              "the paper uses rank m*p = 108", med[2] - med[5],
              Bound::AtMost, 0.0);
    out.claim("rank12_p95_within_1pt_of_rank108",
              "the paper uses rank m*p = 108", p95[2] - p95[5],
              Bound::AtMost, 1.0);
    return out;
}

Outcome
ablSparseRows(const Preset &)
{
    Outcome out;
    SgdOptions factor_only;
    factor_only.rowBlendThreshold = 0;
    SgdOptions raw = factor_only;
    raw.foldInRows = false;
    SgdOptions parallel;
    parallel.threads = 4;
    SgdOptions svd;
    svd.svdWarmStart = true;
    const std::pair<const char *, SgdOptions> variants[] = {
        {"default", {}}, {"factor_fold_in_only", factor_only},
        {"raw_sgd", raw}, {"parallel4", parallel}, {"svd_warm_start", svd}};
    for (const auto &[name, options] : variants) {
        out.labels["variant"].push_back(name);
        sweepPoint(out, options, "predict_per_app");
    }
    const std::vector<double> &med = out.rows["median_abs_err"];
    out.claim("blend_beats_fold_in", "ours: blending for 2-sample rows",
              med[1] - med[0], Bound::AtLeast, 1.0);
    out.claim("raw_sgd_unusable", "ours: blending for 2-sample rows",
              med[2] / med[0], Bound::AtLeast, 2.0);
    out.claim("parallel_matches_serial", "Hogwild at ~1% accuracy cost",
              std::abs(med[3] - med[0]), Bound::AtMost, 1.0);
    return out;
}

} // namespace cuttlesys::paper
