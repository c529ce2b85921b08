/**
 * @file
 * The paper runner's command line, the experiment registry, the
 * preset and the JSON writer.
 *
 *   paper               run every experiment, write BENCH_paper.json
 *   paper <id>          run one experiment
 *   paper --check <id>  run one experiment; exit 1 when a claim's
 *                       outcome differs from its registered expectation
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "paper.hh"

namespace cuttlesys::paper {

std::unique_ptr<CuttleSysScheduler>
Preset::cuttleSys(const WorkloadMix &mix, CuttleSysOptions options) const
{
    options.fastPath = fastPath;
    return std::make_unique<CuttleSysScheduler>(
        params(), trainingTables(), mix.batch.size(), mix.lc.qosSeconds(),
        std::move(options));
}

DriverOptions
Preset::driver(double cap_fraction, double load_fraction,
               double duration_sec) const
{
    DriverOptions opts;
    opts.durationSec = duration_sec > 0.0 ? duration_sec : durationSec;
    opts.loadPattern = LoadPattern::constant(load_fraction);
    opts.powerPattern = LoadPattern::constant(cap_fraction);
    opts.maxPowerW = maxPowerW();
    return opts;
}

double
Outcome::at(const std::string &key) const
{
    const auto it = rows.find(key);
    CS_ASSERT(it != rows.end() && !it->second.empty(), "no row ", key);
    return it->second.front();
}

void
Outcome::claim(std::string key, std::string paper, double measured,
               Bound bound, double threshold, Expect expect)
{
    claims.push_back({std::move(key), std::move(paper), measured, bound,
                      threshold, expect});
}

namespace {

struct Experiment
{
    const char *id;
    const char *title;
    const char *paper;
    Outcome (*run)(const Preset &);
};

/** Every experiment, in the paper's order. */
const Experiment kExperiments[] = {
    {"table0", "Section VII-A: max QPS per LC service (16-core knee)",
     "xapian 22k, masstree 17k, imgdnn 8k, moses 8k, silo 24k", table0},
    {"table1", "Table I: simulated system parameters",
     "32 cores, 144 ROB, 192/144 regs, 48 IQ/LQ/SQ, 64 MB 32-way LLC, "
     "22 nm 0.8 V 4 GHz", table1},
    {"tableA", "Section VIII-A2: training-set size vs inaccuracy",
     "8 apps ~20%, 16 apps ~10%, 24 apps ~8% inaccuracy at +18% SGD time",
     tableA},
    {"fig01", "Fig 1: tail latency and power across 27 core configs",
     "xapian LS-bound, moses FE-bound; least-power viable xapian {2,2,6}, "
     "imgdnn {4,2,4}, masstree {4,2,4}, moses {6,2,4}, silo {2,2,4}",
     fig01},
    {"fig05a", "Fig 5a: SGD prediction error, apps in isolation",
     "quartiles within 10%, p5/p95 within 20% for throughput, tail, power",
     fig05a},
    {"fig05b", "Fig 5b: prediction error at runtime, with colocation",
     "median near 0, quartiles within 10%, wider p5/p95 than isolation",
     fig05b},
    {"fig05c", "Fig 5c: relative batch instructions vs power cap",
     "loses at 90%, then beats gating up to 2.65x, gating+wp up to 2.46x, "
     "the asymm oracle up to 1.55x, static 50/50 by 1.70/1.65/1.50x at "
     "90/80/70%; QoS always met", fig05c},
    {"fig07", "Fig 7: instructions per timeslice per scheme, 70% cap",
     "gating gates cores; asymm oracle ~7/16 jobs on big cores; CuttleSys "
     "keeps all cores active", fig07},
    {"fig08a", "Fig 8a: diurnal load at a 70% cap",
     "low load -> cheap LC config; brief violation at the spike; batch "
     "throughput moves inversely to LC power", fig08a},
    {"fig08b", "Fig 8b: power budget 90% -> 60% -> 90% at 80% load",
     "LC config and power ~constant; batch absorbs the swing; QoS met",
     fig08b},
    {"fig08c", "Fig 8c: core relocation under a load surge",
     "QoS miss at {6,6,6} -> reclaim cores -> yield back at 20% slack",
     fig08c},
    {"fig09", "Fig 9 + Section VIII-E: RBF vs SGD, Flicker QoS",
     "RBF outliers up to ~600%, SGD bounded; Flicker violates QoS >10x "
     "(manage-all) and ~1.5x (batch-only)", fig09},
    {"fig10a", "Fig 10a: points explored by DDS vs GA",
     "DDS explores more near-front points and finds a better best point",
     fig10a},
    {"fig10b", "Fig 10b: SGD-DDS vs SGD-GA across caps",
     "DDS up to +19%, the gap larger at relaxed caps", fig10b},
    {"abl_dds_params", "D3: parallel DDS parameters",
     "r = {0.2,0.3,0.4,0.5} thread groups, 40 iterations, 10 points per "
     "iteration", ablDdsParams},
    {"abl_gating_policy", "D6: core-gating victim order",
     "descending power is the best of the four orders", ablGatingPolicy},
    {"abl_penalty", "D4: soft vs hard constraint handling",
     "soft penalties so near-feasible points still guide the search",
     ablPenalty},
    {"abl_samples", "D5: profiling-sample placement",
     "sample the widest and narrowest configurations", ablSamples},
    {"abl_sgd_rank", "D1: SGD latent rank",
     "rank = m*p = 108 (we default to 12)", ablSgdRank},
    {"abl_sparse_rows", "D7: sparse-row reconstruction variants",
     "SGD from two profiling samples per row", ablSparseRows},
};

const char *
boundText(Bound bound)
{
    return bound == Bound::AtMost ? "<=" : ">=";
}

const char *
expectText(bool holds)
{
    return holds ? "holds" : "deviation";
}

void
printClaims(const char *id, const Outcome &out)
{
    for (const Claim &c : out.claims) {
        std::printf("claim %s.%s: %.4g %s %.4g -> %s%s  (paper: %s)\n", id,
                    c.key.c_str(), c.measured, boundText(c.bound),
                    c.threshold, expectText(c.holds()),
                    c.asExpected() ? "" : "  UNEXPECTED", c.paper.c_str());
    }
}

void
printSeries(const char *kind,
            const std::map<std::string, std::vector<double>> &rows)
{
    for (const auto &[key, values] : rows) {
        std::printf("  %s%-28s", kind, key.c_str());
        for (double v : values)
            std::printf(" %.4g", v);
        std::printf("\n");
    }
}

void
print(const Experiment &e, const Outcome &out)
{
    std::printf("== %s: %s\npaper: %s\n", e.id, e.title, e.paper);
    printSeries("", out.rows);
    for (const auto &[key, values] : out.labels) {
        std::printf("  %-28s", key.c_str());
        for (const std::string &v : values)
            std::printf(" %s", v.c_str());
        std::printf("\n");
    }
    printSeries("ms ", out.timings);
    printClaims(e.id, out);
}

void
writeNumber(std::FILE *f, double v)
{
    if (std::isfinite(v))
        std::fprintf(f, "%.6g", v);
    else
        std::fprintf(f, "null");
}

void
writeSeries(std::FILE *f, const char *name,
            const std::map<std::string, std::vector<double>> &rows)
{
    std::fprintf(f, "      \"%s\": {", name);
    const char *sep = "\n";
    for (const auto &[key, values] : rows) {
        std::fprintf(f, "%s        \"%s\": ", sep, key.c_str());
        if (values.size() == 1) {
            writeNumber(f, values.front());
        } else {
            std::fprintf(f, "[");
            for (std::size_t i = 0; i < values.size(); ++i) {
                std::fprintf(f, "%s", i ? ", " : "");
                writeNumber(f, values[i]);
            }
            std::fprintf(f, "]");
        }
        sep = ",\n";
    }
    std::fprintf(f, "\n      },\n");
}

void
writeExperiment(std::FILE *f, const Experiment &e, const Outcome &out,
                bool last)
{
    std::fprintf(f, "    \"%s\": {\n", e.id);
    writeSeries(f, "rows", out.rows);
    std::fprintf(f, "      \"labels\": {");
    const char *sep = "\n";
    for (const auto &[key, values] : out.labels) {
        std::fprintf(f, "%s        \"%s\": [", sep, key.c_str());
        for (std::size_t i = 0; i < values.size(); ++i)
            std::fprintf(f, "%s\"%s\"", i ? ", " : "", values[i].c_str());
        std::fprintf(f, "]");
        sep = ",\n";
    }
    std::fprintf(f, "\n      },\n");
    writeSeries(f, "timings_ms", out.timings);
    std::fprintf(f, "      \"claims\": {");
    sep = "\n";
    for (const Claim &c : out.claims) {
        std::fprintf(f, "%s        \"%s\": {\"measured\": ", sep,
                     c.key.c_str());
        writeNumber(f, c.measured);
        std::fprintf(f,
                     ", \"bound\": \"%s\", \"threshold\": %.6g, "
                     "\"outcome\": \"%s\", \"expect\": \"%s\"}",
                     boundText(c.bound), c.threshold,
                     expectText(c.holds()),
                     expectText(c.expect == Expect::Holds));
        sep = ",\n";
    }
    std::fprintf(f, "\n      }\n    }%s\n", last ? "" : ",");
}

const Experiment *
find(const char *id)
{
    for (const Experiment &e : kExperiments) {
        if (std::strcmp(e.id, id) == 0)
            return &e;
    }
    std::fprintf(stderr, "paper: unknown experiment '%s'; known:", id);
    for (const Experiment &e : kExperiments)
        std::fprintf(stderr, " %s", e.id);
    std::fprintf(stderr, "\n");
    return nullptr;
}

int
runAll(const Preset &preset)
{
    std::FILE *f = std::fopen("BENCH_paper.json", "w");
    if (!f) {
        std::perror("paper: BENCH_paper.json");
        return 1;
    }
    std::fprintf(f, "{\n");
    // Every row is one deterministic run, so one repetition per point.
    writeProvenance(f, 1);
    std::fprintf(f,
                 "  \"preset\": {\"fast_path\": %s, \"mixes_per_lc\": %zu, "
                 "\"duration_sec\": %g},\n  \"experiments\": {\n",
                 preset.fastPath ? "true" : "false", preset.mixesPerLc,
                 preset.durationSec);
    const std::size_t n = std::size(kExperiments);
    for (std::size_t i = 0; i < n; ++i) {
        const Outcome out = kExperiments[i].run(preset);
        print(kExperiments[i], out);
        writeExperiment(f, kExperiments[i], out, i + 1 == n);
    }
    std::fprintf(f, "  }\n}\n");
    if (std::fclose(f) != 0) {
        std::perror("paper: BENCH_paper.json");
        return 1;
    }
    std::printf("wrote BENCH_paper.json\n");
    return 0;
}

} // namespace
} // namespace cuttlesys::paper

int
main(int argc, char **argv)
{
    using namespace cuttlesys::paper;
    cuttlesys::setInformEnabled(false);
    const Preset preset;
    if (argc == 1)
        return runAll(preset);

    const bool check = std::strcmp(argv[1], "--check") == 0;
    if (argc != (check ? 3 : 2)) {
        std::fprintf(stderr, "usage: paper [[--check] <id>]\n");
        return 2;
    }
    const Experiment *e = find(argv[argc - 1]);
    if (!e)
        return 2;
    const Outcome out = e->run(preset);
    if (!check) {
        print(*e, out);
        return 0;
    }
    printClaims(e->id, out);
    for (const Claim &c : out.claims) {
        if (!c.asExpected())
            return 1;
    }
    return 0;
}
