/**
 * @file
 * The batch search on one decision quantum's landscape: Fig 10a's
 * explored points and ablations D3 and D4.
 */

#include <algorithm>

#include "paper.hh"
#include "search/dds.hh"
#include "search/ga.hh"

namespace cuttlesys::paper {

namespace {

/**
 * The decision-quantum search landscape: 16 batch jobs taken from the
 * training tables, @p budget_w of batch power, 28 LLC ways.
 */
struct Landscape
{
    Matrix bips{16, kNumJobConfigs};
    Matrix power{16, kNumJobConfigs};
    ObjectiveContext ctx;

    explicit Landscape(double budget_w);
    Landscape(const Landscape &) = delete;
    Landscape &operator=(const Landscape &) = delete;
};

Landscape::Landscape(double budget_w)
{
    const TrainingTables &tables = trainingTables();
    for (std::size_t j = 0; j < 16; ++j) {
        const std::size_t src = j % tables.bips.rows();
        for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
            bips(j, c) = tables.bips(src, c);
            power(j, c) = tables.power(src, c);
        }
    }
    ctx.bips = &bips;
    ctx.power = &power;
    ctx.powerBudgetW = budget_w;
    ctx.cacheBudgetWays = 28.0;
}

} // namespace

Outcome
fig10a(const Preset &)
{
    const Landscape land(30.0);
    SearchTrace dds_trace, ga_trace;
    const SearchResult dds = parallelDds(land.ctx, {}, &dds_trace);
    const SearchResult ga = geneticSearch(land.ctx, GaOptions{}, &ga_trace);

    Outcome out;
    for (const auto &[name, trace, result] :
         {std::tuple{"dds", &dds_trace, &dds},
          std::tuple{"ga", &ga_trace, &ga}}) {
        const std::string n = std::string(name) + ".";
        std::size_t feasible = 0, near_front = 0;
        // Explored points per 4 W power band from 10 W.
        std::vector<double> bands(10, 0.0);
        for (const auto &m : trace->explored) {
            feasible += m.feasible ? 1 : 0;
            near_front +=
                m.feasible && m.gmeanBips > 0.9 * result->metrics.gmeanBips
                    ? 1 : 0;
            bands[static_cast<std::size_t>(std::clamp(
                static_cast<int>((m.powerW - 10.0) / 4.0), 0, 9))] += 1.0;
        }
        out.put(n + "evaluations",
                static_cast<double>(trace->explored.size()));
        out.put(n + "feasible", static_cast<double>(feasible));
        out.put(n + "near_front", static_cast<double>(near_front));
        out.put(n + "best_gmean", result->metrics.gmeanBips);
        out.put(n + "best_power_w", result->metrics.powerW);
        out.put(n + "best_objective", result->metrics.objective);
        out.rows[n + "power_bands"] = bands;
    }
    out.claim("dds_best_beats_ga", "DDS finds a better best point",
              out.at("dds.best_objective") - out.at("ga.best_objective"),
              Bound::AtLeast, 0.0);
    out.claim("dds_more_near_front", "DDS explores more near-front points",
              out.at("dds.near_front") / out.at("ga.near_front"),
              Bound::AtLeast, 1.0, Expect::Deviation);
    return out;
}

Outcome
ablDdsParams(const Preset &)
{
    const DdsOptions defaults; // the paper's parameters
    DdsOptions r02 = defaults;
    r02.rValues = {0.2};
    DdsOptions r05 = defaults;
    r05.rValues = {0.5};
    DdsOptions iters10 = defaults;
    iters10.maxIterations = 10;
    DdsOptions iters160 = defaults;
    iters160.maxIterations = 160;
    DdsOptions points2 = defaults;
    points2.pointsPerIteration = 2;
    const std::pair<const char *, DdsOptions> variants[] = {
        {"paper", defaults},          {"single_r_0.2", r02},
        {"single_r_0.5", r05},        {"iterations_10", iters10},
        {"iterations_160", iters160}, {"points_2", points2}};

    Outcome out;
    out.rows["budget_w"] = {45, 30, 20};
    for (double budget : out.rows["budget_w"]) {
        const Landscape land(budget);
        for (const auto &[name, base] : variants) {
            // Mean objective over 5 seeds.
            double sum = 0.0;
            for (std::size_t t = 0; t < 5; ++t) {
                DdsOptions options = base;
                options.seed = 100 + t;
                sum += parallelDds(land.ctx, options).metrics.objective;
            }
            out.rows[std::string(name) + ".objective"].push_back(sum / 5.0);
        }
    }
    const std::vector<double> &multi = out.rows["paper.objective"];
    double multi_r_lead = 1e9, more_work_lead = 1e9;
    for (std::size_t b = 0; b < multi.size(); ++b) {
        multi_r_lead = std::min(
            {multi_r_lead, multi[b] - out.rows["single_r_0.2.objective"][b],
             multi[b] - out.rows["single_r_0.5.objective"][b]});
        more_work_lead = std::min(
            {more_work_lead,
             out.rows["iterations_160.objective"][b] - multi[b],
             multi[b] - out.rows["iterations_10.objective"][b],
             multi[b] - out.rows["points_2.objective"][b]});
    }
    out.claim("multi_r_beats_single_r", "r = {0.2,0.3,0.4,0.5} thread groups",
              multi_r_lead, Bound::AtLeast, 0.0, Expect::Deviation);
    out.claim("more_iterations_and_points_help",
              "40 iterations, 10 points per iteration", more_work_lead,
              Bound::AtLeast, 0.0);
    return out;
}

Outcome
ablPenalty(const Preset &)
{
    Outcome out;
    out.rows["budget_w"] = {45, 30, 22, 18};
    double soft_lead = 1e9;
    for (double budget : out.rows["budget_w"]) {
        const Landscape land(budget);
        ObjectiveContext hard = land.ctx;
        hard.hardConstraints = true;
        // Gmean of the feasible point, 0 when infeasible: the runtime
        // gates a soft search's point to the budget.
        double soft = 0.0, hard_gmean = 0.0, soft_feasible = 1.0;
        for (std::size_t t = 0; t < 5; ++t) {
            DdsOptions options;
            options.seed = 300 + t;
            const SearchResult s = parallelDds(land.ctx, options);
            const SearchResult h = parallelDds(hard, options);
            soft += s.metrics.feasible ? s.metrics.gmeanBips : 0.0;
            hard_gmean += h.metrics.feasible ? h.metrics.gmeanBips : 0.0;
            soft_feasible = s.metrics.feasible ? soft_feasible : 0.0;
        }
        out.rows["soft.gmean"].push_back(soft / 5.0);
        out.rows["hard.gmean"].push_back(hard_gmean / 5.0);
        out.rows["soft.always_feasible"].push_back(soft_feasible);
        soft_lead = std::min(soft_lead, (soft - hard_gmean) / 5.0);
    }
    out.claim("soft_at_least_hard", "soft penalties guide the search",
              soft_lead, Bound::AtLeast, 0.0);
    return out;
}

} // namespace cuttlesys::paper
