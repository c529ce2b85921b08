/**
 * @file
 * The reference system: Section VII-A's max QPS per service, Table I
 * and Fig 1's characterization of the LC services.
 */

#include <algorithm>
#include <cmath>

#include "lcsim/queue_sim.hh"
#include "model/core_model.hh"
#include "paper.hh"

namespace cuttlesys::paper {

Outcome
table0(const Preset &)
{
    struct PaperRow { const char *name; double qps; };
    const PaperRow paper_rows[] = {
        {"xapian", 22000}, {"masstree", 17000}, {"imgdnn", 8000},
        {"moses", 8000},   {"silo", 24000},
    };
    Outcome out;
    for (const AppProfile &app : lcApps()) {
        const std::string n = app.name + ".";
        double paper_qps = 0.0;
        for (const auto &[name, qps] : paper_rows)
            paper_qps = app.name == name ? qps : paper_qps;
        out.put(n + "max_qps", app.maxQps);
        out.put(n + "paper_qps", paper_qps);
        out.put(n + "ratio", app.maxQps / paper_qps);
        out.put(n + "qos_ms", app.qosMs);
    }
    const char *ordering = "silo > xapian > masstree >> imgdnn ~ moses";
    out.claim("silo_over_imgdnn", ordering,
              out.at("silo.max_qps") / out.at("imgdnn.max_qps"),
              Bound::AtLeast, 1.0);
    out.claim("silo_over_moses", ordering,
              out.at("silo.max_qps") / out.at("moses.max_qps"),
              Bound::AtLeast, 1.0);
    out.claim("xapian_over_imgdnn", ordering,
              out.at("xapian.max_qps") / out.at("imgdnn.max_qps"),
              Bound::AtLeast, 1.0);
    return out;
}

Outcome
table1(const Preset &)
{
    Outcome out;
    out.put("cores", static_cast<double>(params().numCores));
    out.put("llc_mb", params().llcSizeMB);
    out.put("llc_ways", static_cast<double>(params().llcWays));
    out.put("max_power_w", maxPowerW());
    for (double cap : {0.9, 0.8, 0.7, 0.6, 0.5}) {
        out.rows["cap_pct"].push_back(cap * 100.0);
        out.rows["cap_w"].push_back(cap * maxPowerW());
    }
    out.put("core_configs", static_cast<double>(kNumCoreConfigs));
    out.put("cache_allocs", static_cast<double>(kNumCacheAllocs));
    out.put("job_configs", static_cast<double>(kNumJobConfigs));
    return out;
}

namespace {

struct ConfigPoint
{
    CoreConfig config;
    double tailLo = 0.0;  //!< p99 at 20% load, s
    double tailHi = 0.0;  //!< p99 at 80% load, s
    double powerLo = 0.0; //!< 16-core power at 20% load, W
    double powerHi = 0.0; //!< 16-core power at 80% load, W
};

/** One service on 16 servers across all 27 core configs (4 ways),
 *  sorted by tail at 80% load: the paper's x-axis order. */
std::vector<ConfigPoint>
characterize(const AppProfile &app)
{
    constexpr std::size_t servers = 16;
    std::vector<ConfigPoint> points;
    for (std::size_t k = 0; k < kNumCoreConfigs; ++k) {
        ConfigPoint point;
        point.config = CoreConfig::fromIndex(k);
        const JobConfig joint(point.config, kNumCacheAllocs - 1);
        const double ips = coreIps(app, joint, params());
        const double ipc = coreIpc(app, joint, params());
        for (const double fraction : {0.2, 0.8}) {
            LcQueueSim sim(app, servers, ips, 1000 + k);
            sim.setLoadQps(fraction * app.maxQps);
            sim.run(0.4);
            sim.clearWindow();
            sim.run(1.2);
            const double tail =
                sim.completedInWindow() > 0 ? sim.tailLatency(99.0) : 1.6;
            const double chip_power =
                corePower(app, point.config, ipc * sim.utilization(),
                          params()) *
                static_cast<double>(servers);
            (fraction < 0.5 ? point.tailLo : point.tailHi) = tail;
            (fraction < 0.5 ? point.powerLo : point.powerHi) = chip_power;
        }
        points.push_back(point);
    }
    std::sort(points.begin(), points.end(),
              [](const ConfigPoint &a, const ConfigPoint &b) {
                  return a.tailHi < b.tailHi;
              });
    return points;
}

/**
 * Geo-mean tail blow-up at 80% load when section @p s is 2-wide
 * rather than 6-wide, over the other sections' settings: the
 * dominant section has the largest.
 */
double
sectionImpact(const std::vector<ConfigPoint> &points, Section s)
{
    double narrow_sum = 0.0, wide_sum = 0.0;
    std::size_t narrow_n = 0, wide_n = 0;
    for (const auto &p : points) {
        const double log_tail = std::log(std::max(p.tailHi, 1e-6));
        if (p.config.width(s) == 2) {
            narrow_sum += log_tail;
            ++narrow_n;
        } else if (p.config.width(s) == 6) {
            wide_sum += log_tail;
            ++wide_n;
        }
    }
    return std::exp(narrow_sum / narrow_n - wide_sum / wide_n);
}

} // namespace

Outcome
fig01(const Preset &)
{
    Outcome out;
    for (const AppProfile &app : lcApps()) {
        const std::string n = app.name + ".";
        const std::vector<ConfigPoint> points = characterize(app);
        const ConfigPoint *cheapest = nullptr;
        std::size_t viable_lo = 0;
        for (const ConfigPoint &p : points) {
            out.labels[n + "config"].push_back(p.config.toString());
            out.rows[n + "p99_20_ms"].push_back(p.tailLo * 1e3);
            out.rows[n + "p99_80_ms"].push_back(p.tailHi * 1e3);
            out.rows[n + "power_20_w"].push_back(p.powerLo);
            out.rows[n + "power_80_w"].push_back(p.powerHi);
            viable_lo += p.tailLo <= app.qosSeconds() ? 1 : 0;
            if (p.tailHi <= app.qosSeconds() &&
                (!cheapest || p.powerHi < cheapest->powerHi))
                cheapest = &p;
        }
        out.put(n + "fe_blowup", sectionImpact(points, Section::FrontEnd));
        out.put(n + "be_blowup", sectionImpact(points, Section::BackEnd));
        out.put(n + "ls_blowup", sectionImpact(points, Section::LoadStore));
        out.put(n + "viable_at_20", static_cast<double>(viable_lo));
        if (cheapest) {
            out.labels[n + "least_power_config"] = {
                cheapest->config.toString()};
            out.put(n + "least_power_w", cheapest->powerHi);
        }
    }
    out.claim("xapian_ls_bound", "xapian's tail is bound by LS width",
              out.at("xapian.ls_blowup") /
                  std::max(out.at("xapian.fe_blowup"),
                           out.at("xapian.be_blowup")),
              Bound::AtLeast, 1.0);
    out.claim("moses_fe_bound", "moses is front-end bound",
              out.at("moses.fe_blowup") /
                  std::max(out.at("moses.be_blowup"),
                           out.at("moses.ls_blowup")),
              Bound::AtLeast, 1.0);
    return out;
}

} // namespace cuttlesys::paper
