/**
 * @file
 * The paper runner: every table, figure and ablation of the paper's
 * evaluation as one registered experiment.
 *
 * An experiment maps the shared Preset to named rows and registers
 * the paper's claims about them. A claim compares one number computed
 * from the rows with a committed threshold, and records whether this
 * reproduction meets the paper (Expect::Holds) or is a known deviation
 * (Expect::Deviation). `paper --check <id>` fails when an outcome
 * differs from its expectation, so a regression fails it, and so does
 * a deviation that starts to hold, until the docs catch up.
 *
 * Claims compare deterministic rows against thresholds only. Wall
 * times go into separate timing rows, which no claim reads.
 */

#ifndef CUTTLESYS_BENCH_PAPER_PAPER_HH
#define CUTTLESYS_BENCH_PAPER_PAPER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace cuttlesys::paper {

using namespace cuttlesys::bench;

/** The one configuration every experiment runs at. */
struct Preset
{
    /** Evaluation mixes per LC service in the sweeps. */
    std::size_t mixesPerLc = 2;
    /** Simulated seconds per run unless a figure fixes its own. */
    double durationSec = 0.8;
    /**
     * The paper's runtime runs the full profile -> reconstruct ->
     * search loop every quantum. The schedule-reuse fast path is a
     * fleet-layer addition the paper does not have.
     */
    bool fastPath = false;

    /** A CuttleSys scheduler for @p mix, with the preset applied. */
    std::unique_ptr<CuttleSysScheduler>
    cuttleSys(const WorkloadMix &mix, CuttleSysOptions options = {}) const;

    /** Driver options for a constant cap and load. */
    DriverOptions driver(double cap_fraction, double load_fraction = 0.8,
                         double duration_sec = 0.0) const;
};

/** Whether a claim's measured value must stay at most or at least
 *  its threshold. */
enum class Bound { AtMost, AtLeast };

enum class Expect { Holds, Deviation };

/** One paper claim, evaluated on an experiment's rows. */
struct Claim
{
    std::string key;
    std::string paper; //!< what the paper reports
    double measured = 0.0;
    Bound bound = Bound::AtLeast;
    double threshold = 0.0;
    Expect expect = Expect::Holds;

    bool holds() const
    {
        return bound == Bound::AtMost ? measured <= threshold
                                      : measured >= threshold;
    }
    bool asExpected() const { return holds() == (expect == Expect::Holds); }
};

/** What an experiment produced. */
struct Outcome
{
    /** Named series; a scalar is a series of one. */
    std::map<std::string, std::vector<double>> rows;
    std::map<std::string, std::vector<std::string>> labels;
    /** Wall-clock ms: they vary run to run, so no claim reads them. */
    std::map<std::string, std::vector<double>> timings;
    std::vector<Claim> claims;

    void put(const std::string &key, double value) { rows[key] = {value}; }
    /** The row @p key's first value; panics when it is missing. */
    double at(const std::string &key) const;
    void claim(std::string key, std::string paper, double measured,
               Bound bound, double threshold,
               Expect expect = Expect::Holds);
};

// Section VII-A, Table I, Fig 1 (system.cc).
Outcome table0(const Preset &);
Outcome table1(const Preset &);
Outcome fig01(const Preset &);
// Reconstruction accuracy (accuracy.cc).
Outcome tableA(const Preset &);
Outcome fig05a(const Preset &);
Outcome fig05b(const Preset &);
Outcome fig09(const Preset &);
Outcome ablSamples(const Preset &);
Outcome ablSgdRank(const Preset &);
Outcome ablSparseRows(const Preset &);
// Whole runs under power caps (runs.cc).
Outcome fig05c(const Preset &);
Outcome fig07(const Preset &);
Outcome fig08a(const Preset &);
Outcome fig08b(const Preset &);
Outcome fig08c(const Preset &);
Outcome fig10b(const Preset &);
Outcome ablGatingPolicy(const Preset &);
// The batch search on one quantum's landscape (search.cc).
Outcome fig10a(const Preset &);
Outcome ablDdsParams(const Preset &);
Outcome ablPenalty(const Preset &);

} // namespace cuttlesys::paper

#endif // CUTTLESYS_BENCH_PAPER_PAPER_HH
