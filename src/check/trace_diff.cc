#include "check/trace_diff.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>

namespace cuttlesys {
namespace check {

namespace {

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
formatVector(const std::vector<std::size_t> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(v[i]);
    }
    out += ']';
    return out;
}

std::string
formatVector(const std::vector<std::int32_t> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(v[i]);
    }
    out += ']';
    return out;
}

std::string
formatVector(const std::vector<std::int64_t> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(v[i]);
    }
    out += ']';
    return out;
}

std::string
formatVector(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += formatDouble(v[i]);
    }
    out += ']';
    return out;
}

/** Accumulates field comparisons for one pair of quanta. */
class RecordDiffer
{
  public:
    RecordDiffer(TraceDiff &diff, std::size_t slice)
        : diff_(diff), slice_(slice)
    {
    }

    void cmp(const char *field, double a, double b)
    {
        // Exact: both values took the same code path through the same
        // deterministic simulator, so any difference is real.
        note(field, a == b, formatDouble(a), formatDouble(b));
    }

    void cmp(const char *field, std::size_t a, std::size_t b)
    {
        note(field, a == b, std::to_string(a), std::to_string(b));
    }

    void cmp(const char *field, int a, int b)
    {
        note(field, a == b, std::to_string(a), std::to_string(b));
    }

    void cmp(const char *field, bool a, bool b)
    {
        note(field, a == b, a ? "true" : "false",
             b ? "true" : "false");
    }

    void cmp(const char *field, const std::string &a,
             const std::string &b)
    {
        note(field, a == b, a, b);
    }

    void cmp(const char *field, const std::vector<std::size_t> &a,
             const std::vector<std::size_t> &b)
    {
        note(field, a == b, formatVector(a), formatVector(b));
    }

    void cmp(const char *field, const std::vector<std::int32_t> &a,
             const std::vector<std::int32_t> &b)
    {
        note(field, a == b, formatVector(a), formatVector(b));
    }

    void cmp(const char *field, const std::vector<std::int64_t> &a,
             const std::vector<std::int64_t> &b)
    {
        note(field, a == b, formatVector(a), formatVector(b));
    }

    void cmp(const char *field, const std::vector<double> &a,
             const std::vector<double> &b)
    {
        note(field, a == b, formatVector(a), formatVector(b));
    }

  private:
    void note(const char *field, bool equal, std::string lhs,
              std::string rhs)
    {
        ++diff_.comparedFields;
        if (equal)
            return;
        FieldMismatch m;
        m.slice = slice_;
        m.field = field;
        m.lhs = std::move(lhs);
        m.rhs = std::move(rhs);
        diff_.mismatches.push_back(std::move(m));
    }

    TraceDiff &diff_;
    std::size_t slice_;
};

} // namespace

const char *
lcPathClass(telemetry::LcPath path)
{
    switch (path) {
      case telemetry::LcPath::None:
        return "none";
      case telemetry::LcPath::ColdStart:
        return "cold-start";
      case telemetry::LcPath::ViolationEscalate:
        return "violation-escalate";
      case telemetry::LcPath::ViolationRelocate:
        return "violation-relocate";
      case telemetry::LcPath::CfFeasible:
      case telemetry::LcPath::QueueFeasible:
      case telemetry::LcPath::NoFeasible:
        return "scan";
      case telemetry::LcPath::StaticPolicy:
        return "static";
    }
    return "?";
}

TraceDiff
diffDecisionTraces(const std::vector<telemetry::QuantumRecord> &a,
                   const std::vector<telemetry::QuantumRecord> &b)
{
    TraceDiff diff;
    diff.recordsA = a.size();
    diff.recordsB = b.size();

    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        const telemetry::QuantumRecord &ra = a[i];
        const telemetry::QuantumRecord &rb = b[i];
        RecordDiffer d(diff, ra.slice);

        // Identity and offered conditions. The node stamp matters in
        // fleet replays: two traces can agree on every per-slice
        // decision yet disagree about which node executed it, which
        // is a placement divergence, not a clean replay.
        d.cmp("node", ra.node, rb.node);
        d.cmp("slice", ra.slice, rb.slice);
        d.cmp("t", ra.timeSec, rb.timeSec);
        d.cmp("sched", ra.scheduler, rb.scheduler);
        d.cmp("load", ra.loadFraction, rb.loadFraction);
        d.cmp("budget_w", ra.powerBudgetW, rb.powerBudgetW);
        d.cmp("profiled_lc_cores", ra.profiledLcCores,
              rb.profiledLcCores);

        // Previous slice's feedback: deterministic when every prior
        // decision matched.
        d.cmp("measured.tail", ra.measuredTailSec, rb.measuredTailSec);
        d.cmp("measured.util", ra.measuredUtil, rb.measuredUtil);
        d.cmp("measured.completed", ra.measuredCompleted,
              rb.measuredCompleted);
        d.cmp("measured.violation", ra.measuredViolation,
              rb.measuredViolation);
        d.cmp("measured.tail_observed", ra.tailObserved,
              rb.tailObserved);
        d.cmp("measured.polluted", ra.pollutedSlice, rb.pollutedSlice);

        // The LC decision proper.
        d.cmp("lc.path_class", std::string(lcPathClass(ra.lcPath)),
              std::string(lcPathClass(rb.lcPath)));
        d.cmp("lc.config_index", ra.lcConfigIndex, rb.lcConfigIndex);
        d.cmp("lc.config", ra.lcConfigName, rb.lcConfigName);
        d.cmp("lc.cores", ra.lcCores, rb.lcCores);
        d.cmp("lc.core_delta", ra.lcCoreDelta, rb.lcCoreDelta);

        // Cap enforcement's structural outcome.
        d.cmp("enforce.victims", ra.capVictims, rb.capVictims);
        d.cmp("enforce.reclaimed_ways", ra.reclaimedWays,
              rb.reclaimedWays);

        // Executed slice: pure function of the decision sequence.
        d.cmp("executed.tail", ra.executedTailSec, rb.executedTailSec);
        d.cmp("executed.power_w", ra.executedPowerW,
              rb.executedPowerW);
        d.cmp("executed.qos_violated", ra.qosViolated, rb.qosViolated);
        d.cmp("executed.gmean_bips", ra.gmeanBips, rb.gmeanBips);

        // The stability gate's routing. The path taken (and why the
        // gate forced a full quantum) must replay bitwise: a trace
        // that reuses where the reference re-searched diverged even
        // when both landed on the same schedule.
        d.cmp("decision.path",
              std::string(telemetry::decisionPathName(ra.decisionPath)),
              std::string(
                  telemetry::decisionPathName(rb.decisionPath)));
        d.cmp("decision.invalidation",
              std::string(telemetry::invalidationReasonName(
                  ra.invalidationReason)),
              std::string(telemetry::invalidationReasonName(
                  rb.invalidationReason)));
        d.cmp("decision.since_full", ra.quantaSinceFull,
              rb.quantaSinceFull);

        // Tenancy: who held each slot and who was evicted are part of
        // the deterministic decision sequence under fair-share
        // ordering, so replay must reproduce them bitwise too.
        d.cmp("tenancy.accounts", ra.slotAccounts, rb.slotAccounts);
        d.cmp("tenancy.bips", ra.slotBips, rb.slotBips);
        d.cmp("tenancy.cores", ra.slotCores, rb.slotCores);
        d.cmp("tenancy.preempted", ra.preemptedAccounts,
              rb.preemptedAccounts);

        // DAG workflows: which instance/task held each slot, the
        // artifact-cache outcome of this quantum's placements, and
        // which workflows finished — all products of the deterministic
        // completion/release/placement order, so replay must match.
        d.cmp("dag.workflows", ra.slotWorkflows, rb.slotWorkflows);
        d.cmp("dag.tasks", ra.slotDagTasks, rb.slotDagTasks);
        d.cmp("dag.hits", ra.artifactHits, rb.artifactHits);
        d.cmp("dag.misses", ra.artifactMisses, rb.artifactMisses);
        d.cmp("dag.transfer_bytes", ra.transferBytes,
              rb.transferBytes);
        d.cmp("dag.done", ra.completedWorkflows,
              rb.completedWorkflows);
        d.cmp("dag.done_accounts", ra.completedAccounts,
              rb.completedAccounts);
        d.cmp("dag.done_makespans", ra.completedMakespans,
              rb.completedMakespans);

        // Deterministic work: SGD epochs, cold starts and fold-in
        // solves per engine are a function of the decision inputs,
        // so a change in the reconstruction's algorithmic work shows
        // here at any host load, even when the decisions happen to
        // agree.
        d.cmp("work.sgd_epochs",
              std::vector<std::size_t>(ra.sgdEpochs.begin(),
                                       ra.sgdEpochs.end()),
              std::vector<std::size_t>(rb.sgdEpochs.begin(),
                                       rb.sgdEpochs.end()));
        d.cmp("work.cold",
              std::vector<std::size_t>(ra.coldStarts.begin(),
                                       ra.coldStarts.end()),
              std::vector<std::size_t>(rb.coldStarts.begin(),
                                       rb.coldStarts.end()));
        d.cmp("work.fold_ins",
              std::vector<std::size_t>(ra.foldInSolves.begin(),
                                       ra.foldInSolves.end()),
              std::vector<std::size_t>(rb.foldInSolves.begin(),
                                       rb.foldInSolves.end()));
    }
    return diff;
}

std::string
TraceDiff::toString(std::size_t max_lines) const
{
    std::ostringstream oss;
    if (identical()) {
        oss << "traces identical: " << recordsA << " quanta, "
            << comparedFields << " fields compared";
        return oss.str();
    }
    oss << "traces differ: " << recordsA << " vs " << recordsB
        << " quanta, " << mismatches.size() << " mismatched field(s) "
        << "of " << comparedFields << " compared";
    const std::size_t lines = std::min(max_lines, mismatches.size());
    for (std::size_t i = 0; i < lines; ++i) {
        const FieldMismatch &m = mismatches[i];
        oss << "\n  slice " << m.slice << " " << m.field << ": "
            << m.lhs << " != " << m.rhs;
    }
    if (lines < mismatches.size())
        oss << "\n  ... " << mismatches.size() - lines << " more";
    return oss.str();
}

} // namespace check
} // namespace cuttlesys
