#include "telemetry/trace_sink.hh"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"

namespace cuttlesys {
namespace telemetry {

namespace {

/** JSON string escaping (quotes, backslash, control characters). */
void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (const char ch : s) {
        switch (ch) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(ch));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    // Shortest representation that round-trips the exact bits: a
    // saved trace must compare bitwise-equal against a live replay,
    // so truncating (e.g. %.9g) would read back as a spurious
    // mismatch. 15 digits suffice for most values; escalate to 17
    // (DBL_DECIMAL_DIG) only when the parse-back differs.
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    out += buf;
}

void
appendNumber(std::string &out, std::size_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%zu", v);
    out += buf;
}

void
appendNumber(std::string &out, int v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%d", v);
    out += buf;
}

void
appendInt64Array(std::string &out,
                 const std::vector<std::int64_t> &values)
{
    out += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(values[i]));
        out += buf;
    }
    out += ']';
}

void
appendIntArray(std::string &out,
               const std::vector<std::int32_t> &values)
{
    out += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        appendNumber(out, static_cast<int>(values[i]));
    }
    out += ']';
}

void
appendDoubleArray(std::string &out, const std::vector<double> &values)
{
    out += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        appendNumber(out, values[i]);
    }
    out += ']';
}

const char *
boolName(bool v)
{
    return v ? "true" : "false";
}

} // namespace

JsonlSink::JsonlSink(std::ostream &out, std::size_t buffer_bytes)
    : out_(&out), bufferBytes_(buffer_bytes)
{
    buffer_.reserve(bufferBytes_);
}

JsonlSink::JsonlSink(const std::string &path, std::size_t buffer_bytes)
    : owned_(path, std::ios::trunc), out_(&owned_),
      bufferBytes_(buffer_bytes)
{
    if (!owned_)
        fatal("cannot open trace file '", path, "' for writing");
    buffer_.reserve(bufferBytes_);
}

JsonlSink::~JsonlSink()
{
    flush();
}

void
JsonlSink::flush()
{
    if (!buffer_.empty()) {
        out_->write(buffer_.data(),
                    static_cast<std::streamsize>(buffer_.size()));
        buffer_.clear(); // keeps capacity: steady state reallocates 0x
    }
    out_->flush();
}

std::string
JsonlSink::toJson(const QuantumRecord &rec)
{
    std::string js;
    js.reserve(640);

    js += "{\"slice\":";
    appendNumber(js, rec.slice);
    js += ",\"node\":";
    appendNumber(js, rec.node);
    js += ",\"t\":";
    appendNumber(js, rec.timeSec);
    js += ",\"sched\":";
    appendEscaped(js, rec.scheduler);
    js += ",\"load\":";
    appendNumber(js, rec.loadFraction);
    js += ",\"budget_w\":";
    appendNumber(js, rec.powerBudgetW);
    js += ",\"profiled_lc_cores\":";
    appendNumber(js, rec.profiledLcCores);

    // Tail latencies are stored in raw seconds: a ms conversion on
    // write plus the inverse on read can be off by one ulp, which a
    // bitwise replay comparison would flag as nondeterminism.
    js += ",\"measured\":{\"tail_s\":";
    appendNumber(js, rec.measuredTailSec);
    js += ",\"util\":";
    appendNumber(js, rec.measuredUtil);
    js += ",\"completed\":";
    appendNumber(js, rec.measuredCompleted);
    js += ",\"violation\":";
    js += boolName(rec.measuredViolation);
    js += ",\"tail_observed\":";
    js += boolName(rec.tailObserved);
    js += ",\"polluted\":";
    js += boolName(rec.pollutedSlice);
    js += "}";

    js += ",\"lc\":{\"path\":";
    appendEscaped(js, lcPathName(rec.lcPath));
    js += ",\"config\":";
    appendEscaped(js, rec.lcConfigName);
    js += ",\"config_index\":";
    appendNumber(js, rec.lcConfigIndex);
    js += ",\"cores\":";
    appendNumber(js, rec.lcCores);
    js += ",\"core_delta\":";
    appendNumber(js, rec.lcCoreDelta);
    js += ",\"scan_saturated\":";
    appendNumber(js, rec.scanSaturated);
    js += ",\"cf_feasible\":";
    js += boolName(rec.chosenCfFeasible);
    js += ",\"queue_feasible\":";
    js += boolName(rec.chosenQueueFeasible);
    js += "}";

    js += ",\"search\":{\"budget_w\":";
    appendNumber(js, rec.batchPowerBudgetW);
    js += ",\"budget_ways\":";
    appendNumber(js, rec.cacheBudgetWays);
    js += ",\"seed_ways\":";
    appendNumber(js, rec.seedWays);
    js += ",\"seed_repaired\":";
    js += boolName(rec.seedRepaired);
    js += ",\"evaluations\":";
    appendNumber(js, rec.searchEvaluations);
    js += ",\"objective\":";
    appendNumber(js, rec.searchObjective);
    js += ",\"power_w\":";
    appendNumber(js, rec.searchPowerW);
    js += ",\"ways\":";
    appendNumber(js, rec.searchWays);
    js += ",\"repaired_ways\":";
    appendNumber(js, rec.searchRepairedWays);
    js += "}";

    js += ",\"enforce\":{\"victims\":[";
    for (std::size_t i = 0; i < rec.capVictims.size(); ++i) {
        if (i)
            js += ',';
        appendNumber(js, rec.capVictims[i]);
    }
    js += "],\"reclaimed_ways\":";
    appendNumber(js, rec.reclaimedWays);
    js += ",\"power_w\":";
    appendNumber(js, rec.enforcedPowerW);
    js += "}";

    js += ",\"check\":{\"violations\":[";
    for (std::size_t i = 0; i < rec.invariantViolations.size(); ++i) {
        if (i)
            js += ',';
        appendEscaped(js, rec.invariantViolations[i]);
    }
    js += "]}";

    js += ",\"executed\":{\"tail_s\":";
    appendNumber(js, rec.executedTailSec);
    js += ",\"power_w\":";
    appendNumber(js, rec.executedPowerW);
    js += ",\"qos_violated\":";
    js += boolName(rec.qosViolated);
    js += ",\"gmean_bips\":";
    appendNumber(js, rec.gmeanBips);
    js += "}";

    // The decision group is optional: legacy schedulers (and the
    // stability gate's fastPath=false mode) leave decisionPath at
    // None and emit no group, keeping pre-gate traces bitwise.
    if (rec.decisionPath != DecisionPath::None) {
        js += ",\"decision\":{\"path\":";
        appendEscaped(js, decisionPathName(rec.decisionPath));
        js += ",\"invalidation\":";
        appendEscaped(js, invalidationReasonName(rec.invalidationReason));
        js += ",\"since_full\":";
        appendNumber(js, rec.quantaSinceFull);
        js += "}";
    }

    // Tenancy is an optional group: hand-built records (tests, older
    // tools) leave the slot maps empty and emit no group, and old
    // traces without one parse back with empty maps.
    if (!rec.slotAccounts.empty() || !rec.preemptedAccounts.empty()) {
        js += ",\"tenancy\":{\"accounts\":";
        appendIntArray(js, rec.slotAccounts);
        js += ",\"bips\":";
        appendDoubleArray(js, rec.slotBips);
        js += ",\"cores\":";
        appendDoubleArray(js, rec.slotCores);
        js += ",\"preempted\":";
        appendIntArray(js, rec.preemptedAccounts);
        js += "}";
    }

    // The DAG group is optional too: non-DAG runs never fill the
    // workflow slot maps, so their traces — including every frozen
    // pre-DAG reference — keep emitting byte-identical lines.
    if (!rec.slotWorkflows.empty() || !rec.completedWorkflows.empty()) {
        js += ",\"dag\":{\"workflows\":";
        appendInt64Array(js, rec.slotWorkflows);
        js += ",\"tasks\":";
        appendIntArray(js, rec.slotDagTasks);
        js += ",\"hits\":";
        appendNumber(js, rec.artifactHits);
        js += ",\"misses\":";
        appendNumber(js, rec.artifactMisses);
        js += ",\"transfer_bytes\":";
        appendNumber(js, rec.transferBytes);
        js += ",\"done\":";
        appendInt64Array(js, rec.completedWorkflows);
        js += ",\"done_accounts\":";
        appendIntArray(js, rec.completedAccounts);
        js += ",\"done_makespans\":";
        appendInt64Array(js, rec.completedMakespans);
        js += "}";
    }

    // Work counters are optional as well: records of quanta that ran
    // no reconstruction (fast reuse, baseline schedulers) carry all
    // zeros and emit no group.
    bool worked = false;
    for (std::size_t m = 0; m < kNumCfMetrics; ++m)
        worked = worked || rec.sgdEpochs[m] > 0 || rec.coldStarts[m] ||
                 rec.foldInSolves[m] > 0;
    if (worked) {
        js += ",\"work\":{\"sgd_epochs\":[";
        for (std::size_t m = 0; m < kNumCfMetrics; ++m) {
            if (m)
                js += ',';
            appendNumber(js, rec.sgdEpochs[m]);
        }
        js += "],\"cold\":[";
        for (std::size_t m = 0; m < kNumCfMetrics; ++m) {
            if (m)
                js += ',';
            js += boolName(rec.coldStarts[m]);
        }
        js += "],\"fold_ins\":[";
        for (std::size_t m = 0; m < kNumCfMetrics; ++m) {
            if (m)
                js += ',';
            appendNumber(js, rec.foldInSolves[m]);
        }
        js += "]}";
    }

    js += ",\"phase_ms\":{";
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        if (p)
            js += ',';
        appendEscaped(js, phaseName(static_cast<Phase>(p)));
        js += ':';
        appendNumber(js, rec.phaseSec[p] * 1e3);
    }
    js += "}}";
    return js;
}

void
JsonlSink::record(const QuantumRecord &rec)
{
    buffer_ += toJson(rec);
    buffer_ += '\n';
    ++written_;
    // Drain on the line boundary after crossing the threshold — never
    // mid-record — so a crash or concurrent reader sees whole lines.
    if (buffer_.size() >= bufferBytes_)
        flush();
}

} // namespace telemetry
} // namespace cuttlesys
