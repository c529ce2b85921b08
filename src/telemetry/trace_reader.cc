#include "telemetry/trace_reader.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <variant>

#include "common/logging.hh"

namespace cuttlesys {
namespace telemetry {

namespace {

/** A parsed JSON value (the subset the sink emits). */
struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue
{
    std::variant<std::nullptr_t, bool, double, std::string,
                 std::shared_ptr<JsonArray>,
                 std::shared_ptr<JsonObject>>
        v = nullptr;

    bool asBool(bool fallback = false) const
    {
        if (const bool *b = std::get_if<bool>(&v))
            return *b;
        return fallback;
    }
    double asNumber(double fallback = 0.0) const
    {
        if (const double *d = std::get_if<double>(&v))
            return *d;
        return fallback;
    }
    std::string asString() const
    {
        if (const std::string *s = std::get_if<std::string>(&v))
            return *s;
        return {};
    }
    const JsonObject *asObject() const
    {
        if (const auto *o =
                std::get_if<std::shared_ptr<JsonObject>>(&v))
            return o->get();
        return nullptr;
    }
    const JsonArray *asArray() const
    {
        if (const auto *a = std::get_if<std::shared_ptr<JsonArray>>(&v))
            return a->get();
        return nullptr;
    }
};

/** Recursive-descent parser over a single line. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue parse()
    {
        const JsonValue value = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters");
        return value;
    }

  private:
    [[noreturn]] void fail(const char *what) const
    {
        fatal("trace parse error at byte ", pos_, ": ", what);
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char ch)
    {
        if (peek() != ch)
            fail("unexpected character");
        ++pos_;
    }

    bool consumeLiteral(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue parseValue()
    {
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return JsonValue{parseString()};
          case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            return JsonValue{true};
          case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            return JsonValue{false};
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue{nullptr};
          default: return parseNumber();
        }
    }

    JsonValue parseObject()
    {
        expect('{');
        auto obj = std::make_shared<JsonObject>();
        if (peek() == '}') {
            ++pos_;
            return JsonValue{std::move(obj)};
        }
        while (true) {
            if (peek() != '"')
                fail("expected key string");
            std::string key = parseString();
            expect(':');
            (*obj)[std::move(key)] = parseValue();
            const char next = peek();
            ++pos_;
            if (next == '}')
                return JsonValue{std::move(obj)};
            if (next != ',')
                fail("expected ',' or '}'");
        }
    }

    JsonValue parseArray()
    {
        expect('[');
        auto arr = std::make_shared<JsonArray>();
        if (peek() == ']') {
            ++pos_;
            return JsonValue{std::move(arr)};
        }
        while (true) {
            arr->push_back(parseValue());
            const char next = peek();
            ++pos_;
            if (next == ']')
                return JsonValue{std::move(arr)};
            if (next != ',')
                fail("expected ',' or ']'");
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char ch = text_[pos_++];
            if (ch == '"')
                return out;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'n':  out += '\n'; break;
              case 't':  out += '\t'; break;
              case 'r':  out += '\r'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'u': {
                  if (pos_ + 4 > text_.size())
                      fail("bad unicode escape");
                  const std::string hex(text_.substr(pos_, 4));
                  pos_ += 4;
                  const long code = std::strtol(hex.c_str(), nullptr,
                                                16);
                  // The sink only escapes control characters, which
                  // fit a single byte.
                  out += static_cast<char>(code);
                  break;
              }
              default: fail("unknown escape");
            }
        }
    }

    JsonValue parseNumber()
    {
        skipSpace();
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected number");
        const std::string tok(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double value = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            fail("malformed number");
        return JsonValue{value};
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

const JsonValue &
field(const JsonObject &obj, const std::string &key)
{
    static const JsonValue missing;
    const auto it = obj.find(key);
    return it == obj.end() ? missing : it->second;
}

std::size_t
asIndex(const JsonValue &v)
{
    const double d = v.asNumber();
    return d > 0.0 ? static_cast<std::size_t>(d + 0.5) : 0;
}

} // namespace

QuantumRecord
parseRecord(std::string_view line)
{
    Parser parser(line);
    const JsonValue root = parser.parse();
    const JsonObject *top = root.asObject();
    if (!top)
        fatal("trace line is not a JSON object");

    QuantumRecord rec;
    rec.slice = asIndex(field(*top, "slice"));
    rec.node = asIndex(field(*top, "node"));
    rec.timeSec = field(*top, "t").asNumber();
    rec.scheduler = field(*top, "sched").asString();
    rec.loadFraction = field(*top, "load").asNumber(-1.0);
    rec.powerBudgetW = field(*top, "budget_w").asNumber();
    rec.profiledLcCores = asIndex(field(*top, "profiled_lc_cores"));

    if (const JsonObject *m = field(*top, "measured").asObject()) {
        rec.measuredTailSec = field(*m, "tail_s").asNumber();
        rec.measuredUtil = field(*m, "util").asNumber(-1.0);
        rec.measuredCompleted = asIndex(field(*m, "completed"));
        rec.measuredViolation = field(*m, "violation").asBool();
        rec.tailObserved = field(*m, "tail_observed").asBool();
        rec.pollutedSlice = field(*m, "polluted").asBool();
    }

    if (const JsonObject *lc = field(*top, "lc").asObject()) {
        rec.lcPath = lcPathFromName(field(*lc, "path").asString());
        rec.lcConfigName = field(*lc, "config").asString();
        rec.lcConfigIndex = asIndex(field(*lc, "config_index"));
        rec.lcCores = asIndex(field(*lc, "cores"));
        rec.lcCoreDelta =
            static_cast<int>(field(*lc, "core_delta").asNumber());
        rec.scanSaturated = asIndex(field(*lc, "scan_saturated"));
        rec.chosenCfFeasible = field(*lc, "cf_feasible").asBool();
        rec.chosenQueueFeasible =
            field(*lc, "queue_feasible").asBool();
    }

    if (const JsonObject *s = field(*top, "search").asObject()) {
        rec.batchPowerBudgetW = field(*s, "budget_w").asNumber();
        rec.cacheBudgetWays = field(*s, "budget_ways").asNumber();
        rec.seedWays = field(*s, "seed_ways").asNumber();
        rec.seedRepaired = field(*s, "seed_repaired").asBool();
        rec.searchEvaluations = asIndex(field(*s, "evaluations"));
        rec.searchObjective = field(*s, "objective").asNumber();
        rec.searchPowerW = field(*s, "power_w").asNumber();
        rec.searchWays = field(*s, "ways").asNumber();
        rec.searchRepairedWays =
            field(*s, "repaired_ways").asNumber();
    }

    if (const JsonObject *e = field(*top, "enforce").asObject()) {
        if (const JsonArray *victims = field(*e, "victims").asArray()) {
            for (const JsonValue &v : *victims)
                rec.capVictims.push_back(asIndex(v));
        }
        rec.reclaimedWays = field(*e, "reclaimed_ways").asNumber();
        rec.enforcedPowerW = field(*e, "power_w").asNumber(-1.0);
    }

    if (const JsonObject *c = field(*top, "check").asObject()) {
        if (const JsonArray *vs = field(*c, "violations").asArray()) {
            for (const JsonValue &v : *vs)
                rec.invariantViolations.push_back(v.asString());
        }
    }

    if (const JsonObject *x = field(*top, "executed").asObject()) {
        rec.executedTailSec = field(*x, "tail_s").asNumber();
        rec.executedPowerW = field(*x, "power_w").asNumber(-1.0);
        rec.qosViolated = field(*x, "qos_violated").asBool();
        rec.gmeanBips = field(*x, "gmean_bips").asNumber();
    }

    if (const JsonObject *dg = field(*top, "decision").asObject()) {
        rec.decisionPath =
            decisionPathFromName(field(*dg, "path").asString());
        rec.invalidationReason = invalidationReasonFromName(
            field(*dg, "invalidation").asString());
        rec.quantaSinceFull = static_cast<std::size_t>(
            field(*dg, "since_full").asNumber());
    }

    if (const JsonObject *tn = field(*top, "tenancy").asObject()) {
        if (const JsonArray *a = field(*tn, "accounts").asArray()) {
            for (const JsonValue &v : *a)
                rec.slotAccounts.push_back(
                    static_cast<std::int32_t>(v.asNumber(-1.0)));
        }
        if (const JsonArray *a = field(*tn, "bips").asArray()) {
            for (const JsonValue &v : *a)
                rec.slotBips.push_back(v.asNumber());
        }
        if (const JsonArray *a = field(*tn, "cores").asArray()) {
            for (const JsonValue &v : *a)
                rec.slotCores.push_back(v.asNumber());
        }
        if (const JsonArray *a = field(*tn, "preempted").asArray()) {
            for (const JsonValue &v : *a)
                rec.preemptedAccounts.push_back(
                    static_cast<std::int32_t>(v.asNumber(-1.0)));
        }
    }

    if (const JsonObject *dg = field(*top, "dag").asObject()) {
        if (const JsonArray *a = field(*dg, "workflows").asArray()) {
            for (const JsonValue &v : *a)
                rec.slotWorkflows.push_back(
                    static_cast<std::int64_t>(v.asNumber(-1.0)));
        }
        if (const JsonArray *a = field(*dg, "tasks").asArray()) {
            for (const JsonValue &v : *a)
                rec.slotDagTasks.push_back(
                    static_cast<std::int32_t>(v.asNumber(-1.0)));
        }
        rec.artifactHits = asIndex(field(*dg, "hits"));
        rec.artifactMisses = asIndex(field(*dg, "misses"));
        rec.transferBytes = field(*dg, "transfer_bytes").asNumber();
        if (const JsonArray *a = field(*dg, "done").asArray()) {
            for (const JsonValue &v : *a)
                rec.completedWorkflows.push_back(
                    static_cast<std::int64_t>(v.asNumber(-1.0)));
        }
        if (const JsonArray *a = field(*dg, "done_accounts").asArray()) {
            for (const JsonValue &v : *a)
                rec.completedAccounts.push_back(
                    static_cast<std::int32_t>(v.asNumber(-1.0)));
        }
        if (const JsonArray *a =
                field(*dg, "done_makespans").asArray()) {
            for (const JsonValue &v : *a)
                rec.completedMakespans.push_back(
                    static_cast<std::int64_t>(v.asNumber(-1.0)));
        }
    }

    if (const JsonObject *w = field(*top, "work").asObject()) {
        if (const JsonArray *a = field(*w, "sgd_epochs").asArray()) {
            for (std::size_t m = 0; m < a->size() && m < kNumCfMetrics;
                 ++m)
                rec.sgdEpochs[m] = asIndex((*a)[m]);
        }
        if (const JsonArray *a = field(*w, "cold").asArray()) {
            for (std::size_t m = 0; m < a->size() && m < kNumCfMetrics;
                 ++m)
                rec.coldStarts[m] = (*a)[m].asBool();
        }
        if (const JsonArray *a = field(*w, "fold_ins").asArray()) {
            for (std::size_t m = 0; m < a->size() && m < kNumCfMetrics;
                 ++m)
                rec.foldInSolves[m] = asIndex((*a)[m]);
        }
    }

    if (const JsonObject *ph = field(*top, "phase_ms").asObject()) {
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            rec.phaseSec[p] =
                field(*ph, phaseName(static_cast<Phase>(p)))
                    .asNumber() * 1e-3;
        }
    }
    return rec;
}

std::vector<QuantumRecord>
readTrace(std::istream &in)
{
    std::vector<QuantumRecord> records;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        records.push_back(parseRecord(line));
    }
    return records;
}

std::vector<QuantumRecord>
readTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '", path, "'");
    return readTrace(in);
}

} // namespace telemetry
} // namespace cuttlesys
