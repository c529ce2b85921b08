/**
 * @file
 * cslint — the repository's compiled static analyzer.
 *
 * A comment/string-aware token analyzer; it replaced a regex-based
 * linter script. Two properties motivated the rewrite: the regex
 * stripper mishandled C++ raw string literals (R"( ... )" terminated
 * at the first '"', silently blanking the rest of the file — any violation after a raw string was invisible), and
 * several determinism rules the repo needs are not expressible as
 * line regexes at all (range-for float reductions, include layering).
 *
 * Rules (ids as printed; each line of output is
 * `path:line:rule: message`, machine-readable for CI annotation):
 *
 *   naked-new / naked-delete  ownership goes through containers and
 *       smart pointers; operator new/delete *definitions* are exempt
 *       (the allocation probe replaces the global allocator set).
 *   raw-stdio        no std::cout/std::cerr outside examples/ and
 *       bench/; library code reports through common/logging.hh
 *       (logging.cc itself implements that reporting).
 *   unseeded-rng     Rng() with the default seed, std::mt19937 and
 *       std::random_device all make runs unreproducible.
 *   kernel-purity    kernelized hot-path files stay pure: no raw
 *       std::log, no push_back/emplace_back, no nested vectors.
 *   float-reduction  in kernelized files, no std::accumulate /
 *       std::reduce and no range-for loop accumulating into a
 *       float/double — every float reduction goes through
 *       common/kernels.hh so its association order is fixed and the
 *       scalar/vector builds agree bitwise.
 *   unordered-container  no std::unordered_map/set in src/cluster,
 *       src/search, src/sim: those layers commit decisions in
 *       deterministic order, and hash-table iteration order is
 *       unspecified — one innocent range-for over an unordered
 *       container makes the cluster trace depend on pointer values.
 *   wall-clock       no *_clock::now / time( / getenv outside bench/
 *       and tools/: wall-clock values and environment lookups are
 *       nondeterministic inputs; decisions must depend only on seeds
 *       and configuration. (Telemetry's phase timers are allowlisted
 *       where they occur — timings are recorded, never fed back.)
 *   mutable-static   no mutable `static` / `thread_local` variable
 *       state in src/ outside the allowlist: hidden process-global
 *       state breaks replayability and shared-nothing node stepping.
 *       (Constructor-call initializers `static T x(...)` are
 *       indistinguishable from function declarations at token level
 *       and are not flagged; `static T x;`, `= ...` and `{...}`
 *       forms are.)
 *   raw-mutex        no std::mutex / std::condition_variable /
 *       std::*lock* outside src/common/sync.hh — all synchronization
 *       goes through the CAPABILITY-annotated wrappers so Clang's
 *       -Wthread-safety proves lock discipline (DESIGN.md §9).
 *   include-cycle    DFS over the project's own quoted includes.
 *       (The regex linter parsed includes from text whose string
 *       contents it had already blanked, so its cycle rule matched
 *       whitespace paths and could never fire; includes are parsed
 *       from the raw text here.)
 *   layering         the src/ directory DAG — an include may point
 *       only at the same or a lower layer:
 *         0 common | 1 apps config telemetry | 2 cache cf search
 *         | 3 model | 4 power lcsim | 5 sim check
 *         | 6 core baselines | 7 flicker cluster apps? (see map)
 *       Upward includes are errors; a directory missing from the map
 *       is an error too, so the map can never silently rot.
 *
 * Allowlist mechanism: a finding is suppressed when the offending
 * line — or a contiguous block of comment lines immediately above
 * it — contains `cslint: allow(<rule>)`. Every allow is expected to
 * carry a justification in the surrounding comment; the allows in
 * tree are enumerated in DESIGN.md §9.
 *
 * Self-test: `cslint --fixtures <dir>` runs every rule against the
 * seeded-violation fixture files under tests/cslint/fixtures. Each
 * fixture declares the exact rule set it must trigger
 * (`// cslint-expect: ...`) and the path it pretends to live at
 * (`// cslint-path: ...`); the run fails on any missing or extra
 * finding. Registered as the ctest `cslint_fixtures`, alongside
 * `cslint_tree` which lints the real tree.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------

struct Finding
{
    std::string path;
    std::size_t line = 0;
    std::string rule;
    std::string message;
};

struct Token
{
    std::string text;
    std::size_t line = 0;
};

/** Everything the rules need to know about one source file. */
struct FileInfo
{
    std::string path;     //!< repo-relative, '/'-separated
    std::string raw;      //!< file bytes as read
    std::string scrubbed; //!< comments/strings blanked, lines stable
    std::vector<std::string> rawLines;
    std::vector<Token> tokens;
    /** Quoted includes as written, with their line numbers. */
    std::vector<std::pair<std::size_t, std::string>> includes;
};

// ---------------------------------------------------------------------
// Scrubber: blank comments and string/char literal *contents* while
// keeping line numbers stable. Raw string literals R"delim( ... )delim"
// are terminated at their real closing delimiter — the bug class that
// motivated the rewrite. Digit separators (1'000'000) are not treated
// as char literals.
// ---------------------------------------------------------------------

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** True if the identifier chars ending at text[i] spell a raw-string
 *  prefix (R, LR, uR, UR, u8R) that starts its own token. */
bool
isRawStringPrefix(const std::string &text, std::size_t quote)
{
    static const char *kPrefixes[] = {"R", "LR", "uR", "UR", "u8R"};
    std::size_t start = quote;
    while (start > 0 && isIdentChar(text[start - 1]))
        --start;
    const std::string_view prefix(text.data() + start, quote - start);
    for (const char *p : kPrefixes)
        if (prefix == p)
            return true;
    return false;
}

std::string
scrub(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    std::size_t i = 0;
    const std::size_t n = text.size();
    auto blankUpTo = [&](std::size_t end) {
        for (; i < end && i < n; ++i)
            out += text[i] == '\n' ? '\n' : ' ';
    };
    while (i < n) {
        const char c = text[i];
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            std::size_t j = text.find('\n', i);
            blankUpTo(j == std::string::npos ? n : j);
        } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            std::size_t j = text.find("*/", i + 2);
            blankUpTo(j == std::string::npos ? n : j + 2);
        } else if (c == '"' && isRawStringPrefix(text, i)) {
            // Raw string: R"delim( ... )delim". The contents end at
            // the *delimiter*, not at the first '"'.
            std::size_t open = text.find('(', i + 1);
            if (open == std::string::npos) {
                blankUpTo(n);
                break;
            }
            const std::string delim =
                text.substr(i + 1, open - (i + 1));
            const std::string closer = ")" + delim + "\"";
            std::size_t j = text.find(closer, open + 1);
            j = j == std::string::npos ? n : j + closer.size();
            out += '"'; // keep a token boundary where the literal was
            ++i;
            blankUpTo(j);
        } else if (c == '"' ||
                   (c == '\'' &&
                    !(i > 0 && std::isdigit(static_cast<unsigned char>(
                                   text[i - 1]))))) {
            const char quote = c;
            out += c;
            ++i;
            while (i < n && text[i] != quote) {
                if (text[i] == '\\' && i + 1 < n) {
                    out += ' ';
                    ++i;
                }
                out += text[i] == '\n' ? '\n' : ' ';
                ++i;
            }
            if (i < n) {
                out += quote;
                ++i;
            }
        } else {
            out += c;
            ++i;
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Tokenizer over scrubbed text: identifiers/numbers, multi-char
// operators the rules care about (::, +=, -=, *=), single punctuation.
// ---------------------------------------------------------------------

std::vector<Token>
tokenize(const std::string &scrubbed)
{
    std::vector<Token> tokens;
    std::size_t line = 1;
    std::size_t i = 0;
    const std::size_t n = scrubbed.size();
    while (i < n) {
        const char c = scrubbed[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (isIdentChar(c)) {
            std::size_t j = i;
            while (j < n && isIdentChar(scrubbed[j]))
                ++j;
            tokens.push_back({scrubbed.substr(i, j - i), line});
            i = j;
            continue;
        }
        if (i + 1 < n) {
            const char d = scrubbed[i + 1];
            if ((c == ':' && d == ':') || (c == '-' && d == '>') ||
                (d == '=' && (c == '+' || c == '-' || c == '*'))) {
                tokens.push_back({scrubbed.substr(i, 2), line});
                i += 2;
                continue;
            }
        }
        tokens.push_back({std::string(1, c), line});
        ++i;
    }
    return tokens;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

// ---------------------------------------------------------------------
// File loading
// ---------------------------------------------------------------------

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.substr(0, prefix.size()) == prefix;
}

FileInfo
loadFile(const fs::path &fsPath, std::string repoRelative)
{
    FileInfo info;
    info.path = std::move(repoRelative);
    std::ifstream in(fsPath, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    info.raw = buf.str();
    info.scrubbed = scrub(info.raw);
    info.rawLines = splitLines(info.raw);
    info.tokens = tokenize(info.scrubbed);
    // Includes come from the RAW text: the scrubbed copy has blanked
    // the path inside the quotes (the regex linter read them from the
    // scrubbed copy, which is why its cycle rule could never fire).
    const auto rawLines = info.rawLines;
    for (std::size_t ln = 0; ln < rawLines.size(); ++ln) {
        const std::string &s = rawLines[ln];
        std::size_t p = s.find_first_not_of(" \t");
        if (p == std::string::npos || s[p] != '#')
            continue;
        p = s.find_first_not_of(" \t", p + 1);
        if (p == std::string::npos || !startsWith(&s[p], "include"))
            continue;
        std::size_t open = s.find('"', p);
        if (open == std::string::npos)
            continue;
        std::size_t close = s.find('"', open + 1);
        if (close == std::string::npos)
            continue;
        info.includes.emplace_back(
            ln + 1, s.substr(open + 1, close - open - 1));
    }
    return info;
}

// ---------------------------------------------------------------------
// Allowlist: `cslint: allow(<rule>)` on the finding's line or in the
// contiguous comment block immediately above it.
// ---------------------------------------------------------------------

bool
lineAllows(const std::string &line, const std::string &rule)
{
    const std::string marker = "cslint: allow(" + rule + ")";
    return line.find(marker) != std::string::npos;
}

bool
isAllowed(const FileInfo &file, std::size_t line,
          const std::string &rule)
{
    if (line == 0 || line > file.rawLines.size())
        return false;
    if (lineAllows(file.rawLines[line - 1], rule))
        return true;
    for (std::size_t ln = line - 1; ln-- > 0;) {
        const std::string &s = file.rawLines[ln];
        const std::size_t p = s.find_first_not_of(" \t");
        if (p == std::string::npos)
            return false;
        const std::string_view rest(s.data() + p, s.size() - p);
        if (!startsWith(rest, "//") && !startsWith(rest, "*") &&
            !startsWith(rest, "/*"))
            return false;
        if (lineAllows(s, rule))
            return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// Rule engine
// ---------------------------------------------------------------------

class Linter
{
  public:
    std::vector<Finding> findings;

    void
    report(const FileInfo &file, std::size_t line,
           const std::string &rule, const std::string &message)
    {
        if (isAllowed(file, line, rule))
            return;
        findings.push_back({file.path, line, rule, message});
    }

    // --- per-file rules ----------------------------------------------

    void
    checkFile(const FileInfo &file)
    {
        checkNewDelete(file);
        checkStdio(file);
        checkRng(file);
        checkKernelPurity(file);
        checkFloatReduction(file);
        checkUnordered(file);
        checkWallClock(file);
        checkFastPathPurity(file);
        checkMutableStatic(file);
        checkRawMutex(file);
    }

    // --- whole-tree rules --------------------------------------------

    void
    checkGraph(const std::vector<FileInfo> &files)
    {
        checkIncludeCycle(files);
        checkLayering(files);
    }

  private:
    static bool
    tok(const std::vector<Token> &t, std::size_t i,
        std::string_view text)
    {
        return i < t.size() && t[i].text == text;
    }

    /** i names std::<name> (i at the `std` token). */
    static bool
    stdQualified(const std::vector<Token> &t, std::size_t i,
                 std::string_view name)
    {
        return tok(t, i, "std") && tok(t, i + 1, "::") &&
               tok(t, i + 2, name);
    }

    void
    checkNewDelete(const FileInfo &file)
    {
        const auto &t = file.tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            const bool afterOperator = i > 0 && t[i - 1].text == "operator";
            if (t[i].text == "new" && !afterOperator &&
                i + 1 < t.size()) {
                const char c = t[i + 1].text[0];
                if (isIdentChar(c) || c == '(' || c == '[')
                    report(file, t[i].line, "naked-new",
                           "naked new (use containers or "
                           "std::make_unique)");
            }
            if (t[i].text == "delete" && !afterOperator &&
                !(i > 0 && t[i - 1].text == "="))
                report(file, t[i].line, "naked-delete",
                       "naked delete (use owning types)");
        }
    }

    void
    checkStdio(const FileInfo &file)
    {
        if (startsWith(file.path, "examples/") ||
            startsWith(file.path, "bench/") ||
            file.path == "src/common/logging.cc")
            return;
        const auto &t = file.tokens;
        for (std::size_t i = 0; i + 2 < t.size(); ++i)
            if (stdQualified(t, i, "cout") ||
                stdQualified(t, i, "cerr"))
                report(file, t[i].line, "raw-stdio",
                       "std::cout/cerr in library code (use "
                       "common/logging.hh)");
    }

    void
    checkRng(const FileInfo &file)
    {
        const auto &t = file.tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (tok(t, i, "Rng") && tok(t, i + 1, "(") &&
                tok(t, i + 2, ")"))
                report(file, t[i].line, "unseeded-rng",
                       "Rng() with the default seed (pass an "
                       "explicit seed)");
            if (stdQualified(t, i, "mt19937") ||
                stdQualified(t, i, "random_device"))
                report(file, t[i].line, "unseeded-rng",
                       "std:: randomness (use common/rng.hh with an "
                       "explicit seed)");
        }
    }

    /** Files whose inner loops were rewritten onto the kernel layer. */
    static bool
    isKernelized(const std::string &path)
    {
        return path == "src/cf/sgd.cc" ||
               path == "src/search/objective.cc";
    }

    /** Kernelized files plus those banned from nested vectors. */
    static bool
    isFlatBuffer(const std::string &path)
    {
        return isKernelized(path) || path == "src/search/dds.cc";
    }

    void
    checkKernelPurity(const FileInfo &file)
    {
        const auto &t = file.tokens;
        if (isKernelized(file.path)) {
            for (std::size_t i = 0; i < t.size(); ++i) {
                if (stdQualified(t, i, "log") && tok(t, i + 3, "("))
                    report(file, t[i].line, "kernel-purity",
                           "raw std::log in a kernelized file (route "
                           "through common/kernels.hh so scalar and "
                           "vector builds agree)");
                if ((tok(t, i, "push_back") ||
                     tok(t, i, "emplace_back")) &&
                    tok(t, i + 1, "("))
                    report(file, t[i].line, "kernel-purity",
                           "container growth in a zero-allocation "
                           "hot path (use the arena or a rebuild() "
                           "path)");
            }
        }
        if (isFlatBuffer(file.path)) {
            for (std::size_t i = 0; i + 6 < t.size(); ++i)
                if (stdQualified(t, i, "vector") &&
                    tok(t, i + 3, "<") &&
                    stdQualified(t, i + 4, "vector"))
                    report(file, t[i].line, "kernel-purity",
                           "nested vectors in a hot-path file (use "
                           "one flat reusable buffer)");
        }
    }

    void
    checkFloatReduction(const FileInfo &file)
    {
        if (!isFlatBuffer(file.path))
            return;
        const auto &t = file.tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (stdQualified(t, i, "accumulate") ||
                stdQualified(t, i, "reduce"))
                report(file, t[i].line, "float-reduction",
                       "std::accumulate/std::reduce in a kernelized "
                       "file (reduction order must be fixed: use "
                       "common/kernels.hh sum/gatherSum)");
            if (!tok(t, i, "for") || !tok(t, i + 1, "("))
                continue;
            // Find the range-for colon at parenthesis depth 1 and
            // the closing ')'.
            std::size_t depth = 0;
            std::size_t colon = 0, close = 0;
            std::size_t j = i + 1;
            for (; j < t.size(); ++j) {
                const std::string &s = t[j].text;
                if (s == "(")
                    ++depth;
                else if (s == ")") {
                    if (--depth == 0) {
                        close = j;
                        break;
                    }
                } else if (s == ":" && depth == 1 && colon == 0)
                    colon = j;
            }
            if (colon == 0 || close == 0)
                continue;
            bool floatLoopVar = false;
            for (std::size_t k = i + 2; k < colon; ++k)
                if (t[k].text == "float" || t[k].text == "double")
                    floatLoopVar = true;
            if (!floatLoopVar)
                continue;
            // Loop body: a braced block or a single statement.
            std::size_t end = close + 1;
            if (tok(t, close + 1, "{")) {
                std::size_t braces = 0;
                for (end = close + 1; end < t.size(); ++end) {
                    if (t[end].text == "{")
                        ++braces;
                    else if (t[end].text == "}" && --braces == 0)
                        break;
                }
            } else {
                while (end < t.size() && t[end].text != ";")
                    ++end;
            }
            for (std::size_t k = close + 1; k < end && k < t.size();
                 ++k)
                if (t[k].text == "+=" || t[k].text == "-=" ||
                    t[k].text == "*=") {
                    report(file, t[i].line, "float-reduction",
                           "range-for float reduction (association "
                           "order follows container order; use "
                           "common/kernels.hh so it is fixed)");
                    break;
                }
        }
    }

    void
    checkUnordered(const FileInfo &file)
    {
        if (!startsWith(file.path, "src/cluster/") &&
            !startsWith(file.path, "src/search/") &&
            !startsWith(file.path, "src/sim/"))
            return;
        const auto &t = file.tokens;
        for (std::size_t i = 0; i < t.size(); ++i)
            if (stdQualified(t, i, "unordered_map") ||
                stdQualified(t, i, "unordered_set"))
                report(file, t[i].line, "unordered-container",
                       "unordered container in a commit-path layer "
                       "(iteration order is unspecified; use "
                       "std::map/std::set or a sorted vector)");
    }

    void
    checkWallClock(const FileInfo &file)
    {
        if (startsWith(file.path, "bench/") ||
            startsWith(file.path, "tools/"))
            return;
        const auto &t = file.tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            const std::string &s = t[i].text;
            const bool clockNow =
                (s == "steady_clock" || s == "system_clock" ||
                 s == "high_resolution_clock") &&
                tok(t, i + 1, "::") && tok(t, i + 2, "now");
            // `time(` is banned bare or as std::time(; a member or
            // foreign-namespace `time` (x.time(), p->time(),
            // other::time()) is someone else's symbol.
            const bool memberAccess =
                i > 0 && (t[i - 1].text == "." ||
                          t[i - 1].text == "->" ||
                          (t[i - 1].text == "::" &&
                           !(i >= 2 && t[i - 2].text == "std")));
            const bool cTime =
                (s == "time" || s == "clock_gettime" ||
                 s == "gettimeofday") &&
                tok(t, i + 1, "(") && !memberAccess;
            const bool env = s == "getenv" && tok(t, i + 1, "(");
            if (clockNow || cTime || env)
                report(file, t[i].line, "wall-clock",
                       "wall-clock/environment read outside bench+"
                       "tools (" + s + "): decisions must depend "
                       "only on seeds and configuration");
        }
    }

    /**
     * The incremental fast path reuses a cached schedule instead of
     * re-searching, so its revalidation must be a pure function of
     * replayable state: the same trace replayed on any machine, at any
     * time, with any CS_POOL_THREADS must reproduce every reuse
     * decision bitwise. This rule therefore bans, in the fast-path
     * revalidation files only, every wall-clock/environment read AND
     * all RNG use — even explicitly seeded generators, which the rest
     * of the tree allows, would make reuse depend on draw order rather
     * than on the decision history.
     */
    void
    checkFastPathPurity(const FileInfo &file)
    {
        // The dag/ commit paths are held to the same standard: every
        // workflow release, artifact eviction, and placement score
        // must be a pure counter hash / pure function of replayable
        // state, or the fleet trace stops replaying bitwise.
        if (file.path != "src/core/fastpath.cc" &&
            file.path != "src/cluster/dag/workflow.cc" &&
            file.path != "src/cluster/dag/artifact_cache.cc" &&
            file.path != "src/cluster/dag/scorer.cc")
            return;
        const auto &t = file.tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            const std::string &s = t[i].text;
            const bool clockNow =
                (s == "steady_clock" || s == "system_clock" ||
                 s == "high_resolution_clock") &&
                tok(t, i + 1, "::") && tok(t, i + 2, "now");
            const bool memberAccess =
                i > 0 && (t[i - 1].text == "." ||
                          t[i - 1].text == "->" ||
                          (t[i - 1].text == "::" &&
                           !(i >= 2 && t[i - 2].text == "std")));
            const bool cTime =
                (s == "time" || s == "clock_gettime" ||
                 s == "gettimeofday") &&
                tok(t, i + 1, "(") && !memberAccess;
            const bool env = s == "getenv" && tok(t, i + 1, "(");
            const bool cRand =
                (s == "rand" || s == "srand" || s == "random" ||
                 s == "drand48") &&
                tok(t, i + 1, "(") && !memberAccess;
            // Any use of the project RNG or <random> machinery — a
            // declaration, member, or call — not just default-seeded
            // construction.
            const bool rng =
                (s == "Rng" && !memberAccess) ||
                (tok(t, i, "std") && tok(t, i + 1, "::") &&
                 (tok(t, i + 2, "mt19937") ||
                  tok(t, i + 2, "mt19937_64") ||
                  tok(t, i + 2, "minstd_rand") ||
                  tok(t, i + 2, "random_device") ||
                  tok(t, i + 2, "uniform_int_distribution") ||
                  tok(t, i + 2, "uniform_real_distribution") ||
                  tok(t, i + 2, "normal_distribution") ||
                  tok(t, i + 2, "bernoulli_distribution")));
            if (clockNow || cTime || env || cRand || rng)
                report(file, t[i].line, "fastpath-purity",
                       "wall-clock/RNG read in fast-path revalidation "
                       "code (" + s + "): schedule reuse must be a "
                       "pure function of replayable state");
        }
    }

    void
    checkMutableStatic(const FileInfo &file)
    {
        if (!startsWith(file.path, "src/"))
            return;
        const auto &t = file.tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            const bool isStatic = tok(t, i, "static");
            const bool isTls = tok(t, i, "thread_local");
            if (!isStatic && !isTls)
                continue;
            // `static thread_local` / `thread_local static`: let the
            // first keyword drive one combined scan.
            if (i > 0 && (t[i - 1].text == "static" ||
                          t[i - 1].text == "thread_local"))
                continue;
            bool qualified = false; // const/constexpr/constinit seen
            bool isVariable = false;
            for (std::size_t j = i + 1; j < t.size(); ++j) {
                const std::string &s = t[j].text;
                if (s == "const" || s == "constexpr" ||
                    s == "constinit") {
                    qualified = true;
                    continue;
                }
                if (s == "(" || s == "}")
                    break; // function decl / ctor call / scope end
                if (s == ";" || s == "=" || s == "{") {
                    isVariable = true;
                    break;
                }
                if (s == "<") {
                    // Skip template argument lists (std::atomic<...>).
                    std::size_t depth = 1;
                    while (++j < t.size() && depth > 0) {
                        if (t[j].text == "<")
                            ++depth;
                        else if (t[j].text == ">")
                            --depth;
                    }
                    --j;
                }
            }
            if (isVariable && !qualified)
                report(file, t[i].line, "mutable-static",
                       std::string(isTls ? "thread_local"
                                         : "static") +
                           " mutable state in src/ (hidden process "
                           "globals break replayability; thread the "
                           "state through an owner or allowlist "
                           "with justification)");
        }
    }

    void
    checkRawMutex(const FileInfo &file)
    {
        if (file.path == "src/common/sync.hh")
            return;
        static const char *kBanned[] = {
            "mutex",         "recursive_mutex", "shared_mutex",
            "timed_mutex",   "lock_guard",      "unique_lock",
            "scoped_lock",   "shared_lock",     "condition_variable",
            "condition_variable_any"};
        const auto &t = file.tokens;
        for (std::size_t i = 0; i < t.size(); ++i)
            for (const char *name : kBanned)
                if (stdQualified(t, i, name))
                    report(file, t[i].line, "raw-mutex",
                           "raw std::" + std::string(name) +
                               " (use the annotated wrappers in "
                               "common/sync.hh so -Wthread-safety "
                               "sees the lock discipline)");
    }

    void
    checkIncludeCycle(const std::vector<FileInfo> &files)
    {
        // Keyed by include path — what #include "..." resolves
        // against src/.
        std::map<std::string, std::vector<std::string>> deps;
        for (const FileInfo &f : files) {
            if (!startsWith(f.path, "src/"))
                continue;
            auto &d = deps[f.path.substr(4)];
            for (const auto &[line, inc] : f.includes) {
                (void)line;
                d.push_back(inc);
            }
        }
        enum Color { White, Gray, Black };
        std::map<std::string, Color> color;
        for (const auto &[k, v] : deps) {
            (void)v;
            color[k] = White;
        }
        std::vector<std::string> stack;
        std::vector<std::string> cycle;
        auto visit = [&](auto &&self, const std::string &node) -> bool {
            color[node] = Gray;
            stack.push_back(node);
            for (const std::string &dep : deps[node]) {
                if (!deps.count(dep))
                    continue;
                if (color[dep] == Gray) {
                    auto it = std::find(stack.begin(), stack.end(), dep);
                    cycle.assign(it, stack.end());
                    cycle.push_back(dep);
                    return true;
                }
                if (color[dep] == White && self(self, dep))
                    return true;
            }
            stack.pop_back();
            color[node] = Black;
            return false;
        };
        for (const auto &[node, c] : color) {
            (void)c;
            if (color[node] == White && visit(visit, node))
                break;
        }
        if (!cycle.empty()) {
            std::string msg = "#include cycle: ";
            for (std::size_t i = 0; i < cycle.size(); ++i) {
                if (i)
                    msg += " -> ";
                msg += cycle[i];
            }
            findings.push_back(
                {"src/" + cycle.front(), 0, "include-cycle", msg});
        }
    }

    void
    checkLayering(const std::vector<FileInfo> &files)
    {
        // The src/ layering DAG (DESIGN.md §9). An include may point
        // at the same or a lower layer only; same-layer pairs (sim ↔
        // check) are allowed and the include-cycle rule still bans
        // true cycles among them.
        static const std::map<std::string, int> kLayer = {
            {"common", 0},
            {"apps", 1},      {"config", 1}, {"telemetry", 1},
            {"cache", 2},     {"cf", 2},     {"search", 2},
            {"model", 3},
            {"power", 4},     {"lcsim", 4},
            {"sim", 5},       {"check", 5},
            {"core", 6},      {"baselines", 6},
            {"flicker", 7},   {"cluster", 7},
        };
        for (const FileInfo &f : files) {
            if (!startsWith(f.path, "src/"))
                continue;
            const std::string rel = f.path.substr(4);
            const std::size_t slash = rel.find('/');
            if (slash == std::string::npos)
                continue;
            const std::string myDir = rel.substr(0, slash);
            const auto myIt = kLayer.find(myDir);
            if (myIt == kLayer.end()) {
                report(f, 0, "layering",
                       "directory src/" + myDir +
                           " is not in the layering map (add it to "
                           "tools/cslint.cc and DESIGN.md §9)");
                continue;
            }
            for (const auto &[line, inc] : f.includes) {
                const std::size_t incSlash = inc.find('/');
                if (incSlash == std::string::npos)
                    continue;
                const std::string incDir = inc.substr(0, incSlash);
                const auto incIt = kLayer.find(incDir);
                if (incIt == kLayer.end())
                    continue; // not a project dir (or not layered)
                if (incIt->second > myIt->second)
                    report(f, line, "layering",
                           "upward include: src/" + myDir +
                               " (layer " +
                               std::to_string(myIt->second) +
                               ") may not include " + inc +
                               " (layer " +
                               std::to_string(incIt->second) +
                               "); invert the dependency or move "
                               "the shared piece down");
            }
        }
    }
};

// ---------------------------------------------------------------------
// Tree walking
// ---------------------------------------------------------------------

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp";
}

std::vector<FileInfo>
loadTree(const fs::path &root)
{
    static const char *kRoots[] = {"src", "tests", "bench",
                                   "examples"};
    std::vector<FileInfo> files;
    for (const char *sub : kRoots) {
        const fs::path dir = root / sub;
        if (!fs::exists(dir))
            continue;
        std::vector<fs::path> paths;
        for (const auto &entry :
             fs::recursive_directory_iterator(dir))
            if (entry.is_regular_file() &&
                isSourceFile(entry.path()))
                paths.push_back(entry.path());
        std::sort(paths.begin(), paths.end());
        for (const fs::path &p : paths) {
            std::string rel =
                fs::relative(p, root).generic_string();
            // The seeded-violation fixtures exist to violate rules.
            if (rel.find("tests/cslint/") == 0)
                continue;
            files.push_back(loadFile(p, std::move(rel)));
        }
    }
    return files;
}

// ---------------------------------------------------------------------
// Fixture self-check
// ---------------------------------------------------------------------

/** Parse `// cslint-path:` and `// cslint-expect:` headers. */
bool
parseFixtureHeader(const FileInfo &file, std::string &pretendPath,
                   std::set<std::string> &expected)
{
    bool sawExpect = false;
    for (const std::string &line : file.rawLines) {
        const std::size_t pathPos = line.find("cslint-path:");
        if (pathPos != std::string::npos) {
            std::istringstream iss(line.substr(pathPos + 12));
            iss >> pretendPath;
        }
        const std::size_t expPos = line.find("cslint-expect:");
        if (expPos != std::string::npos) {
            sawExpect = true;
            std::istringstream iss(line.substr(expPos + 14));
            std::string rule;
            while (iss >> rule)
                if (rule != "clean")
                    expected.insert(rule);
        }
    }
    return sawExpect;
}

int
runFixtures(const fs::path &dir)
{
    std::vector<fs::path> paths;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.is_regular_file() && isSourceFile(entry.path()))
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    if (paths.empty()) {
        std::fprintf(stderr, "cslint: no fixtures under %s\n",
                     dir.string().c_str());
        return 2;
    }
    int failures = 0;
    for (const fs::path &p : paths) {
        FileInfo file = loadFile(p, p.filename().string());
        std::string pretendPath =
            "src/fixture/" + p.filename().string();
        std::set<std::string> expected;
        if (!parseFixtureHeader(file, pretendPath, expected)) {
            std::printf("FAIL %s: missing '// cslint-expect:' "
                        "header\n",
                        p.filename().string().c_str());
            ++failures;
            continue;
        }
        file.path = pretendPath;
        Linter linter;
        linter.checkFile(file);
        linter.checkGraph({file});
        std::set<std::string> got;
        for (const Finding &f : linter.findings)
            got.insert(f.rule);
        if (got == expected) {
            std::printf("ok   %s (%zu finding(s))\n",
                        p.filename().string().c_str(),
                        linter.findings.size());
            continue;
        }
        ++failures;
        std::printf("FAIL %s:\n", p.filename().string().c_str());
        for (const std::string &rule : expected)
            if (!got.count(rule))
                std::printf("  expected rule not triggered: %s\n",
                            rule.c_str());
        for (const std::string &rule : got)
            if (!expected.count(rule))
                std::printf("  unexpected rule triggered: %s\n",
                            rule.c_str());
        for (const Finding &f : linter.findings)
            std::printf("  got %s:%zu:%s: %s\n", f.path.c_str(),
                        f.line, f.rule.c_str(), f.message.c_str());
    }
    if (failures) {
        std::printf("\ncslint --fixtures: %d fixture(s) failed\n",
                    failures);
        return 1;
    }
    std::printf("cslint --fixtures: %zu fixture(s) ok\n",
                paths.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty() && args[0] == "--fixtures") {
        if (args.size() != 2) {
            std::fprintf(stderr,
                         "usage: cslint --fixtures <dir>\n");
            return 2;
        }
        return runFixtures(args[1]);
    }
    const fs::path root = args.empty() ? fs::path(".")
                                       : fs::path(args[0]);
    if (!fs::exists(root / "src")) {
        std::fprintf(stderr,
                     "cslint: %s does not look like the repo root "
                     "(no src/)\n",
                     root.string().c_str());
        return 2;
    }
    const std::vector<FileInfo> files = loadTree(root);
    Linter linter;
    for (const FileInfo &f : files)
        linter.checkFile(f);
    linter.checkGraph(files);
    if (!linter.findings.empty()) {
        for (const Finding &f : linter.findings)
            std::printf("%s:%zu:%s: %s\n", f.path.c_str(), f.line,
                        f.rule.c_str(), f.message.c_str());
        std::printf("\ncslint: %zu finding(s) in %zu file(s) "
                    "scanned\n",
                    linter.findings.size(), files.size());
        return 1;
    }
    std::printf("cslint: clean (%zu files scanned)\n", files.size());
    return 0;
}
