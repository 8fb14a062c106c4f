// tornado_lint: determinism & protocol-safety static analysis over the
// Tornado sources (docs/CHECKS.md catalogues the rules).
//
// The simulator's core guarantee is bit-identical replay under a fixed
// seed, so the hazard classes this pass hunts are the ones that leak
// nondeterminism into the protocol: wall-clock reads, ad-hoc RNG, and
// hash-table iteration order feeding the network. It is a token-level
// scanner (comments and string literals blanked, line numbers preserved)
// plus a corpus-wide symbol table — deliberately not a real C++ frontend,
// which keeps it dependency-free and fast enough to run as a test.
//
// Rules:
//   DET-001  wall-clock time source outside bench/ and tools/
//   DET-002  ad-hoc random source outside common/rng
//   DET-003  range-for over an unordered container in a file that sends
//            protocol messages (iteration order feeds net::Payload)
//   DET-004  pointer-keyed ordered container (ordering = allocation order)
//   RUN-001  #include of a concrete substrate type (sim/event_loop.h,
//            net/network.h) outside the substrate layer itself
//            (src/sim/, src/net/, src/runtime/sim_*) — everything
//            else must program against runtime/substrate.h
//   CON-001  raw std:: synchronization primitive (mutex, thread,
//            condition_variable, ...) outside src/runtime/ and
//            src/common/ — everything above the seam uses the annotated
//            wrappers in common/mutex.h so the clang thread-safety
//            analysis can see it (std::atomic is a warning, not an
//            error: sometimes right, always worth a look)
//   CON-002  a class that declares a Mutex member must GUARDED_BY- or
//            PT_GUARDED_BY-annotate every mutable member below it
//   CON-003  detached threads / raw std::this_thread sleeps outside the
//            substrate — lifetimes belong to the substrate's join logic,
//            waits belong to its scheduler
//   KER-001  node-per-entry std::map / std::unordered_map inside the
//            kernel layer (src/kernel/ is the SoA substrate — hot state
//            lives in FlatMap/SmallVector), or a value-changing math
//            flag (-ffast-math, -funsafe-math-optimizations) in a CMake
//            file — either would break the bit-identical reduction
//            contract the kernels are built on
//
// Each rule carries a severity: `error` findings fail the build (exit 1),
// `warning` findings are reported but do not gate.
//
// Suppression (clang-tidy style; the reason is mandatory):
//   code;  // NOLINT(DET-003): why this is safe.
//   // NOLINTNEXTLINE(DET-001): why this is safe.
//   code;
//
// Usage: tornado_lint [--json] [--sarif] [--fix-hints] [path...]
// (default path: src). Exit code 0 when no unsuppressed errors, 1 when
// at least one unsuppressed error finding, 2 on usage errors.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string severity;  // "error" gates the build, "warning" reports only
  std::string message;
  std::string hint;
  bool suppressed = false;
  std::string reason;  // the NOLINT justification, when suppressed
};

struct SourceFile {
  std::string path;              // as given (repo-relative when possible)
  std::string raw;               // original text
  std::string code;              // comments/strings blanked, lines preserved
  std::vector<std::string> raw_lines;
  std::vector<size_t> line_starts;  // offsets into `code`
};

struct RuleInfo {
  const char* id;
  const char* severity;  // default for findings of this rule
  const char* description;
  const char* hint;
};

const RuleInfo kRules[] = {
    {"DET-001", "error",
     "wall-clock time source in deterministic code",
     "use the simulated clock (EventLoop::now / Node::now) instead"},
    {"DET-002", "error",
     "ad-hoc random source in deterministic code",
     "derive a stream from common/rng.h (e.g. SessionTable::MakeVertexRng)"},
    {"DET-003", "error",
     "hash-table iteration order reaches the network",
     "iterate via common/ordered.h (SortedKeys / ForEachOrdered)"},
    {"DET-004", "error",
     "pointer-keyed ordered container",
     "key by a stable id (VertexId, LoopId, NodeId), not an address"},
    {"RUN-001", "error",
     "concrete substrate type included outside the substrate layer",
     "include runtime/substrate.h and take Clock*/Scheduler*/Transport*"},
    {"CON-001", "error",
     "raw std:: synchronization primitive above the substrate seam",
     "use tornado::Mutex / MutexLock / CondVar from common/mutex.h (they "
     "carry the thread-safety annotations); threads belong to the "
     "substrate"},
    {"CON-002", "error",
     "mutable member of a mutex-holding class lacks GUARDED_BY",
     "annotate the member GUARDED_BY(<mutex>) (PT_GUARDED_BY for pointees) "
     "or move it above the mutex with a comment on why it needs no lock"},
    {"CON-003", "error",
     "detached thread or raw sleep outside the substrate",
     "join through the substrate's Stop path; replace sleeps with "
     "Scheduler::ScheduleAfter or Substrate::RunFor"},
    {"KER-001", "error",
     "node-per-entry container or value-changing math flag in the kernel "
     "layer",
     "use kernel/flat_map.h / kernel/small_vector.h for kernel state; "
     "never compile with -ffast-math — the canonical reductions must stay "
     "bit-identical across scalar/AVX2"},
};

const RuleInfo* FindRule(const std::string& id) {
  for (const RuleInfo& r : kRules) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Replaces comments and string/char literals with spaces, preserving
// newlines so offsets map straight back to line numbers.
std::string BlankCommentsAndStrings(const std::string& in) {
  std::string out = in;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(current);
  return lines;
}

SourceFile LoadFile(const std::string& path) {
  SourceFile f;
  f.path = path;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  f.raw = buf.str();
  f.code = BlankCommentsAndStrings(f.raw);
  f.raw_lines = SplitLines(f.raw);
  f.line_starts.push_back(0);
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (f.code[i] == '\n') f.line_starts.push_back(i + 1);
  }
  return f;
}

int LineOf(const SourceFile& f, size_t offset) {
  auto it =
      std::upper_bound(f.line_starts.begin(), f.line_starts.end(), offset);
  return static_cast<int>(it - f.line_starts.begin());
}

// Whole-word occurrences of `word` in the blanked code.
std::vector<size_t> FindWord(const std::string& code,
                             const std::string& word) {
  std::vector<size_t> hits;
  size_t pos = 0;
  while ((pos = code.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = end;
  }
  return hits;
}

bool NextNonSpaceIs(const std::string& code, size_t from, char expect) {
  for (size_t i = from; i < code.size(); ++i) {
    if (std::isspace(static_cast<unsigned char>(code[i])) != 0) continue;
    return code[i] == expect;
  }
  return false;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
    --e;
  }
  return s.substr(b, e - b);
}

// --- Suppression: NOLINT(RULE): reason / NOLINTNEXTLINE(RULE): reason. ---

struct Suppression {
  bool matches = false;    // a NOLINT marker names this rule
  bool has_reason = false; // and carries a written justification
  std::string reason;
};

Suppression ParseNolint(const std::string& line, const std::string& marker,
                        const std::string& rule) {
  Suppression s;
  const size_t at = line.find(marker);
  if (at == std::string::npos) return s;
  const size_t open = at + marker.size();
  if (open >= line.size() || line[open] != '(') return s;
  const size_t close = line.find(')', open);
  if (close == std::string::npos) return s;
  // Comma-separated rule list inside the parens.
  std::string rules = line.substr(open + 1, close - open - 1);
  std::stringstream ss(rules);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (Trim(item) == rule) s.matches = true;
  }
  if (!s.matches) return s;
  const size_t colon = line.find(':', close);
  if (colon != std::string::npos) {
    s.reason = Trim(line.substr(colon + 1));
    s.has_reason = !s.reason.empty();
  }
  return s;
}

Suppression CheckSuppressed(const SourceFile& f, int line,
                            const std::string& rule) {
  // NOLINTNEXTLINE must be the *previous* line; NOLINT the same line.
  if (line >= 1 && static_cast<size_t>(line) <= f.raw_lines.size()) {
    Suppression same =
        ParseNolint(f.raw_lines[line - 1], "NOLINT", rule);
    // Guard: "NOLINTNEXTLINE" also contains "NOLINT"; require that the
    // same-line marker is not actually a NEXTLINE marker.
    if (same.matches &&
        f.raw_lines[line - 1].find("NOLINTNEXTLINE") == std::string::npos) {
      return same;
    }
  }
  if (line >= 2) {
    Suppression prev =
        ParseNolint(f.raw_lines[line - 2], "NOLINTNEXTLINE", rule);
    if (prev.matches) return prev;
  }
  return Suppression{};
}

class Linter {
 public:
  // `severity` overrides the rule's default for this one finding (used by
  // CON-001 to downgrade std::atomic sightings to a warning).
  void Report(const SourceFile& f, size_t offset, const std::string& rule,
              const std::string& message, const char* severity = nullptr) {
    const RuleInfo* info = FindRule(rule);
    Finding finding;
    finding.file = f.path;
    finding.line = LineOf(f, offset);
    finding.rule = rule;
    finding.severity = severity != nullptr
                           ? severity
                           : (info != nullptr ? info->severity : "error");
    finding.message = message;
    finding.hint = info != nullptr ? info->hint : "";
    const Suppression s = CheckSuppressed(f, finding.line, rule);
    if (s.matches && s.has_reason) {
      finding.suppressed = true;
      finding.reason = s.reason;
    } else if (s.matches) {
      finding.message += " (NOLINT present but carries no reason; "
                         "write `NOLINT(" + rule + "): why`)";
    }
    findings_.push_back(std::move(finding));
  }

  std::vector<Finding>& findings() { return findings_; }

 private:
  std::vector<Finding> findings_;
};

// --- DET-001: wall-clock time sources. ---

bool ExemptFromClockRules(const std::string& path) {
  return path.find("bench/") != std::string::npos ||
         path.find("tools/") != std::string::npos ||
         // The substrate layer is the one place allowed to touch host
         // clocks: the thread backend wraps steady_clock, and the seam
         // header declares the clock() accessors everyone else calls.
         path.find("runtime/") != std::string::npos;
}

void CheckWallClock(const SourceFile& f, Linter* lint) {
  if (ExemptFromClockRules(f.path)) return;
  static const char* kClockWords[] = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "gettimeofday",  "clock_gettime", "localtime",
      "gmtime",        "mktime",
  };
  for (const char* word : kClockWords) {
    for (size_t pos : FindWord(f.code, word)) {
      lint->Report(f, pos, "DET-001",
                   std::string(word) + " reads the host's wall clock; "
                   "simulated runs must use virtual time");
    }
  }
  // `time(` and `clock(` only as direct calls (the bare words are too
  // common as substrings of member names to match unqualified).
  for (const char* word : {"time", "clock"}) {
    for (size_t pos : FindWord(f.code, word)) {
      // A member call (`substrate_->clock()`, `sampler.time()`) targets a
      // repo abstraction such as runtime/substrate.h's Clock, not libc.
      const bool member_call =
          (pos >= 1 && f.code[pos - 1] == '.') ||
          (pos >= 2 && f.code[pos - 2] == '-' && f.code[pos - 1] == '>');
      if (member_call) continue;
      if (NextNonSpaceIs(f.code, pos + std::string(word).size(), '(')) {
        lint->Report(f, pos, "DET-001",
                     std::string(word) + "() reads the host's wall clock; "
                     "simulated runs must use virtual time");
      }
    }
  }
}

// --- DET-002: ad-hoc randomness. ---

bool ExemptFromRngRules(const std::string& path) {
  return path.find("common/rng") != std::string::npos ||
         path.find("bench/") != std::string::npos ||
         path.find("tools/") != std::string::npos;
}

void CheckRandom(const SourceFile& f, Linter* lint) {
  if (ExemptFromRngRules(f.path)) return;
  static const char* kRngWords[] = {"random_device", "srand", "drand48",
                                    "lrand48", "rand_r"};
  for (const char* word : kRngWords) {
    for (size_t pos : FindWord(f.code, word)) {
      lint->Report(f, pos, "DET-002",
                   std::string(word) + " is an unseeded / host-entropy "
                   "random source");
    }
  }
  for (size_t pos : FindWord(f.code, "rand")) {
    if (NextNonSpaceIs(f.code, pos + 4, '(')) {
      lint->Report(f, pos, "DET-002",
                   "rand() uses hidden global state; streams must be "
                   "explicitly seeded");
    }
  }
  for (const char* word : {"mt19937", "mt19937_64", "minstd_rand"}) {
    for (size_t pos : FindWord(f.code, word)) {
      lint->Report(f, pos, "DET-002",
                   std::string(word) + " bypasses the repo-wide Rng; "
                   "seeding discipline lives in common/rng.h");
    }
  }
}

// --- DET-003: unordered iteration feeding the network. ---

// Corpus-wide set of identifiers (variables, members, accessor methods)
// declared with an unordered container type.
std::set<std::string> CollectUnorderedSymbols(
    const std::vector<SourceFile>& files) {
  std::set<std::string> symbols;
  for (const SourceFile& f : files) {
    for (const char* type : {"unordered_map", "unordered_set"}) {
      for (size_t pos : FindWord(f.code, type)) {
        // Skip past the template argument list.
        size_t i = pos + std::string(type).size();
        while (i < f.code.size() &&
               std::isspace(static_cast<unsigned char>(f.code[i])) != 0) {
          ++i;
        }
        if (i >= f.code.size() || f.code[i] != '<') continue;
        int depth = 0;
        for (; i < f.code.size(); ++i) {
          if (f.code[i] == '<') ++depth;
          if (f.code[i] == '>') {
            --depth;
            if (depth == 0) {
              ++i;
              break;
            }
          }
        }
        // Past any reference/pointer qualifiers, the next identifier is
        // the declared name (variable, member, or accessor method).
        while (i < f.code.size() &&
               (std::isspace(static_cast<unsigned char>(f.code[i])) != 0 ||
                f.code[i] == '&' || f.code[i] == '*')) {
          ++i;
        }
        size_t name_end = i;
        while (name_end < f.code.size() && IsIdentChar(f.code[name_end])) {
          ++name_end;
        }
        if (name_end > i) symbols.insert(f.code.substr(i, name_end - i));
      }
    }
  }
  return symbols;
}

// A file participates in the protocol when it can put bytes on the wire.
bool TouchesNetwork(const SourceFile& f) {
  return f.raw.find("core/messages.h") != std::string::npos ||
         f.code.find("Send(") != std::string::npos ||
         f.code.find("SendToMaster(") != std::string::npos;
}

// Extracts the symbol a range-for iterates: the trailing identifier of
// the range expression, with one trailing call's parens stripped so both
// `table.loops()` and `ls.vertices` resolve.
std::string RangeSymbol(std::string expr) {
  expr = Trim(expr);
  while (!expr.empty() && expr.back() == ')') {
    // Strip one balanced trailing (...) group.
    int depth = 0;
    size_t i = expr.size();
    while (i > 0) {
      --i;
      if (expr[i] == ')') ++depth;
      if (expr[i] == '(') {
        --depth;
        if (depth == 0) break;
      }
    }
    if (depth != 0) return "";
    // `SortedKeys(m)` → keep the callee name; `m.loops()` → strip parens.
    expr = Trim(expr.substr(0, i));
  }
  size_t end = expr.size();
  while (end > 0 && !IsIdentChar(expr[end - 1])) --end;
  size_t begin = end;
  while (begin > 0 && IsIdentChar(expr[begin - 1])) --begin;
  return expr.substr(begin, end - begin);
}

void CheckUnorderedIteration(const SourceFile& f,
                             const std::set<std::string>& unordered,
                             Linter* lint) {
  if (!TouchesNetwork(f)) return;
  for (size_t pos : FindWord(f.code, "for")) {
    size_t open = pos + 3;
    while (open < f.code.size() &&
           std::isspace(static_cast<unsigned char>(f.code[open])) != 0) {
      ++open;
    }
    if (open >= f.code.size() || f.code[open] != '(') continue;
    int depth = 0;
    size_t close = open;
    for (; close < f.code.size(); ++close) {
      if (f.code[close] == '(') ++depth;
      if (f.code[close] == ')') {
        --depth;
        if (depth == 0) break;
      }
    }
    if (close >= f.code.size()) continue;
    const std::string head = f.code.substr(open + 1, close - open - 1);
    // Top-level single ':' (not '::') marks a range-for.
    size_t colon = std::string::npos;
    int d = 0;
    for (size_t i = 0; i < head.size(); ++i) {
      const char c = head[i];
      if (c == '(' || c == '<' || c == '[') ++d;
      if (c == ')' || c == '>' || c == ']') --d;
      if (c == ':' && d == 0) {
        if ((i > 0 && head[i - 1] == ':') ||
            (i + 1 < head.size() && head[i + 1] == ':')) {
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    const std::string symbol = RangeSymbol(head.substr(colon + 1));
    if (symbol.empty() || unordered.count(symbol) == 0) continue;
    lint->Report(f, pos, "DET-003",
                 "range-for over unordered container `" + symbol +
                 "` in a file that sends protocol messages; iteration "
                 "order is hash-layout-dependent");
  }
}

// --- DET-004: pointer-keyed ordered containers. ---

void CheckPointerKeys(const SourceFile& f, Linter* lint) {
  for (const char* type : {"map", "set", "multimap", "multiset"}) {
    for (size_t pos : FindWord(f.code, type)) {
      size_t i = pos + std::string(type).size();
      if (i >= f.code.size() || f.code[i] != '<') continue;
      // First template argument at depth 1.
      int depth = 0;
      std::string key;
      for (; i < f.code.size(); ++i) {
        const char c = f.code[i];
        if (c == '<') {
          ++depth;
          if (depth == 1) continue;
        }
        if (c == '>') {
          --depth;
          if (depth == 0) break;
        }
        if (c == ',' && depth == 1) break;
        if (depth >= 1) key.push_back(c);
      }
      if (key.find('*') != std::string::npos) {
        lint->Report(f, pos, "DET-004",
                     "ordered container keyed by pointer `" + Trim(key) +
                     "`; ordering follows allocation addresses");
      }
    }
  }
}

// --- RUN-001: substrate layering. ---

// Only the substrate layer itself may name the concrete simulation types;
// every other layer programs against runtime/substrate.h so the thread
// backend (or a future one) can slot in underneath it.
bool ExemptFromRuntimeIncludeRule(const std::string& path) {
  return path.find("src/sim/") != std::string::npos ||
         path.find("src/net/") != std::string::npos ||
         path.find("src/runtime/sim_") != std::string::npos;
}

void CheckRuntimeIncludes(const SourceFile& f, Linter* lint) {
  if (ExemptFromRuntimeIncludeRule(f.path)) return;
  static const char* kConcreteHeaders[] = {"sim/event_loop.h",
                                           "net/network.h"};
  // Scan the raw lines: include paths are string literals, which the
  // blanked `code` buffer has erased.
  for (size_t i = 0; i < f.raw_lines.size(); ++i) {
    const std::string& line = f.raw_lines[i];
    if (line.find("#include") == std::string::npos) continue;
    for (const char* header : kConcreteHeaders) {
      if (line.find('"' + std::string(header) + '"') == std::string::npos) {
        continue;
      }
      lint->Report(f, f.line_starts[i], "RUN-001",
                   "#include \"" + std::string(header) + "\" reaches for a "
                   "concrete substrate type outside src/sim, src/net, and "
                   "the sim backend under src/runtime");
    }
  }
}

// --- CON-001 / CON-003: concurrency primitives above the seam. ---

// The substrate and the annotated wrappers are the two layers allowed to
// name raw primitives; bench/ and tools/ are host-side programs outside
// the engine's threading model.
bool ExemptFromConcurrencyRules(const std::string& path) {
  return path.find("runtime/") != std::string::npos ||
         path.find("common/") != std::string::npos ||
         path.find("bench/") != std::string::npos ||
         path.find("tools/") != std::string::npos;
}

// True when the identifier at `pos` is written `std::<word>`: the two
// characters before it are "::" and the identifier before those is `std`.
// (Checking for the qualifier keeps `#include <mutex>` and repo types
// that merely reuse a name out of scope.)
bool QualifiedByStd(const std::string& code, size_t pos) {
  if (pos < 5 || code[pos - 1] != ':' || code[pos - 2] != ':') return false;
  size_t end = pos - 2;  // one past the qualifying identifier
  if (code.substr(end - 3, 3) != "std") return false;
  return end == 3 || !IsIdentChar(code[end - 4]);
}

void CheckConcurrencyPrimitives(const SourceFile& f, Linter* lint) {
  if (ExemptFromConcurrencyRules(f.path)) return;
  static const char* kBanned[] = {
      "mutex",         "recursive_mutex",       "timed_mutex",
      "recursive_timed_mutex",                  "shared_mutex",
      "shared_timed_mutex",                     "condition_variable",
      "condition_variable_any",                 "thread",
      "jthread",       "lock_guard",            "unique_lock",
      "scoped_lock",   "shared_lock",           "once_flag",
      "call_once",
  };
  for (const char* word : kBanned) {
    for (size_t pos : FindWord(f.code, word)) {
      if (!QualifiedByStd(f.code, pos)) continue;
      lint->Report(f, pos, "CON-001",
                   "std::" + std::string(word) + " above the substrate "
                   "seam; the thread-safety analysis cannot see through "
                   "raw primitives");
    }
  }
  // std::atomic is only a warning: a lone flag or counter with no
  // compound invariant is legitimately lock-free, but each new one
  // deserves a look (and a NOLINT with the reasoning once reviewed).
  for (const char* word : {"atomic", "atomic_flag"}) {
    for (size_t pos : FindWord(f.code, word)) {
      if (!QualifiedByStd(f.code, pos)) continue;
      lint->Report(f, pos, "CON-001",
                   "std::" + std::string(word) + " above the substrate "
                   "seam; fine for an independent flag or counter — "
                   "confirm there is no compound invariant, then NOLINT "
                   "with the reasoning",
                   "warning");
    }
  }
}

void CheckThreadHygiene(const SourceFile& f, Linter* lint) {
  if (ExemptFromConcurrencyRules(f.path)) return;
  for (size_t pos : FindWord(f.code, "detach")) {
    const bool member_call =
        (pos >= 1 && f.code[pos - 1] == '.') ||
        (pos >= 2 && f.code[pos - 2] == '-' && f.code[pos - 1] == '>');
    if (!member_call) continue;
    if (!NextNonSpaceIs(f.code, pos + 6, '(')) continue;
    lint->Report(f, pos, "CON-003",
                 "detach() orphans the thread; nothing can join it at "
                 "shutdown and TSan cannot see its lifetime");
  }
  for (const char* word : {"sleep_for", "sleep_until"}) {
    for (size_t pos : FindWord(f.code, word)) {
      // `::sleep_for` catches both std::this_thread:: and a using-decl'd
      // this_thread::; an unqualified repo helper is someone else's.
      if (pos < 2 || f.code[pos - 1] != ':' || f.code[pos - 2] != ':') {
        continue;
      }
      lint->Report(f, pos, "CON-003",
                   std::string(word) + " blocks a worker on the host "
                   "clock; timed work goes through the substrate's "
                   "scheduler");
    }
  }
}

// --- CON-002: unguarded members in mutex-holding classes. ---

// True when the statement has a '(' outside any <...> template argument
// list — i.e. it declares or defines a function, not a data member.
bool LooksLikeFunctionDecl(const std::string& stmt) {
  int angle = 0;
  for (char c : stmt) {
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c == '(' && angle == 0) return true;
  }
  return false;
}

// A field statement that needs no GUARDED_BY: synchronization members
// themselves, atomics (CON-001 already makes the author justify those),
// threads (join handles, not data), immutable members, nested type
// definitions, and anything already annotated.
bool ExemptFieldStatement(const std::string& stmt) {
  static const char* kExemptWords[] = {
      "GUARDED_BY", "PT_GUARDED_BY", "Mutex",  "RecursiveMutex", "CondVar",
      "atomic",     "thread",        "Thread", "class",          "struct",
      "enum",       "union",         "using",  "typedef",        "friend",
      "static",     "constexpr",     "operator",                 "template",
  };
  for (const char* word : kExemptWords) {
    if (!FindWord(stmt, word).empty()) return true;
  }
  if (stmt.find("TORNADO_") != std::string::npos) return true;
  // `const T name_;` is set once at construction; nothing to guard.
  const std::string trimmed = Trim(stmt);
  if (trimmed.rfind("const ", 0) == 0) return true;
  return LooksLikeFunctionDecl(stmt);
}

// Strips `public:` / `private:` / `protected:` access labels that the
// statement buffer accumulates (they end in ':', not ';').
std::string StripAccessLabels(std::string stmt) {
  while (true) {
    const std::string t = Trim(stmt);
    bool stripped = false;
    for (const char* label : {"public", "private", "protected"}) {
      const std::string prefix = std::string(label) + ":";
      // Guard against `public::` style qualifications (none exist, but
      // cheap to be exact): require a single colon.
      if (t.rfind(prefix, 0) == 0 &&
          (t.size() == prefix.size() || t[prefix.size()] != ':')) {
        stmt = t.substr(prefix.size());
        stripped = true;
        break;
      }
    }
    if (!stripped) return Trim(stmt);
  }
}

// Declares-a-mutex test for one class-scope statement: a Mutex /
// RecursiveMutex word followed by something other than a function's
// parameter list (i.e. a member declaration).
bool DeclaresMutexMember(const std::string& stmt) {
  if (LooksLikeFunctionDecl(stmt)) return false;
  return !FindWord(stmt, "Mutex").empty() ||
         !FindWord(stmt, "RecursiveMutex").empty();
}

// Token-level scope walk: tracks whether each brace scope is a class
// body, whether that class has declared an annotated mutex yet, and
// flags the mutable members declared after it that carry no GUARDED_BY.
// Runs everywhere — a class guarding state with a Mutex states a
// contract, and every unannotated member after it is a hole in that
// contract regardless of directory.
void CheckGuardedFields(const SourceFile& f, Linter* lint) {
  struct Scope {
    bool is_class = false;
    bool has_mutex = false;
    std::string pending;  // statement buffer of the ENCLOSING scope
  };
  std::vector<Scope> stack;
  std::string stmt;
  const std::string& code = f.code;
  for (size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '{') {
      Scope scope;
      const std::string head = StripAccessLabels(stmt);
      scope.is_class = !FindWord(head, "class").empty() ||
                       !FindWord(head, "struct").empty() ||
                       !FindWord(head, "union").empty();
      // enum class { A, B } is not a field-holding scope.
      if (!FindWord(head, "enum").empty()) scope.is_class = false;
      scope.pending = std::move(stmt);
      stmt.clear();
      stack.push_back(std::move(scope));
      continue;
    }
    if (c == '}') {
      if (stack.empty()) continue;
      std::string pending = std::move(stack.back().pending);
      stack.pop_back();
      // `} ;` continues the enclosing statement (class definition or
      // brace-initialized member); `}` alone ends a function body.
      if (NextNonSpaceIs(code, i + 1, ';')) {
        stmt = std::move(pending);
      } else {
        stmt.clear();
      }
      continue;
    }
    if (c == ';') {
      if (!stack.empty() && stack.back().is_class) {
        const std::string field = StripAccessLabels(stmt);
        if (!field.empty()) {
          if (DeclaresMutexMember(field)) {
            stack.back().has_mutex = true;
          } else if (stack.back().has_mutex && !ExemptFieldStatement(field)) {
            lint->Report(f, i, "CON-002",
                         "member `" + field + "` declared after this "
                         "class's mutex but not GUARDED_BY it");
          }
        }
      }
      stmt.clear();
      continue;
    }
    stmt.push_back(c);
  }
}

// --- KER-001: SoA discipline and math-flag safety in the kernel layer. ---

// CMake listfiles ride along in the scan solely for this rule; the C++
// token checks never run on them.
bool IsCMakeFile(const std::string& path) {
  const fs::path p(path);
  return p.filename() == "CMakeLists.txt" || p.extension() == ".cmake";
}

void CheckKernelHygiene(const SourceFile& f, Linter* lint) {
  if (IsCMakeFile(f.path)) {
    // Any -ffast-math family flag anywhere in the build breaks the
    // bit-identical reduction contract (it licenses the compiler to
    // reassociate the canonical lane order away).
    static const char* kBannedFlags[] = {"-ffast-math",
                                         "-funsafe-math-optimizations"};
    for (size_t i = 0; i < f.raw_lines.size(); ++i) {
      const std::string& line = f.raw_lines[i];
      const size_t comment = line.find('#');
      for (const char* flag : kBannedFlags) {
        const size_t at = line.find(flag);
        if (at == std::string::npos) continue;
        if (comment != std::string::npos && comment < at) continue;
        lint->Report(f, f.line_starts[i], "KER-001",
                     std::string(flag) + " licenses value-changing FP "
                     "reassociation; the kernel reductions must stay "
                     "bit-identical across SIMD variants");
      }
    }
    return;
  }
  // The kernel layer is the SoA substrate: per-entry node containers
  // there defeat the contiguous value arrays the batch kernels consume.
  if (f.path.find("kernel/") == std::string::npos) return;
  for (const char* type : {"map", "unordered_map"}) {
    for (size_t pos : FindWord(f.code, type)) {
      if (!QualifiedByStd(f.code, pos)) continue;
      lint->Report(f, pos, "KER-001",
                   "std::" + std::string(type) + " in the kernel layer "
                   "allocates a node per entry; kernel state must stay "
                   "struct-of-arrays");
    }
  }
}

// --- Driver. ---

void CollectPaths(const std::string& root, std::vector<std::string>* out) {
  static const std::set<std::string> kExts = {".h", ".hpp", ".cc", ".cpp",
                                              ".cxx"};
  fs::path p(root);
  if (fs::is_regular_file(p)) {
    out->push_back(p.generic_string());
    return;
  }
  if (!fs::is_directory(p)) return;
  for (const auto& entry : fs::recursive_directory_iterator(p)) {
    if (!entry.is_regular_file()) continue;
    // CMake listfiles are scanned by KER-001 only (math-flag audit).
    if (kExts.count(entry.path().extension().string()) == 0 &&
        !IsCMakeFile(entry.path().generic_string())) {
      continue;
    }
    out->push_back(entry.path().generic_string());
  }
}

// SARIF 2.1.0 (the GitHub code-scanning ingestion format): one run, the
// rule table as the tool's driver metadata, one result per unsuppressed
// finding. Suppressed findings are omitted — their NOLINT reason is the
// repo-side record.
void PrintSarif(const std::vector<Finding>& findings, std::ostream& out);

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void PrintSarif(const std::vector<Finding>& findings, std::ostream& out) {
  out << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"tornado_lint\",\n"
      << "          \"informationUri\": \"docs/CHECKS.md\",\n"
      << "          \"rules\": [";
  bool first = true;
  for (const RuleInfo& r : kRules) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "            {\"id\": \"" << r.id
        << "\", \"shortDescription\": {\"text\": \"" << JsonEscape(r.description)
        << "\"}, \"defaultConfiguration\": {\"level\": \"" << r.severity
        << "\"}, \"help\": {\"text\": \"" << JsonEscape(r.hint) << "\"}}";
  }
  out << "\n          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  first = true;
  for (const Finding& f : findings) {
    if (f.suppressed) continue;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "        {\"ruleId\": \"" << f.rule << "\", \"level\": \""
        << f.severity << "\", \"message\": {\"text\": \""
        << JsonEscape(f.message) << "\"}, \"locations\": [{"
        << "\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
        << JsonEscape(f.file) << "\"}, \"region\": {\"startLine\": "
        << f.line << "}}}]}";
  }
  out << "\n      ]\n    }\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool sarif = false;
  bool fix_hints = false;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      sarif = true;
    } else if (arg == "--fix-hints") {
      fix_hints = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: tornado_lint [--json] [--sarif] [--fix-hints] "
                   "[path...]\n";
      for (const RuleInfo& r : kRules) {
        std::cout << "  " << r.id << "  [" << r.severity << "]  "
                  << r.description << "\n";
      }
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) roots.push_back("src");

  std::vector<std::string> paths;
  for (const std::string& root : roots) CollectPaths(root, &paths);
  if (paths.empty()) {
    std::cerr << "tornado_lint: no sources under given paths\n";
    return 2;
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& p : paths) files.push_back(LoadFile(p));

  Linter lint;
  const std::set<std::string> unordered = CollectUnorderedSymbols(files);
  for (const SourceFile& f : files) {
    CheckKernelHygiene(f, &lint);
    if (IsCMakeFile(f.path)) continue;  // only KER-001 reads listfiles
    CheckWallClock(f, &lint);
    CheckRandom(f, &lint);
    CheckUnorderedIteration(f, unordered, &lint);
    CheckPointerKeys(f, &lint);
    CheckRuntimeIncludes(f, &lint);
    CheckConcurrencyPrimitives(f, &lint);
    CheckGuardedFields(f, &lint);
    CheckThreadHygiene(f, &lint);
  }

  std::stable_sort(lint.findings().begin(), lint.findings().end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });

  int unsuppressed = 0;
  int suppressed = 0;
  int unsuppressed_errors = 0;
  for (const Finding& f : lint.findings()) {
    f.suppressed ? ++suppressed : ++unsuppressed;
    if (!f.suppressed && f.severity == "error") ++unsuppressed_errors;
  }

  if (sarif) {
    PrintSarif(lint.findings(), std::cout);
  } else if (json) {
    std::cout << "{\n  \"findings\": [";
    bool first = true;
    for (const Finding& f : lint.findings()) {
      std::cout << (first ? "\n" : ",\n");
      first = false;
      std::cout << "    {\"file\": \"" << JsonEscape(f.file)
                << "\", \"line\": " << f.line << ", \"rule\": \"" << f.rule
                << "\", \"severity\": \"" << f.severity
                << "\", \"message\": \"" << JsonEscape(f.message)
                << "\", \"hint\": \"" << JsonEscape(f.hint)
                << "\", \"suppressed\": " << (f.suppressed ? "true" : "false")
                << ", \"reason\": \"" << JsonEscape(f.reason) << "\"}";
    }
    std::cout << "\n  ],\n";
    std::cout << "  \"files_scanned\": " << files.size() << ",\n";
    std::cout << "  \"unsuppressed\": " << unsuppressed << ",\n";
    std::cout << "  \"unsuppressed_errors\": " << unsuppressed_errors
              << ",\n";
    std::cout << "  \"suppressed\": " << suppressed << "\n}\n";
  } else {
    for (const Finding& f : lint.findings()) {
      if (f.suppressed) continue;
      std::cout << f.file << ":" << f.line << ": [" << f.rule << " "
                << f.severity << "] " << f.message << "\n";
      if (fix_hints) {
        if (!f.hint.empty()) std::cout << "    hint: " << f.hint << "\n";
        // The escape hatch, spelled out so it can be pasted: the reason
        // is mandatory — a bare NOLINT does not suppress.
        std::cout << "    suppress: // NOLINT(" << f.rule
                  << "): <why this is safe>\n";
      }
    }
    std::cout << "tornado_lint: " << files.size() << " files, "
              << unsuppressed << " finding(s) (" << unsuppressed_errors
              << " error(s)), " << suppressed << " suppressed\n";
  }
  // Warnings report but do not gate; only unsuppressed errors fail.
  return unsuppressed_errors == 0 ? 0 : 1;
}
