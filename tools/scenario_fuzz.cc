// Seeded scenario fuzz campaign over a corpus directory (docs/SCENARIOS.md).
// Mutates corpus scenarios within schema bounds, runs each mutant on the
// deterministic sim backend under the invariant checker, and on the first
// violation shrinks toward a minimal failing scenario and writes a repro
// JSON file. Exit codes: 0 = budget exhausted with no violation,
// 1 = violation found (repro written when --out is set), 2 = usage or
// corpus error.
//
// Usage: scenario_fuzz --corpus=DIR [--budget-runs=N] [--seed=S]
//                      [--shrink-budget=N] [--out=DIR] [--verbose]
// N and S are positive decimal integers; anything else is a usage error.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "scenario/fuzzer.h"
#include "scenario/scenario.h"

namespace {

bool FlagValue(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

/// Parses `text` as a decimal integer in [1, max]; false when it is
/// empty, signed, has trailing characters, is zero or is out of range.
template <typename T>
bool ParsePositive(const char* text, T* out) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v == 0 ||
      v > std::numeric_limits<T>::max()) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_dir;
  tornado::scenario::FuzzOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    bool number_ok = true;
    if (FlagValue(argv[i], "--corpus", &value)) {
      corpus_dir = value;
    } else if (FlagValue(argv[i], "--budget-runs", &value)) {
      number_ok = ParsePositive(value, &options.budget_runs);
    } else if (FlagValue(argv[i], "--seed", &value)) {
      number_ok = ParsePositive(value, &options.seed);
    } else if (FlagValue(argv[i], "--shrink-budget", &value)) {
      number_ok = ParsePositive(value, &options.shrink_budget);
    } else if (FlagValue(argv[i], "--out", &value)) {
      options.out_dir = value;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      options.verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: scenario_fuzz --corpus=DIR [--budget-runs=N] "
                   "[--seed=S] [--shrink-budget=N] [--out=DIR] [--verbose]\n");
      return 2;
    }
    if (!number_ok) {
      std::fprintf(stderr, "scenario_fuzz: %s: want a positive integer\n",
                   argv[i]);
      return 2;
    }
  }
  if (corpus_dir.empty()) {
    std::fprintf(stderr, "scenario_fuzz: --corpus=DIR is required\n");
    return 2;
  }

  // Sorted listing: the corpus order (and so the seeded run sequence) must
  // not depend on directory-entry order.
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(corpus_dir, ec)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "scenario_fuzz: cannot list %s: %s\n",
                 corpus_dir.c_str(), ec.message().c_str());
    return 2;
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "scenario_fuzz: no .json files in %s\n",
                 corpus_dir.c_str());
    return 2;
  }

  std::vector<tornado::scenario::Scenario> corpus;
  for (const std::string& file : files) {
    tornado::scenario::Scenario scenario;
    std::vector<std::string> errors;
    if (!tornado::scenario::LoadScenarioFile(file, &scenario, &errors)) {
      std::fprintf(stderr, "%s: invalid scenario\n", file.c_str());
      for (const std::string& e : errors) {
        std::fprintf(stderr, "  %s\n", e.c_str());
      }
      return 2;
    }
    corpus.push_back(std::move(scenario));
  }
  std::printf("fuzz: %zu corpus scenarios, seed %llu, budget %u runs\n",
              corpus.size(), static_cast<unsigned long long>(options.seed),
              options.budget_runs);

  if (!options.out_dir.empty()) {
    std::filesystem::create_directories(options.out_dir, ec);
  }
  const tornado::scenario::FuzzResult result =
      tornado::scenario::FuzzScenarios(corpus, options);
  if (!result.found_violation) {
    std::printf("fuzz: %u runs, no violation\n", result.runs);
    return 0;
  }

  std::printf("fuzz: VIOLATION at run %u (%u shrink runs)\n",
              result.failing_run, result.shrink_runs);
  for (const auto& v : result.violations) {
    std::printf("  violation %s: %s\n", v.invariant.c_str(),
                v.detail.c_str());
  }
  if (!result.repro_path.empty()) {
    std::printf("fuzz: repro written to %s\n", result.repro_path.c_str());
  }
  std::printf(
      "fuzz: replay with seed=%llu run=%u, or scenario_run on the repro\n",
      static_cast<unsigned long long>(options.seed), result.failing_run);
  return 1;
}
