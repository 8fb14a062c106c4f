#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's seeded paper workloads (README.md says why each one is
// here). A workload builds the job and its input stream from a seed, and
// checks a converged branch against the exact solver on the input prefix
// the cluster saw.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"

namespace perfbench {

/// How the benchmark drives one run (closed loop: one query in flight).
struct Drive {
  uint64_t tuples = 0;       // stream length
  double rate = 0.0;         // tuples per virtual second
  uint64_t warmup = 0;       // tuples before the first query
  uint64_t query_every = 0;  // tuples between one query's convergence and
                             // the next query
  uint64_t max_queries = 0;
};

/// Outcome of an answer check.
struct AnswerCheck {
  bool ok = false;
  double error = 0.0;  // the compared quantity (see the workload)
  double bound = 0.0;  // ok iff error <= bound
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual Drive drive() const = 0;

  /// The job, with JobConfig::seed = seed.
  virtual tornado::JobConfig Config(uint64_t seed) const = 0;

  /// The input stream, generated from `seed`.
  virtual std::unique_ptr<tornado::StreamSource> Stream(
      uint64_t seed) const = 0;

  /// Compares the state of `branch` with the exact solution over the first
  /// `emitted` tuples of Stream(seed). The exact solution depends only on
  /// (seed, emitted), so implementations cache it across calls.
  virtual AnswerCheck Check(const tornado::TornadoCluster& cluster,
                            tornado::LoopId branch, uint64_t seed,
                            uint64_t emitted) = 0;
};

/// The workload called `name`, or nullptr.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
