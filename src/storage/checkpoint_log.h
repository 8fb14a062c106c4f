#ifndef TORNADO_STORAGE_CHECKPOINT_LOG_H_
#define TORNADO_STORAGE_CHECKPOINT_LOG_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace tornado {

class VersionedStore;

/// Append-only on-disk log of durable vertex versions.
///
/// The simulated cluster charges checkpoint I/O through the cost model; this
/// class provides *actual* durability for users who embed the library and
/// want state to survive process restarts (mirroring Tornado's use of an
/// external database). Records are appended on flush and replayed into a
/// VersionedStore on recovery.
///
/// Record layout (little-endian):
///   u32 loop | u64 vertex | u64 iteration | u32 len | len bytes |
///   u32 input_len | input_len bytes | u32 crc
/// where the first byte run is the version's iteration part and the second
/// its input part (empty when the version has none).
class CheckpointLog {
 public:
  CheckpointLog() = default;
  ~CheckpointLog();

  CheckpointLog(const CheckpointLog&) = delete;
  CheckpointLog& operator=(const CheckpointLog&) = delete;

  /// Opens (creating if needed) the log at `path` for appending.
  Status Open(const std::string& path);

  /// Appends one version record (iteration part `data`, input part
  /// `input`) and fsync-equivalently flushes it.
  Status Append(LoopId loop, VertexId vertex, Iteration iteration,
                const uint8_t* data, size_t size,
                const std::vector<uint8_t>* input = nullptr);
  Status Append(LoopId loop, VertexId vertex, Iteration iteration,
                const std::vector<uint8_t>& value) {
    return Append(loop, vertex, iteration, value.data(), value.size());
  }

  /// Replays all intact records into `store` (later records win), both
  /// parts of each. Stops at the first torn/corrupt record, mimicking WAL
  /// recovery semantics. Returns the number of records applied.
  Result<size_t> Replay(const std::string& path, VersionedStore* store) const;

  Status Close();

  bool is_open() const { return file_ != nullptr; }

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace tornado

#endif  // TORNADO_STORAGE_CHECKPOINT_LOG_H_
