#include "storage/checkpoint_log.h"

#include <cstring>

#include "storage/versioned_store.h"

namespace tornado {

namespace {

/// CRC32 (Castagnoli polynomial, bitwise; cold path only).
uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0x82F63B78u & (~(crc & 1) + 1));
    }
  }
  return ~crc;
}

bool ReadExact(std::FILE* f, void* out, size_t n) {
  return std::fread(out, 1, n, f) == n;
}

}  // namespace

CheckpointLog::~CheckpointLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Status CheckpointLog::Open(const std::string& path) {
  if (file_ != nullptr) return Status::FailedPrecondition("already open");
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Unavailable("cannot open checkpoint log: " + path);
  }
  return Status::Ok();
}

Status CheckpointLog::Append(LoopId loop, VertexId vertex, Iteration iteration,
                             const uint8_t* data, size_t size,
                             const std::vector<uint8_t>* input) {
  if (file_ == nullptr) return Status::FailedPrecondition("log not open");
  std::vector<uint8_t> record;
  record.resize(sizeof(uint32_t) + sizeof(uint64_t) * 2 + sizeof(uint32_t));
  uint8_t* p = record.data();
  std::memcpy(p, &loop, sizeof(loop));
  p += sizeof(loop);
  std::memcpy(p, &vertex, sizeof(vertex));
  p += sizeof(vertex);
  std::memcpy(p, &iteration, sizeof(iteration));
  p += sizeof(iteration);
  const uint32_t len = static_cast<uint32_t>(size);
  std::memcpy(p, &len, sizeof(len));
  record.insert(record.end(), data, data + size);
  const uint32_t input_len =
      input == nullptr ? 0 : static_cast<uint32_t>(input->size());
  const auto* len_bytes = reinterpret_cast<const uint8_t*>(&input_len);
  record.insert(record.end(), len_bytes, len_bytes + sizeof(input_len));
  if (input != nullptr) {
    record.insert(record.end(), input->begin(), input->end());
  }
  const uint32_t crc = Crc32c(record.data(), record.size());

  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size() ||
      std::fwrite(&crc, 1, sizeof(crc), file_) != sizeof(crc)) {
    return Status::Unavailable("short write to checkpoint log");
  }
  if (std::fflush(file_) != 0) {
    return Status::Unavailable("flush failed");
  }
  return Status::Ok();
}

Result<size_t> CheckpointLog::Replay(const std::string& path,
                                     VersionedStore* store) const {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no checkpoint log at " + path);
  }
  size_t applied = 0;
  for (;;) {
    uint8_t header[sizeof(uint32_t) + sizeof(uint64_t) * 2 + sizeof(uint32_t)];
    if (!ReadExact(f, header, sizeof(header))) break;
    LoopId loop;
    VertexId vertex;
    Iteration iteration;
    uint32_t len;
    const uint8_t* p = header;
    std::memcpy(&loop, p, sizeof(loop));
    p += sizeof(loop);
    std::memcpy(&vertex, p, sizeof(vertex));
    p += sizeof(vertex);
    std::memcpy(&iteration, p, sizeof(iteration));
    p += sizeof(iteration);
    std::memcpy(&len, p, sizeof(len));
    std::vector<uint8_t> value(len);
    if (len > 0 && !ReadExact(f, value.data(), len)) break;
    uint32_t input_len = 0;
    if (!ReadExact(f, &input_len, sizeof(input_len))) break;
    std::vector<uint8_t> input(input_len);
    if (input_len > 0 && !ReadExact(f, input.data(), input_len)) break;
    uint32_t crc = 0;
    if (!ReadExact(f, &crc, sizeof(crc))) break;
    std::vector<uint8_t> record(header, header + sizeof(header));
    record.insert(record.end(), value.begin(), value.end());
    const auto* len_bytes = reinterpret_cast<const uint8_t*>(&input_len);
    record.insert(record.end(), len_bytes, len_bytes + sizeof(input_len));
    record.insert(record.end(), input.begin(), input.end());
    const uint32_t expect = Crc32c(record.data(), record.size());
    if (crc != expect) break;  // torn/corrupt tail
    InputBlob blob;
    if (input_len > 0) {
      blob = std::make_shared<const std::vector<uint8_t>>(std::move(input));
    }
    store->Put(loop, vertex, iteration, std::move(value), std::move(blob));
    ++applied;
  }
  std::fclose(f);
  return applied;
}

Status CheckpointLog::Close() {
  if (file_ == nullptr) return Status::Ok();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::Unavailable("close failed");
  return Status::Ok();
}

}  // namespace tornado
