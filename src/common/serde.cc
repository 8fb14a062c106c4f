#include "common/serde.h"

namespace tornado {

void BufferWriter::PutVarintSlow(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

Status BufferReader::GetRaw(void* out, size_t n) {
  if (pos_ + n > size_) {
    return Status::OutOfRange("buffer truncated");
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status BufferReader::GetU8(uint8_t* out) { return GetRaw(out, 1); }

Status BufferReader::GetVarint(uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= size_) return Status::OutOfRange("varint truncated");
    if (shift > 63) return Status::OutOfRange("varint overflow");
    const uint8_t byte = data_[pos_++];
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *out = result;
  return Status::Ok();
}

Status BufferReader::GetDoubleVec(std::vector<double>* out) {
  uint64_t len = 0;
  if (Status s = GetVarint(&len); !s.ok()) return s;
  if (len > remaining() / sizeof(double)) {
    return Status::OutOfRange("double vector truncated");
  }
  out->resize(len);
  if (len == 0) return Status::Ok();
  return GetRaw(out->data(), len * sizeof(double));
}

Status BufferReader::GetU64Vec(std::vector<uint64_t>* out) {
  uint64_t len = 0;
  if (Status s = GetVarint(&len); !s.ok()) return s;
  out->clear();
  out->reserve(len);
  for (uint64_t i = 0; i < len; ++i) {
    uint64_t v = 0;
    if (Status s = GetVarint(&v); !s.ok()) return s;
    out->push_back(v);
  }
  return Status::Ok();
}

}  // namespace tornado
