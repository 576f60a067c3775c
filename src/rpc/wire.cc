#include "rpc/wire.h"

namespace sgla {
namespace rpc {

void PutU32(uint32_t v, uint8_t* out) {
  out[0] = static_cast<uint8_t>(v);
  out[1] = static_cast<uint8_t>(v >> 8);
  out[2] = static_cast<uint8_t>(v >> 16);
  out[3] = static_cast<uint8_t>(v >> 24);
}

void PutU64(uint64_t v, uint8_t* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t GetU32(const uint8_t* in) {
  return static_cast<uint32_t>(in[0]) | static_cast<uint32_t>(in[1]) << 8 |
         static_cast<uint32_t>(in[2]) << 16 |
         static_cast<uint32_t>(in[3]) << 24;
}

uint64_t GetU64(const uint8_t* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(in[i]) << (8 * i);
  return v;
}

namespace {

bool KnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kRegister:
    case FrameType::kUpdate:
    case FrameType::kSolve:
    case FrameType::kEvict:
    case FrameType::kPing:
    case FrameType::kCheckpoint:
    case FrameType::kHelloOk:
    case FrameType::kRegisterOk:
    case FrameType::kUpdateOk:
    case FrameType::kSolveOk:
    case FrameType::kEvictOk:
    case FrameType::kPong:
    case FrameType::kCheckpointOk:
    case FrameType::kError:
      return true;
  }
  return false;
}

}  // namespace

void EncodeFrameHeader(const FrameHeader& header, uint8_t* out) {
  PutU32(header.payload_length, out);
  out[4] = static_cast<uint8_t>(header.type);
  out[5] = 0;  // flags
  out[6] = 0;  // reserved
  out[7] = 0;
  PutU64(header.request_id, out + 8);
}

bool DecodeFrameHeader(const uint8_t* in, FrameHeader* header) {
  const uint32_t length = GetU32(in);
  if (length > kMaxPayloadBytes) return false;
  if (!KnownFrameType(in[4])) return false;
  header->payload_length = length;
  header->type = static_cast<FrameType>(in[4]);
  header->request_id = GetU64(in + 8);
  return true;
}

void WireWriter::U32(uint32_t v) {
  uint8_t b[4];
  PutU32(v, b);
  buffer_.insert(buffer_.end(), b, b + 4);
}

void WireWriter::U64(uint64_t v) {
  uint8_t b[8];
  PutU64(v, b);
  buffer_.insert(buffer_.end(), b, b + 8);
}

void WireWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void WireWriter::F64Vec(const std::vector<double>& v) {
  U64(v.size());
  for (double x : v) F64(x);
}

void WireWriter::I32Vec(const std::vector<int32_t>& v) {
  U64(v.size());
  for (int32_t x : v) I32(x);
}

bool WireReader::Take(size_t n, const uint8_t** out) {
  if (!ok_ || size_ - offset_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_ + offset_;
  offset_ += n;
  return true;
}

bool WireReader::CheckCount(uint64_t count, size_t elem_bytes) {
  if (!ok_ || count > (size_ - offset_) / elem_bytes) {
    ok_ = false;
    return false;
  }
  return true;
}

bool WireReader::U8(uint8_t* v) {
  const uint8_t* p;
  if (!Take(1, &p)) return false;
  *v = p[0];
  return true;
}

bool WireReader::U32(uint32_t* v) {
  const uint8_t* p;
  if (!Take(4, &p)) return false;
  *v = GetU32(p);
  return true;
}

bool WireReader::U64(uint64_t* v) {
  const uint8_t* p;
  if (!Take(8, &p)) return false;
  *v = GetU64(p);
  return true;
}

bool WireReader::I32(int32_t* v) {
  uint32_t u;
  if (!U32(&u)) return false;
  *v = static_cast<int32_t>(u);
  return true;
}

bool WireReader::I64(int64_t* v) {
  uint64_t u;
  if (!U64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool WireReader::F64(double* v) {
  uint64_t bits;
  if (!U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool WireReader::Str(std::string* s) {
  uint32_t length;
  if (!U32(&length)) return false;
  const uint8_t* p;
  if (!Take(length, &p)) return false;
  s->assign(reinterpret_cast<const char*>(p), length);
  return true;
}

bool WireReader::F64Vec(std::vector<double>* v) {
  uint64_t count;
  if (!U64(&count) || !CheckCount(count, 8)) return false;
  v->resize(count);
  for (double& x : *v) {
    if (!F64(&x)) return false;
  }
  return true;
}

bool WireReader::I32Vec(std::vector<int32_t>* v) {
  uint64_t count;
  if (!U64(&count) || !CheckCount(count, 4)) return false;
  v->resize(count);
  for (int32_t& x : *v) {
    if (!I32(&x)) return false;
  }
  return true;
}

}  // namespace rpc
}  // namespace sgla
