#ifndef SGLA_RPC_WIRE_H_
#define SGLA_RPC_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace sgla {
namespace rpc {

/// Every message on the wire is one frame:
///
///   [u32 payload_length][u8 type][u8 flags][u16 reserved][u64 request_id]
///   [payload_length bytes of payload]
///
/// — a 16-byte little-endian header followed by the typed payload (encoded
/// with WireWriter/WireReader below). request_id is chosen by the client and
/// echoed verbatim on the response, so a client may pipeline requests and
/// match replies out of order. flags and reserved are 0 today and must be
/// written as 0 (receivers ignore them — the forward-compatibility hatch).
constexpr size_t kFrameHeaderBytes = 16;

/// Per-frame payload cap: a header announcing more than this is a protocol
/// violation and the connection is closed (it is either corruption or abuse;
/// no legitimate SGLA message approaches it).
constexpr uint32_t kMaxPayloadBytes = 256u << 20;  // 256 MiB

/// Frame types. Requests are < 64, responses >= 64. kError may answer any
/// request type.
enum class FrameType : uint8_t {
  // Requests.
  kHello = 1,     ///< tenant handshake; optional (default tenant otherwise)
  kRegister = 2,  ///< register a MultiViewGraph under an id
  kUpdate = 3,    ///< apply a GraphDelta to a registered graph
  kSolve = 4,     ///< cluster/embed solve
  kEvict = 5,     ///< evict a graph
  kPing = 6,      ///< liveness no-op
  /// Admin: force a durable checkpoint of one graph now (engines running
  /// with EngineOptions::data_dir; others answer FAILED_PRECONDITION).
  kCheckpoint = 7,
  // Responses.
  kHelloOk = 65,
  kRegisterOk = 66,
  kUpdateOk = 67,
  kSolveOk = 68,
  kEvictOk = 69,
  kPong = 70,
  kCheckpointOk = 71,
  /// Typed failure: payload = [u8 StatusCode][string message]. RESOURCE_
  /// EXHAUSTED is the admission-control rejection the load generator and
  /// clients key retry/backoff behavior on.
  kError = 127,
};

struct FrameHeader {
  uint32_t payload_length = 0;
  FrameType type = FrameType::kPing;
  uint64_t request_id = 0;
};

/// Little-endian fixed-width integers at a raw pointer: the one copy the
/// frame header, WireWriter/WireReader and the persist file headers share.
void PutU32(uint32_t v, uint8_t* out);
void PutU64(uint64_t v, uint8_t* out);
uint32_t GetU32(const uint8_t* in);
uint64_t GetU64(const uint8_t* in);

/// Serializes the 16-byte header into `out[0..15]`.
void EncodeFrameHeader(const FrameHeader& header, uint8_t* out);

/// Parses a header from `in[0..15]`. Returns false (without touching
/// `header`) when the announced payload exceeds kMaxPayloadBytes or the type
/// byte is not a known FrameType — the caller must drop the connection.
bool DecodeFrameHeader(const uint8_t* in, FrameHeader* header);

/// Append-only little-endian payload builder. All multi-byte integers are
/// little-endian; doubles travel as their raw IEEE-754 bit pattern (the
/// protocol's bit-identity guarantee: what the engine computed is what the
/// client reassembles, bit for bit).
class WireWriter {
 public:
  void U8(uint8_t v) { buffer_.push_back(v); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Str(const std::string& s);          ///< u32 length + bytes
  void F64Vec(const std::vector<double>& v);   ///< u64 count + raw doubles
  void I32Vec(const std::vector<int32_t>& v);  ///< u64 count + i32s

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

/// Bounds-checked reader over a received payload. Every accessor returns
/// false on truncation and poisons the reader (ok() goes false and stays
/// false), so decoders can chain reads and check once at the end. A decode
/// that succeeds but leaves trailing bytes is also an error — Finish()
/// enforces exhaustion.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I32(int32_t* v);
  bool I64(int64_t* v);
  bool F64(double* v);
  bool Str(std::string* s);
  bool F64Vec(std::vector<double>* v);
  bool I32Vec(std::vector<int32_t>* v);

  bool ok() const { return ok_; }
  /// True iff every byte was consumed and no read failed.
  bool Finish() const { return ok_ && offset_ == size_; }

  /// Guards count-prefixed containers: a hostile count must not drive a
  /// multi-GiB resize/reserve before the bounds check catches it. Each
  /// element is at least `elem_bytes` on the wire, so count >
  /// remaining/elem_bytes is provably truncated. Poisons the reader on
  /// failure like every other accessor. Decoders that size containers from
  /// a count they read themselves (messages.cc) must call this first.
  bool CheckCount(uint64_t count, size_t elem_bytes);

 private:
  bool Take(size_t n, const uint8_t** out);

  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
  bool ok_ = true;
};

}  // namespace rpc
}  // namespace sgla

#endif  // SGLA_RPC_WIRE_H_
