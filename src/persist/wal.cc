#include "persist/wal.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <utility>

#include "rpc/wire.h"

namespace sgla {
namespace persist {
namespace {

using rpc::GetU32;
using rpc::GetU64;
using rpc::PutU32;
using rpc::PutU64;

constexpr uint64_t kWalMagic = 0x53474c4177616c31ull;  // "SGLAwal1"
constexpr uint32_t kWalVersion = 1;
constexpr size_t kHeaderBytes = 16;
constexpr size_t kFrameBytes = 8;  // u32 len + u32 crc
/// A record announcing more than this is corruption, not data: no SGLA
/// delta approaches it (mirrors rpc::kMaxPayloadBytes).
constexpr uint32_t kMaxRecordBytes = 256u << 20;

Status WriteAll(int fd, const uint8_t* data, size_t size,
                const char* what) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Internal(std::string(what) + ": write failed: " +
                      ::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

Status ReadWhole(int fd, std::vector<uint8_t>* out) {
  out->clear();
  if (::lseek(fd, 0, SEEK_SET) < 0) {
    return Internal(std::string("WAL seek failed: ") + ::strerror(errno));
  }
  uint8_t buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Internal(std::string("WAL read failed: ") + ::strerror(errno));
    }
    if (n == 0) return OkStatus();
    out->insert(out->end(), buffer, buffer + n);
  }
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  static const uint32_t* const kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Result<WalScan> ScanWal(int fd, const std::string& path) {
  WalScan scan;
  Status read = ReadWhole(fd, &scan.bytes);
  if (!read.ok()) return read;
  const std::vector<uint8_t>& bytes = scan.bytes;
  if (bytes.size() < kHeaderBytes) return scan;
  if (GetU64(bytes.data()) != kWalMagic) {
    return InvalidArgument("WAL '" + path + "' has a bad magic number");
  }
  if (GetU32(bytes.data() + 8) != kWalVersion) {
    return InvalidArgument("WAL '" + path + "' has unsupported version " +
                           std::to_string(GetU32(bytes.data() + 8)));
  }
  scan.has_header = true;
  size_t offset = kHeaderBytes;
  while (offset + kFrameBytes <= bytes.size()) {
    const uint32_t length = GetU32(bytes.data() + offset);
    const uint32_t crc = GetU32(bytes.data() + offset + 4);
    if (length > kMaxRecordBytes) break;
    if (offset + kFrameBytes + length > bytes.size()) break;
    if (Crc32(bytes.data() + offset + kFrameBytes, length) != crc) break;
    scan.records.emplace_back(offset + kFrameBytes, length);
    offset += kFrameBytes + length;
  }
  scan.valid_bytes = offset;
  return scan;
}

Wal::Wal(int fd, bool fsync) : fd_(fd), fsync_(fsync) {
  committer_ = std::thread([this] { CommitterLoop(); });
}

Result<std::unique_ptr<Wal>> Wal::Open(
    const std::string& path, const Options& options,
    const std::function<Status(const uint8_t*, size_t)>& replay,
    WalOpenStats* stats) {
  WalOpenStats local;
  if (stats == nullptr) stats = &local;
  *stats = WalOpenStats();

  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Internal("cannot open WAL '" + path + "': " + ::strerror(errno));
  }
  auto scan = ScanWal(fd, path);
  if (!scan.ok()) {
    ::close(fd);
    return scan.status();
  }
  const std::vector<uint8_t>& bytes = scan->bytes;

  if (!scan->has_header) {
    // Empty (fresh) log, or a crash tore the initial header write itself —
    // nothing could have been acknowledged yet, so start clean.
    stats->tail_truncated = !bytes.empty();
    stats->truncated_bytes = bytes.size();
    uint8_t header[kHeaderBytes];
    PutU64(kWalMagic, header);
    PutU32(kWalVersion, header + 8);
    PutU32(0, header + 12);
    if (::ftruncate(fd, 0) != 0 ||
        ::lseek(fd, 0, SEEK_SET) < 0) {
      ::close(fd);
      return Internal("cannot reset WAL '" + path + "': " +
                      ::strerror(errno));
    }
    Status wrote = WriteAll(fd, header, kHeaderBytes, "WAL header");
    if (wrote.ok() && options.fsync && ::fsync(fd) != 0) {
      wrote = Internal("WAL header fsync failed: " +
                       std::string(::strerror(errno)));
    }
    if (!wrote.ok()) {
      ::close(fd);
      return wrote;
    }
    return std::unique_ptr<Wal>(new Wal(fd, options.fsync));
  }

  // The valid prefix replays; the first bad frame and everything after it
  // is the torn tail and truncates off.
  const size_t good = scan->valid_bytes;
  if (good < bytes.size()) {
    stats->tail_truncated = true;
    stats->truncated_bytes = bytes.size() - good;
    if (::ftruncate(fd, static_cast<off_t>(good)) != 0) {
      ::close(fd);
      return Internal("cannot truncate WAL tail of '" + path + "': " +
                      ::strerror(errno));
    }
    if (options.fsync && ::fsync(fd) != 0) {
      ::close(fd);
      return Internal("WAL truncate fsync failed: " +
                      std::string(::strerror(errno)));
    }
  }
  if (::lseek(fd, static_cast<off_t>(good), SEEK_SET) < 0) {
    ::close(fd);
    return Internal("cannot seek WAL '" + path + "': " + ::strerror(errno));
  }

  for (const auto& record : scan->records) {
    Status replayed = replay(bytes.data() + record.first, record.second);
    if (!replayed.ok()) {
      ::close(fd);
      return replayed;
    }
    ++stats->records;
  }
  return std::unique_ptr<Wal>(new Wal(fd, options.fsync));
}

Wal::~Wal() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  committer_.join();  // drains pending_ first (see CommitterLoop)
  ::close(fd_);
}

Status Wal::WriteBatch(const std::vector<uint8_t>& batch) {
  Status wrote = WriteAll(fd_, batch.data(), batch.size(), "WAL");
  if (!wrote.ok()) return wrote;
  if (fsync_ && ::fsync(fd_) != 0) {
    return Internal("WAL fsync failed: " + std::string(::strerror(errno)));
  }
  return OkStatus();
}

void Wal::CommitterLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
    // Everything enqueued so far commits as one batch: one write, one
    // fsync, however many appenders piled up behind the previous batch.
    std::vector<uint8_t> batch;
    batch.swap(pending_);
    const uint64_t high = enqueued_;
    lock.unlock();
    Status wrote = WriteBatch(batch);
    lock.lock();
    if (!wrote.ok() && io_error_.ok()) io_error_ = wrote;
    durable_ = high;
    ++commits_;
    durable_cv_.notify_all();
  }
}

Result<uint64_t> Wal::Enqueue(const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxRecordBytes) {
    return InvalidArgument("WAL record exceeds the size cap");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!io_error_.ok()) return io_error_;
  uint8_t frame[kFrameBytes];
  PutU32(static_cast<uint32_t>(payload.size()), frame);
  PutU32(Crc32(payload.data(), payload.size()), frame + 4);
  pending_.insert(pending_.end(), frame, frame + kFrameBytes);
  pending_.insert(pending_.end(), payload.begin(), payload.end());
  ++records_appended_;
  const uint64_t ticket = ++enqueued_;
  work_cv_.notify_one();
  return ticket;
}

Status Wal::Wait(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mutex_);
  durable_cv_.wait(lock, [this, ticket] {
    return durable_ >= ticket || !io_error_.ok();
  });
  return io_error_;
}

Status Wal::Append(const std::vector<uint8_t>& payload) {
  auto ticket = Enqueue(payload);
  if (!ticket.ok()) return ticket.status();
  return Wait(*ticket);
}

Status Wal::Rotate() {
  std::unique_lock<std::mutex> lock(mutex_);
  durable_cv_.wait(lock, [this] {
    return (pending_.empty() && durable_ == enqueued_) || !io_error_.ok();
  });
  if (!io_error_.ok()) return io_error_;
  // Quiescent (the caller excludes new appends): the committer holds no
  // in-flight batch, so the fd is ours to truncate and reposition.
  if (::ftruncate(fd_, static_cast<off_t>(kHeaderBytes)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(kHeaderBytes), SEEK_SET) < 0) {
    io_error_ = Internal("WAL rotate failed: " +
                         std::string(::strerror(errno)));
    return io_error_;
  }
  if (fsync_ && ::fsync(fd_) != 0) {
    io_error_ = Internal("WAL rotate fsync failed: " +
                         std::string(::strerror(errno)));
    return io_error_;
  }
  return OkStatus();
}

uint64_t Wal::records_appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_appended_;
}

uint64_t Wal::commits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return commits_;
}

}  // namespace persist
}  // namespace sgla
