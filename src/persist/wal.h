#ifndef SGLA_PERSIST_WAL_H_
#define SGLA_PERSIST_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/status.h"

namespace sgla {
namespace persist {

/// Self-contained IEEE CRC32 (reflected, polynomial 0xEDB88320) — the frame
/// checksum of WAL records and checkpoint payloads. No zlib dependency.
uint32_t Crc32(const uint8_t* data, size_t size);

/// A read-only scan of one log file: its bytes, and the CRC-valid frames of
/// its prefix.
struct WalScan {
  std::vector<uint8_t> bytes;  ///< the whole file
  /// False when the file is shorter than the 16-byte header: a fresh log, or
  /// a crash that tore the header write itself.
  bool has_header = false;
  /// Payload offset into `bytes` and payload length of each valid record,
  /// in append order.
  std::vector<std::pair<size_t, uint32_t>> records;
  /// End of the valid prefix; bytes past it are the torn tail.
  size_t valid_bytes = 0;
};

/// Reads the file open at `fd` (named `path`, for messages) from offset 0
/// and scans it the way Wal::Open does, changing nothing: the first frame
/// that is short, oversized, or fails its CRC ends the valid prefix. A bad
/// magic or version is InvalidArgument — the log identity itself is gone —
/// and a failed read is Internal. Wal::Open keeps exactly the valid prefix
/// and replays `records`; sgla_walcat prints them.
Result<WalScan> ScanWal(int fd, const std::string& path);

/// What the startup scan found in an existing log.
struct WalOpenStats {
  size_t records = 0;           ///< valid records replayed
  bool tail_truncated = false;  ///< a torn/corrupt tail was cut off
  uint64_t truncated_bytes = 0;
};

/// Group-committed, CRC-framed append-only log.
///
/// On disk:
///
///   [u64 magic][u32 version][u32 reserved]          file header, 16 bytes
///   [u32 len][u32 crc32(payload)][payload] ...      one frame per record
///
/// Append() is durable when it returns: appenders enqueue their encoded
/// frame under the log mutex and block until the background committer thread
/// has written AND fsynced a batch covering it. The committer drains
/// everything enqueued while the previous batch was in flight in one
/// write+fsync — that is the group commit: N appenders racing a slow fsync
/// pay one fsync, not N (fsyncs() exposes the batching for tests).
///
/// Open() scans an existing log record by record (ScanWal). The first frame
/// that is short, oversized, or fails its CRC ends the valid prefix:
/// everything before it replays through the callback, everything from it on
/// is truncated off (a torn tail is exactly the bytes of appends that never
/// returned, so cutting them loses nothing that was acknowledged). A file
/// whose *header* is corrupt is a typed error, not a truncation — the log
/// identity itself is gone and silently starting fresh could serve wrong
/// state.
class Wal {
 public:
  struct Options {
    /// fsync each commit batch (default). False trades crash durability for
    /// speed — tests and tooling only; the serving path keeps it on.
    bool fsync = true;
  };

  /// Opens (creating if absent) the log at `path`, replays every valid
  /// record through `replay` in append order, truncates the torn tail if
  /// any, and starts the committer. A `replay` failure aborts the open with
  /// that status (the caller's recovery is wrong, not the log).
  static Result<std::unique_ptr<Wal>> Open(
      const std::string& path, const Options& options,
      const std::function<Status(const uint8_t* payload, size_t size)>& replay,
      WalOpenStats* stats);

  /// Drains pending appends (committing them) and stops the committer.
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Durable group-committed append: Enqueue + Wait.
  Status Append(const std::vector<uint8_t>& payload);

  /// Split form, for callers that must fix the record order under their own
  /// lock but want batches to form across that lock: Enqueue under it, Wait
  /// outside it. The ticket orders the record among all appends.
  Result<uint64_t> Enqueue(const std::vector<uint8_t>& payload);
  Status Wait(uint64_t ticket);

  /// Truncates the log back to an empty header, after a checkpoint has made
  /// every record redundant. The caller must guarantee no concurrent
  /// Enqueue/Append (the Store holds its own lock across the covered-by-
  /// checkpoint check and this call); in-flight batches are drained first.
  Status Rotate();

  /// Records accepted by Enqueue since open (excludes replayed ones).
  uint64_t records_appended() const;
  /// Commit batches flushed — the group-commit observable: under concurrent
  /// appenders this stays well below records_appended().
  uint64_t commits() const;

 private:
  explicit Wal(int fd, bool fsync);
  void CommitterLoop();
  Status WriteBatch(const std::vector<uint8_t>& batch);

  const int fd_;
  const bool fsync_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;     ///< wakes the committer
  std::condition_variable durable_cv_;  ///< wakes appenders and Rotate
  std::vector<uint8_t> pending_;        ///< encoded frames awaiting commit
  uint64_t enqueued_ = 0;               ///< tickets handed out
  uint64_t durable_ = 0;                ///< highest ticket on stable storage
  uint64_t records_appended_ = 0;
  uint64_t commits_ = 0;
  Status io_error_;  ///< sticky: a failed write fails every later append
  bool stop_ = false;
  std::thread committer_;
};

}  // namespace persist
}  // namespace sgla

#endif  // SGLA_PERSIST_WAL_H_
