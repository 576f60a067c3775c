#include "persist/store.h"

#include <dirent.h>
#include <errno.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "persist/checkpoint.h"
#include "rpc/messages.h"
#include "rpc/wire.h"

namespace sgla {
namespace persist {
namespace {

constexpr const char* kWalFileName = "wal.log";

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Status MakeDirs(const std::string& path) {
  // mkdir -p: create each prefix, tolerating the ones that already exist.
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i != path.size() && path[i] != '/') continue;
    const std::string prefix = path.substr(0, i);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Internal("cannot create directory '" + prefix + "': " +
                      ::strerror(errno));
    }
  }
  return OkStatus();
}

}  // namespace

void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* out) {
  rpc::WireWriter w;
  w.U8(static_cast<uint8_t>(record.kind));
  w.U64(record.reg_uid);
  w.Str(record.id);
  w.I64(record.epoch);
  if (record.kind == WalRecord::Kind::kDelta) {
    rpc::EncodeGraphDelta(record.delta, &w);
  }
  *out = w.TakeBuffer();
}

Result<WalRecord> DecodeWalRecord(const uint8_t* data, size_t size) {
  rpc::WireReader r(data, size);
  WalRecord record;
  uint8_t kind = 0;
  if (!r.U8(&kind) || !r.U64(&record.reg_uid) || !r.Str(&record.id) ||
      !r.I64(&record.epoch)) {
    return InvalidArgument("corrupt WAL record header");
  }
  if (kind != static_cast<uint8_t>(WalRecord::Kind::kDelta) &&
      kind != static_cast<uint8_t>(WalRecord::Kind::kEvict)) {
    return InvalidArgument("WAL record has unknown kind " +
                           std::to_string(kind));
  }
  record.kind = static_cast<WalRecord::Kind>(kind);
  if (record.kind == WalRecord::Kind::kDelta &&
      !rpc::DecodeGraphDelta(&r, &record.delta)) {
    return InvalidArgument("corrupt WAL delta payload");
  }
  if (!r.Finish()) {
    return InvalidArgument("trailing bytes after WAL record");
  }
  return record;
}

std::string Store::CheckpointPath(const std::string& id,
                                  uint64_t reg_uid) const {
  return options_.dir + "/" + CheckpointFileName(id, reg_uid);
}

Result<std::unique_ptr<Store>> Store::Open(const StoreOptions& options,
                                           serve::GraphRegistry* registry) {
  if (options.dir.empty()) {
    return InvalidArgument("StoreOptions::dir must not be empty");
  }
  Status made = MakeDirs(options.dir);
  if (!made.ok()) return made;

  std::unique_ptr<Store> store(new Store(options, registry));

  // Pass 1: scan the checkpoint files. The newest registration (highest
  // reg_uid) wins per id; superseded files — a crash can leave the previous
  // registration's file behind — are removed. Any file that fails its CRC
  // or validation is a typed error that fails recovery: silently dropping a
  // graph would serve wrong state. Leftover .tmp files are the torn halves
  // of atomic replaces that never renamed; they hold nothing acknowledged.
  struct FoundCheckpoint {
    CheckpointData data;
    std::string path;
  };
  std::unordered_map<std::string, FoundCheckpoint> newest;
  {
    DIR* dir = ::opendir(options.dir.c_str());
    if (dir == nullptr) {
      return Internal("cannot open data dir '" + options.dir + "': " +
                      ::strerror(errno));
    }
    std::vector<std::string> names;
    for (struct dirent* entry = ::readdir(dir); entry != nullptr;
         entry = ::readdir(dir)) {
      names.emplace_back(entry->d_name);
    }
    ::closedir(dir);
    // Deterministic recovery regardless of directory iteration order.
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      const std::string path = options.dir + "/" + name;
      if (EndsWith(name, ".tmp")) {
        ::unlink(path.c_str());
        continue;
      }
      if (!EndsWith(name, ".sgck")) continue;
      auto loaded = LoadCheckpoint(path);
      if (!loaded.ok()) return loaded.status();
      // Copy the key out before the move: emplace's argument evaluation
      // order is unspecified, so keying on `loaded->id` directly can read
      // the string after the FoundCheckpoint construction moved it out.
      const std::string graph_id = loaded->id;
      auto it = newest.find(graph_id);
      if (it == newest.end()) {
        newest.emplace(graph_id, FoundCheckpoint{std::move(*loaded), path});
        continue;
      }
      if (loaded->reg_uid > it->second.data.reg_uid) {
        ::unlink(it->second.path.c_str());
        it->second = FoundCheckpoint{std::move(*loaded), path};
      } else {
        ::unlink(path.c_str());
      }
    }
  }

  // Pass 2: restore each winner into the registry at its checkpointed
  // epoch/uids/mask. Contradictory state rejects inside Restore.
  for (auto& found : newest) {
    CheckpointData& ck = found.second.data;
    serve::RestoreState state;
    state.epoch = ck.epoch;
    state.view_uids = ck.view_uids;
    state.active = ck.active;
    state.next_view_uid = ck.next_view_uid;
    state.views_signature = ck.views_signature;
    auto entry = registry->Restore(ck.id, ck.mvag, ck.options, state);
    if (!entry.ok()) return entry.status();
    store->graphs_.emplace(
        ck.id, GraphMeta{ck.reg_uid, 0, std::make_shared<std::mutex>()});
    store->next_reg_uid_ =
        std::max(store->next_reg_uid_, ck.reg_uid + 1);
    ++store->recovery_.graphs_recovered;
  }

  // Pass 3: replay the WAL suffix through the ordinary UpdateGraph path.
  WalOpenStats wal_stats;
  Wal::Options wal_options;
  wal_options.fsync = options.fsync;
  auto wal = Wal::Open(
      options.dir + "/" + kWalFileName, wal_options,
      [&store](const uint8_t* payload, size_t size) {
        return store->Replay(payload, size);
      },
      &wal_stats);
  if (!wal.ok()) return wal.status();
  store->wal_ = std::move(*wal);
  store->recovery_.wal_tail_truncated = wal_stats.tail_truncated;
  return store;
}

Status Store::Replay(const uint8_t* payload, size_t size) {
  auto record = DecodeWalRecord(payload, size);
  // The frame CRC already passed, so a record that will not decode is not a
  // torn tail — the log is lying, and recovery must say so, not guess.
  if (!record.ok()) return record.status();

  auto it = graphs_.find(record->id);
  const bool matches =
      it != graphs_.end() && it->second.reg_uid == record->reg_uid;
  if (record->kind == WalRecord::Kind::kEvict) {
    if (!matches) {
      ++recovery_.records_ignored;
      return OkStatus();
    }
    // The pre-crash process evicted but died before unlinking the file.
    registry_->Evict(record->id);
    ::unlink(CheckpointPath(record->id, record->reg_uid).c_str());
    graphs_.erase(it);
    return OkStatus();
  }

  if (!matches) {
    // A record of a registration that was since evicted (its checkpoint is
    // gone) — nothing to apply it to, by design.
    ++recovery_.records_ignored;
    return OkStatus();
  }
  auto current = registry_->Find(record->id);
  if (current == nullptr) {
    return Internal("WAL replay lost graph '" + record->id + "'");
  }
  if (record->epoch <= current->epoch) {
    // The checkpoint already covers this delta (checkpoints do not imply a
    // rotation, so a covered suffix is normal).
    ++recovery_.duplicates_skipped;
    return OkStatus();
  }
  if (record->epoch != current->epoch + 1) {
    return Internal("WAL epoch gap for graph '" + record->id + "': at epoch " +
                    std::to_string(current->epoch) + ", next record is " +
                    std::to_string(record->epoch));
  }
  auto applied = registry_->UpdateGraph(record->id, record->delta);
  if (!applied.ok()) {
    return Internal("WAL replay failed for graph '" + record->id +
                    "' at epoch " + std::to_string(record->epoch) + ": " +
                    applied.status().ToString());
  }
  if ((*applied)->epoch != record->epoch) {
    return Internal("WAL replay de-synchronized on graph '" + record->id +
                    "': expected epoch " + std::to_string(record->epoch) +
                    ", registry is at " + std::to_string((*applied)->epoch));
  }
  ++it->second.pending;
  ++recovery_.deltas_replayed;
  return OkStatus();
}

Result<Store::Locked> Store::Lock(const std::string& id) {
  Locked locked;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it == graphs_.end()) {
      if (registry_->Find(id) == nullptr) {
        return NotFound("graph '" + id + "' is not registered");
      }
      return FailedPrecondition(
          "graph '" + id +
          "' is not tracked by the data directory (registered straight on "
          "the registry); evict it there and register it durably");
    }
    locked.order = it->second.order;
    locked.reg_uid = it->second.reg_uid;
  }
  locked.lock = std::unique_lock<std::mutex>(*locked.order);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(id);
  if (it == graphs_.end() || it->second.reg_uid != locked.reg_uid) {
    return NotFound("graph '" + id +
                    "' was evicted or replaced while waiting for its lock");
  }
  return locked;
}

Result<std::shared_ptr<const serve::GraphEntry>> Store::Register(
    const std::string& id, const core::MultiViewGraph& mvag,
    const serve::RegisterOptions& options) {
  // The new registration's lock is held from before the registry publishes
  // it until its checkpoint is durable: an Update, Evict or Checkpoint that
  // finds the id meanwhile waits, then sees either the durable
  // registration or none.
  auto order = std::make_shared<std::mutex>();
  std::lock_guard<std::mutex> order_lock(*order);
  uint64_t reg_uid = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (graphs_.count(id) != 0) {
      return FailedPrecondition("graph '" + id +
                                "' is already registered (evict it first)");
    }
    reg_uid = next_reg_uid_++;
    graphs_.emplace(id, GraphMeta{reg_uid, 0, order});
  }
  auto entry = registry_->Register(id, mvag, options);
  Status saved = entry.status();
  if (entry.ok()) {
    CheckpointData ck;
    ck.id = id;
    ck.reg_uid = reg_uid;
    ck.epoch = (*entry)->epoch;
    ck.options = options;
    ck.next_view_uid = (*entry)->views.size() + 1;
    ck.view_uids = (*entry)->view_uids;
    ck.active = (*entry)->active;
    ck.views_signature = (*entry)->views_signature;
    ck.mvag = mvag;
    saved = SaveCheckpoint(ck, CheckpointPath(id, reg_uid));
    // Registration is durable or it did not happen: roll back the registry
    // rather than serve a graph a restart would forget.
    if (!saved.ok()) registry_->Evict(id);
  }
  if (!saved.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    graphs_.erase(id);
    return saved;
  }
  return entry;
}

Result<std::shared_ptr<const serve::GraphEntry>> Store::Update(
    const std::string& id, const serve::GraphDelta& delta) {
  // Applying the delta and enqueueing its record happen under the
  // registration's lock, so the log's per-graph record order is the epoch
  // order replay requires. The durable wait happens outside it — that is
  // where cross-thread group commits form.
  auto locked = Lock(id);
  if (!locked.ok()) return locked.status();
  auto entry = registry_->UpdateGraph(id, delta);
  if (!entry.ok() || delta.empty()) return entry;  // empty: nothing to log

  WalRecord record;
  record.kind = WalRecord::Kind::kDelta;
  record.reg_uid = locked->reg_uid;
  record.id = id;
  record.epoch = (*entry)->epoch;
  record.delta = delta;
  std::vector<uint8_t> payload;
  EncodeWalRecord(record, &payload);
  Result<uint64_t> ticket = Status(StatusCode::kInternal, "unset");
  int64_t pending_now = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ticket = wal_->Enqueue(payload);
    if (ticket.ok()) pending_now = ++graphs_[id].pending;
  }
  locked->lock.unlock();
  if (!ticket.ok()) return ticket.status();
  Status durable = wal_->Wait(*ticket);
  if (!durable.ok()) return durable;

  if (options_.checkpoint_interval > 0 &&
      pending_now >= options_.checkpoint_interval) {
    // Compaction is best-effort: the deltas are already durable in the log,
    // and a failed checkpoint leaves `pending` high so the next update
    // retries.
    Checkpoint(id);
  }
  return entry;
}

bool Store::Evict(const std::string& id) {
  auto locked = Lock(id);
  if (!locked.ok()) return false;
  registry_->Evict(id);
  WalRecord record;
  record.kind = WalRecord::Kind::kEvict;
  record.reg_uid = locked->reg_uid;
  record.id = id;
  std::vector<uint8_t> payload;
  EncodeWalRecord(record, &payload);
  Result<uint64_t> ticket = Status(StatusCode::kInternal, "unset");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ticket = wal_->Enqueue(payload);
    graphs_.erase(id);
  }
  locked->lock.unlock();
  // The record lands before the unlink: a crash between the two replays the
  // evict and removes the file then. A sticky WAL error leaves the stale
  // checkpoint behind — recovery then resurrects an evicted graph, which is
  // the conservative failure (never loses data, and the WAL is already
  // refusing all writes loudly).
  if (ticket.ok() && wal_->Wait(*ticket).ok()) {
    ::unlink(CheckpointPath(id, locked->reg_uid).c_str());
  }
  return true;
}

Result<int64_t> Store::Checkpoint(const std::string& id) {
  // Under the registration's lock no record of this graph can be enqueued
  // and no evict can run, so the snapshot covers every record counted in
  // `pending` and the file cannot outlive an evict.
  auto locked = Lock(id);
  if (!locked.ok()) return locked.status();
  auto snapshot = registry_->SnapshotSource(id);
  if (!snapshot.ok()) return snapshot.status();

  CheckpointData ck;
  ck.id = id;
  ck.reg_uid = locked->reg_uid;
  ck.epoch = snapshot->entry->epoch;
  ck.options = snapshot->options;
  ck.next_view_uid = snapshot->next_view_uid;
  ck.view_uids = snapshot->entry->view_uids;
  ck.active = snapshot->entry->active;
  ck.views_signature = snapshot->entry->views_signature;
  ck.mvag = std::move(snapshot->mvag);
  Status saved = SaveCheckpoint(ck, CheckpointPath(id, locked->reg_uid));
  if (!saved.ok()) return saved;

  std::lock_guard<std::mutex> lock(mutex_);
  graphs_[id].pending = 0;
  bool all_covered = true;
  for (const auto& graph : graphs_) {
    all_covered = all_covered && graph.second.pending == 0;
  }
  if (all_covered) {
    // Every tracked graph's records are inside some checkpoint; the log is
    // pure history. Enqueue also runs under mutex_, so nothing can slip in
    // while Rotate drains and truncates (its contract).
    wal_->Rotate();
  }
  return ck.epoch;
}

}  // namespace persist
}  // namespace sgla
