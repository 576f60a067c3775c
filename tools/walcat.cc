// WAL / checkpoint inspector: prints every record of a delta WAL and the
// header of every checkpoint file in a persist data directory, for debugging
// crash-recovery issues from the artifacts CI uploads on a gate failure.
//
// The scan is strictly read-only — it runs persist::ScanWal, the scan
// persist::Wal::Open runs before it truncates a torn tail, and reports where
// the valid prefix ends, so running it on a live or crashed directory
// changes nothing.
//
// Usage: sgla_walcat <data-dir | wal-file | checkpoint.sgck> ...
#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "persist/checkpoint.h"
#include "persist/store.h"
#include "persist/wal.h"

namespace sgla {
namespace {

void PrintDeltaSummary(const serve::GraphDelta& delta) {
  size_t upserts = 0, removals = 0;
  for (const serve::GraphViewDelta& gv : delta.graph_views) {
    upserts += gv.upserts.size();
    removals += gv.removals.size();
  }
  std::printf("edits{views=%zu upserts=%zu removals=%zu rows=%zu}",
              delta.graph_views.size(), upserts, removals,
              delta.attribute_rows.size());
  if (delta.has_lifecycle()) {
    std::printf(" lifecycle{add=%zu remove=%zu mask=%zu unmask=%zu}",
                delta.add_views.size(), delta.remove_views.size(),
                delta.mask_views.size(), delta.unmask_views.size());
  }
}

int CatWal(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    std::fprintf(stderr, "%s: cannot read\n", path.c_str());
    return 1;
  }
  auto scan = persist::ScanWal(fd, path);
  ::close(fd);
  if (!scan.ok()) {
    std::printf("== wal %s\n   INVALID: %s\n", path.c_str(),
                scan.status().ToString().c_str());
    return 1;
  }
  const std::vector<uint8_t>& bytes = scan->bytes;
  std::printf("== wal %s (%zu bytes)\n", path.c_str(), bytes.size());
  if (!scan->has_header) {
    std::printf("   empty/short file: no header\n");
    return bytes.empty() ? 0 : 1;
  }

  for (size_t index = 0; index < scan->records.size(); ++index) {
    const size_t offset = scan->records[index].first;
    const uint32_t length = scan->records[index].second;
    auto record = persist::DecodeWalRecord(bytes.data() + offset, length);
    if (!record.ok()) {
      // CRC passed but the payload does not decode — a writer bug, not a
      // torn append. Keep scanning so the rest of the log is still visible.
      std::printf("[%zu] UNDECODABLE (%u bytes): %s\n", index, length,
                  record.status().ToString().c_str());
    } else if (record->kind == persist::WalRecord::Kind::kEvict) {
      std::printf("[%zu] evict  id=%s reg_uid=%" PRIu64 "\n", index,
                  record->id.c_str(), record->reg_uid);
    } else {
      std::printf("[%zu] delta  id=%s reg_uid=%" PRIu64 " epoch=%" PRId64 " ",
                  index, record->id.c_str(), record->reg_uid, record->epoch);
      PrintDeltaSummary(record->delta);
      std::printf("\n");
    }
  }
  if (scan->valid_bytes < bytes.size()) {
    std::printf("   torn tail: %zu valid record(s), %zu trailing byte(s) at "
                "offset %zu fail the frame check\n",
                scan->records.size(), bytes.size() - scan->valid_bytes,
                scan->valid_bytes);
  } else {
    std::printf("   %zu record(s), clean tail\n", scan->records.size());
  }
  return 0;
}

int CatCheckpoint(const std::string& path) {
  auto data = persist::LoadCheckpoint(path);
  std::printf("== checkpoint %s\n", path.c_str());
  if (!data.ok()) {
    std::printf("   INVALID: %s\n", data.status().ToString().c_str());
    return 1;
  }
  size_t active = 0;
  for (const bool a : data->active) active += a ? 1 : 0;
  std::printf("   id=%s reg_uid=%" PRIu64 " epoch=%" PRId64
              " nodes=%" PRId64 " views=%zu active=%zu"
              " next_view_uid=%" PRIu64 " signature=%016" PRIx64 "\n",
              data->id.c_str(), data->reg_uid, data->epoch,
              data->mvag.num_nodes(), data->view_uids.size(), active,
              data->next_view_uid, data->views_signature);
  std::printf("   options: coarsen_ratio=%g robust=%d knn{k=%d "
              "seed=%" PRIu64 "}\n",
              data->options.coarsen_ratio,
              data->options.robust_views ? 1 : 0, data->options.knn.k,
              static_cast<uint64_t>(data->options.knn.seed));
  return 0;
}

int CatPath(const std::string& path);

int CatDir(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    std::fprintf(stderr, "%s: cannot open directory\n", dir.c_str());
    return 1;
  }
  std::vector<std::string> names;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  int status = 0;
  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    const bool checkpoint =
        name.size() > 5 && name.compare(name.size() - 5, 5, ".sgck") == 0;
    if (checkpoint) {
      status |= CatCheckpoint(path);
    } else if (name == "wal.log") {
      status |= CatWal(path);
    } else {
      std::printf("== %s (skipped: not a WAL or checkpoint)\n", path.c_str());
    }
  }
  return status;
}

int CatPath(const std::string& path) {
  DIR* d = opendir(path.c_str());
  if (d != nullptr) {
    closedir(d);
    return CatDir(path);
  }
  if (path.size() > 5 && path.compare(path.size() - 5, 5, ".sgck") == 0) {
    return CatCheckpoint(path);
  }
  return CatWal(path);
}

}  // namespace
}  // namespace sgla

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: sgla_walcat <data-dir | wal-file | file.sgck> ...\n");
    return 2;
  }
  int status = 0;
  for (int i = 1; i < argc; ++i) status |= sgla::CatPath(argv[i]);
  return status;
}
