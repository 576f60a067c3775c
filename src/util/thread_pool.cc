#include "util/thread_pool.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>

namespace sgla {
namespace util {
namespace {

thread_local bool tls_in_parallel = false;

std::mutex g_global_mutex;
ThreadPool* g_global_pool = nullptr;  // leaked: outlives static destructors

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int64_t ThreadPool::NumChunks(int64_t begin, int64_t end, int64_t grain) {
  if (end <= begin) return 0;
  const int64_t g = std::max<int64_t>(1, grain);
  return (end - begin + g - 1) / g;
}

void ThreadPool::RunChunk(int64_t chunk) {
  const int64_t lo = job_begin_ + chunk * job_grain_;
  const int64_t hi = std::min(job_end_, lo + job_grain_);
  job_fn_(job_ctx_, chunk, lo, hi);
}

// Claims and runs chunks of the current job until none remain or the epoch
// moves on (a stale worker waking after its job finished must not touch the
// next job's counter). Chunks are coarse by design, so claiming under the
// mutex costs nothing measurable and keeps the protocol race-free.
void ThreadPool::DrainJob(uint64_t my_epoch) {
  const bool was_inside = tls_in_parallel;
  tls_in_parallel = true;
  std::unique_lock<std::mutex> lock(mutex_);
  while (epoch_ == my_epoch && job_next_chunk_ < job_chunks_) {
    const int64_t c = job_next_chunk_++;
    lock.unlock();
    RunChunk(c);
    lock.lock();
    if (++job_completed_ == job_chunks_) done_cv_.notify_all();
  }
  lock.unlock();
  tls_in_parallel = was_inside;
}

void ThreadPool::RunChunked(int64_t begin, int64_t end, int64_t grain,
                            RawChunkFn fn, void* ctx) {
  const int64_t g = std::max<int64_t>(1, grain);
  const int64_t chunks = NumChunks(begin, end, g);
  if (chunks == 0) return;
  if (chunks == 1 || num_threads_ == 1 || tls_in_parallel) {
    // Serial fallback: same partition, ascending chunk order, so reductions
    // merged by chunk index get the same bits as any parallel schedule.
    // tls_in_parallel is deliberately NOT set here: only DrainJob marks real
    // worker-chunk execution. A top-level caller running inline holds no
    // pool state, so kernels nested under it (e.g. KnnGraph beneath a
    // single-view ComputeViewLaplacians) stay free to parallelize.
    for (int64_t c = 0; c < chunks; ++c) {
      fn(ctx, c, begin + c * g, std::min(end, begin + (c + 1) * g));
    }
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  uint64_t my_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_fn_ = fn;
    job_ctx_ = ctx;
    job_begin_ = begin;
    job_end_ = end;
    job_grain_ = g;
    job_chunks_ = chunks;
    job_completed_ = 0;
    job_next_chunk_ = 0;
    my_epoch = ++epoch_;
  }
  wake_cv_.notify_all();

  DrainJob(my_epoch);  // the caller works alongside the pool

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return job_completed_ == job_chunks_; });
  job_fn_ = nullptr;
  job_ctx_ = nullptr;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_cv_.wait(lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
    }
    DrainJob(seen_epoch);
  }
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel; }

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw == 0 ? 1 : static_cast<int>(hw);
  if (const char* env = std::getenv("SGLA_THREADS")) {
    char* parse_end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &parse_end, 10);
    // A valid override consumes the whole string and is a positive count.
    // Anything else (non-numeric, trailing junk, zero, negative, overflow)
    // is a configuration mistake: warn loudly and fall back instead of
    // silently running with a nonsense pool size.
    const bool parsed =
        parse_end != env && *parse_end == '\0' && errno == 0;
    if (parsed && v >= 1) {
      return static_cast<int>(std::min<long>(v, 1024));
    }
    std::cerr << "[SGLA WARNING] SGLA_THREADS='" << env
              << "' is not a positive integer; falling back to "
                 "hardware_concurrency() = "
              << fallback << std::endl;
  }
  return fallback;
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (g_global_pool == nullptr) {
    g_global_pool = new ThreadPool(DefaultThreads());
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  delete g_global_pool;  // drains and joins the old workers
  g_global_pool = new ThreadPool(num_threads);
}

}  // namespace util
}  // namespace sgla
