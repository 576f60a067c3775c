#ifndef SGLA_UTIL_THREAD_POOL_H_
#define SGLA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace sgla {
namespace util {

/// Persistent worker pool for deterministic data parallelism.
///
/// Work is always split into fixed chunks of `grain` iterations — the
/// partition depends only on (begin, end, grain), never on the thread count
/// or on scheduling. Kernels that reduce (k-means accumulation, inertia)
/// keep one accumulator per *chunk* and merge them in chunk-index order, so
/// their results are bit-identical at any thread count, run after run.
/// Kernels whose chunks write disjoint outputs (SpMV rows, aggregate slots)
/// are bit-identical to the serial loop by construction.
///
/// The calling thread participates in every job. Nested ParallelFor calls
/// (a kernel invoked from inside a worker) run inline on the caller, in
/// chunk order — same partition, same bits, no deadlock.
///
/// Dispatch is allocation-free: callables are published to the workers as a
/// raw trampoline + context pointer (the caller's stack frame outlives the
/// job, which is fully drained before ParallelFor returns), never wrapped in
/// std::function. This is what lets the engine layer promise zero-allocation
/// steady-state objective evaluations even with the pool running wide.
class ThreadPool {
 public:
  /// Trampoline signature jobs are published with: (ctx, chunk, lo, hi).
  using RawChunkFn = void (*)(void*, int64_t, int64_t, int64_t);

  /// `num_threads` <= 1 means fully serial (no workers are spawned).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Number of chunks the range [begin, end) splits into at `grain`.
  static int64_t NumChunks(int64_t begin, int64_t end, int64_t grain);

  /// Runs fn(chunk, chunk_begin, chunk_end) for every chunk of [begin, end);
  /// blocks until all chunks finish. Chunk c covers
  /// [begin + c*grain, min(end, begin + (c+1)*grain)).
  template <typename Fn>
  void ParallelForChunks(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
    using F = typename std::remove_reference<Fn>::type;
    RunChunked(begin, end, grain,
               [](void* ctx, int64_t chunk, int64_t lo, int64_t hi) {
                 (*static_cast<F*>(ctx))(chunk, lo, hi);
               },
               const_cast<void*>(static_cast<const volatile void*>(
                   std::addressof(fn))));
  }

  /// Chunked loop without the chunk index (for kernels that don't reduce).
  template <typename Fn>
  void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
    using F = typename std::remove_reference<Fn>::type;
    RunChunked(begin, end, grain,
               [](void* ctx, int64_t, int64_t lo, int64_t hi) {
                 (*static_cast<F*>(ctx))(lo, hi);
               },
               const_cast<void*>(static_cast<const volatile void*>(
                   std::addressof(fn))));
  }

  /// True while the current thread is executing inside a ParallelFor chunk;
  /// a ParallelFor issued now would run inline (serially).
  static bool InParallelRegion();

  /// Process-wide pool. Sized by the SGLA_THREADS environment variable when
  /// set to a valid positive integer, else by
  /// std::thread::hardware_concurrency(); malformed values (non-numeric,
  /// zero, negative, trailing junk) log a warning and fall back.
  static ThreadPool& Global();

  /// Thread count Global() would use on first construction.
  static int DefaultThreads();

  /// Replaces the global pool (tests / benches sweep thread counts with
  /// this). Must not be called while kernels are running on the old pool.
  static void SetGlobalThreads(int num_threads);

 private:
  /// Monomorphic core of ParallelFor(Chunks): publishes (fn, ctx) to the
  /// workers, drains alongside them, and blocks until every chunk finished.
  void RunChunked(int64_t begin, int64_t end, int64_t grain, RawChunkFn fn,
                  void* ctx);
  void WorkerLoop();
  void RunChunk(int64_t chunk);
  void DrainJob(uint64_t my_epoch);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex submit_mutex_;  ///< serializes whole jobs across callers

  std::mutex mutex_;  ///< guards the job fields and both condition variables
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  uint64_t epoch_ = 0;  ///< bumped when a job is published

  RawChunkFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  int64_t job_begin_ = 0;
  int64_t job_grain_ = 1;
  int64_t job_end_ = 0;
  int64_t job_chunks_ = 0;
  int64_t job_completed_ = 0;   ///< chunks finished (under mutex_)
  int64_t job_next_chunk_ = 0;  ///< next chunk to claim (under mutex_)
};

}  // namespace util
}  // namespace sgla

#endif  // SGLA_UTIL_THREAD_POOL_H_
