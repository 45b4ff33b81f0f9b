#ifndef REGCUBE_CORE_SHARD_WRITER_H_
#define REGCUBE_CORE_SHARD_WRITER_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/core/ingest_queue.h"

namespace regcube {

/// The shard-owner thread of the async ingest subsystem: drains one
/// shard's IngestQueue and applies each drained batch through the `absorb`
/// callback. With a writer attached the shard is single-writer — callers
/// only ever touch the queue, and the owner takes the shard mutex once
/// per drained batch, never per tuple. Inside that hold the absorb also
/// *publishes*: the successor generation (only the batch's cells spliced
/// in, sharing their copy-on-write frames) is swapped into the shard's
/// publication pointer, so
/// readers gather from the last published generation without ever taking
/// the mutex — the lock is down to absorb vs. the structural edits
/// (seal, epoch roll, compaction re-pointing). Tilt-frame maintenance,
/// dirty-list bookkeeping and member-index appends all happen here, off
/// the callers' threads.
///
/// `absorb` runs on the owner thread only. It returns how many of the
/// batch's tuples the shard engine accepted plus the first error; the
/// writer acknowledges the batch to the queue either way, which is what
/// lets Flush() terminate even when some tuples were refused (the error is
/// recorded on the queue and surfaced by the next Flush()).
class ShardWriter {
 public:
  struct AbsorbResult {
    std::int64_t absorbed = 0;
    Status status;
  };
  using AbsorbFn =
      std::function<AbsorbResult(const std::vector<StreamTuple>&)>;
  using PostBatchFn = std::function<void()>;

  /// Starts the owner thread immediately. `queue` is not owned and must
  /// outlive Stop()/destruction. `post_batch` (optional) runs on the owner
  /// thread after each batch is absorbed AND acknowledged — off the Flush
  /// critical path, which is where the memory governor's enforcement hook
  /// lives: eviction work never holds up a caller waiting on the queue.
  ShardWriter(IngestQueue* queue, AbsorbFn absorb,
              PostBatchFn post_batch = nullptr);

  /// Stops via Stop() if the owner thread is still running.
  ~ShardWriter();

  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;

  /// Closes the queue, lets the owner drain whatever is already accepted,
  /// and joins the thread. Idempotent. After Stop() the queue rejects new
  /// tuples with FailedPrecondition.
  void Stop();

 private:
  void Loop();

  IngestQueue* queue_;
  AbsorbFn absorb_;
  PostBatchFn post_batch_;
  std::thread thread_;
};

}  // namespace regcube

#endif  // REGCUBE_CORE_SHARD_WRITER_H_
