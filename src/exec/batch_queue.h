#ifndef SES_EXEC_BATCH_QUEUE_H_
#define SES_EXEC_BATCH_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/time.h"
#include "event/event.h"

namespace ses::exec {

/// A unit of work handed from the ingest thread to a shard worker of the
/// parallel partitioned runtime (see exec/parallel_partitioned.h).
struct EventBatch {
  enum class Kind {
    kEvents,  // process `events`, then run the eviction sweep
    kFlush,   // flush every partition, then acknowledge
    kSync,    // acknowledge without touching any state (checkpoint quiesce)
    kReset,   // drop all partitions, matches, and stats, then acknowledge
    kStop,    // exit the worker loop
  };

  Kind kind = Kind::kEvents;
  std::vector<Event> events;
  /// Shards never see the full stream, so the ingest thread stamps every
  /// kEvents batch with a watermark; the receiving shard uses it to detect
  /// idle partitions. It is the batch's own newest timestamp — never ahead
  /// of events a later batch of the same slab still carries, which is what
  /// makes the eviction sweep safe. Control batches leave it unset:
  /// workers read it only on kEvents.
  Timestamp watermark = 0;
};

/// Bounded FIFO of work items between a producer thread and one consumer
/// (mutex + two condition variables). Push blocks while the queue is at
/// capacity, bounding the memory held by a slow consumer; Pop blocks while
/// it is empty. The queue mutex also provides the happens-before edge that
/// lets the producer read consumer-owned state after a barrier item has
/// been acknowledged.
///
/// Two consumers sit on this primitive: the parallel runtime's shard
/// workers (one BatchQueue of EventBatches per shard) and the network
/// server's per-connection ingest queues (net/server.h), which use
/// TryPush to turn "queue full" into an explicit Busy response instead of
/// blocking the connection's reader thread.
///
/// Close() is the shutdown signal: it wakes every thread blocked in
/// Push/PushAll/Pop so neither side can deadlock when the other exits
/// early. After Close, producers see `false` from Push/PushAll/TryPush
/// (the items are discarded) and consumers drain the remaining queue, then
/// see std::nullopt from Pop.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns true once the item is
  /// enqueued; false if the queue was closed first (the item is dropped).
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || queue_.size() < capacity_; });
    if (closed_) return false;
    queue_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking admission: enqueues and returns true when there is room,
  /// returns false — without waiting — when the queue is at capacity or
  /// closed (the item is dropped either way; check closed() to tell the
  /// cases apart). This is the backpressure probe of the network server:
  /// a full queue becomes a Busy response to the client instead of a
  /// blocked reader thread.
  bool TryPush(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Slab variant: enqueues a whole run of items destined for this
  /// consumer with one lock acquisition and one notify per admitted chunk,
  /// instead of one lock + notify per item. This is what makes PushBatch
  /// ingest cheap: the ingest thread splits a large span into
  /// batch_size-bounded batches and hands the per-shard slab over in
  /// (usually) a single synchronization round. Blocks like Push when the
  /// queue is at capacity; a slab larger than the remaining capacity is
  /// admitted in chunks as the consumer drains the queue. Returns false if
  /// the queue is closed before the whole slab is admitted (the remainder
  /// is dropped).
  bool PushAll(std::vector<T> slab) {
    size_t next = 0;
    while (next < slab.size()) {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock,
                     [this] { return closed_ || queue_.size() < capacity_; });
      if (closed_) return false;
      while (next < slab.size() && queue_.size() < capacity_) {
        queue_.push_back(std::move(slab[next++]));
      }
      not_empty_.notify_one();
    }
    return true;
  }

  /// Blocks while the queue is empty and open. Returns the next item, or
  /// std::nullopt once the queue is closed AND drained — a consumer that
  /// sees nullopt can exit its loop unconditionally.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Marks the queue closed and wakes everyone blocked on either side.
  /// Idempotent; already-queued items remain poppable.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  size_t capacity_;
  bool closed_ = false;
};

/// The parallel runtime's historical name for its shard work queues.
using BatchQueue = BoundedQueue<EventBatch>;

}  // namespace ses::exec

#endif  // SES_EXEC_BATCH_QUEUE_H_
