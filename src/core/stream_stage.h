#ifndef SES_CORE_STREAM_STAGE_H_
#define SES_CORE_STREAM_STAGE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"
#include "common/time.h"
#include "event/event.h"

namespace ses {

/// The stream contract that both entry points, engine::Engine and
/// catalog::CatalogEngine, implement (docs/SEMANTICS.md §9): one stream
/// whose timestamps strictly increase, the paper's total order T (§3.1),
/// ended by one Flush. The stage holds the Flush state, the watermark (the
/// newest admitted timestamp) and the admitted-event count, so each event's
/// order is checked here once and by no evaluator behind it.
///
/// Both entry points answer a violation with the same code and message: a
/// push after Flush is FailedPrecondition until Reset; a timestamp at or
/// below the watermark is InvalidArgument. A refused event is not counted,
/// reaches no evaluator and leaves the watermark alone, so the stream may
/// continue with later events. A span is evaluated up to its in-order
/// prefix before its first backwards event fails the call.
class StreamStage {
 public:
  /// OK while the stream is open; FailedPrecondition after MarkFlushed()
  /// until Reset().
  Status CheckOpen() const {
    return flushed_ ? PushAfterFlush() : Status::OK();
  }

  /// Admits one event: InvalidArgument, changing nothing, unless
  /// `timestamp` is after the watermark; otherwise it becomes the
  /// watermark and the event counts as pushed. Inline: it sits on the
  /// catalog's per-event path.
  Status Admit(Timestamp timestamp) {
    if (has_watermark_ && timestamp <= watermark_) {
      return OutOfOrder(timestamp);
    }
    has_watermark_ = true;
    watermark_ = timestamp;
    ++events_pushed_;
    return Status::OK();
  }

  /// Admits the longest prefix of a span (events, or a timestamp column)
  /// that continues the stream in strictly increasing order, and returns
  /// its length. Any event after the prefix is refused: the caller
  /// evaluates the prefix, then fails with OutOfOrder(its timestamp).
  size_t AdmitPrefix(std::span<const Event> events) {
    return AdmitPrefixOf(events,
                         [](const Event& event) { return event.timestamp(); });
  }
  size_t AdmitPrefix(std::span<const Timestamp> timestamps) {
    return AdmitPrefixOf(timestamps, [](Timestamp ts) { return ts; });
  }

  /// The InvalidArgument refusing `timestamp` at the current watermark.
  Status OutOfOrder(Timestamp timestamp) const;

  /// Ends the stream: every later push is FailedPrecondition.
  void MarkFlushed() { flushed_ = true; }

  /// Back to an empty, open stream.
  void Reset() { *this = StreamStage(); }

  bool flushed() const { return flushed_; }
  bool has_watermark() const { return has_watermark_; }
  Timestamp watermark() const { return watermark_; }
  int64_t events_pushed() const { return events_pushed_; }

  /// Appends the stage's state to a checkpoint payload: flushed (bool),
  /// has_watermark (bool), watermark (signed), events_pushed (signed).
  void Checkpoint(std::string* out) const;

  /// Reads what Checkpoint() wrote. On error the stage is left Reset().
  Status Restore(const char** p, const char* limit);

 private:
  static Status PushAfterFlush();

  template <typename T, typename TimestampOf>
  size_t AdmitPrefixOf(std::span<const T> items, TimestampOf timestamp_of) {
    Timestamp last = watermark_;
    bool has_last = has_watermark_;
    size_t admitted = 0;
    for (; admitted < items.size(); ++admitted) {
      const Timestamp ts = timestamp_of(items[admitted]);
      if (has_last && ts <= last) break;
      last = ts;
      has_last = true;
    }
    has_watermark_ = has_last;
    watermark_ = last;
    events_pushed_ += static_cast<int64_t>(admitted);
    return admitted;
  }

  bool flushed_ = false;
  bool has_watermark_ = false;
  Timestamp watermark_ = 0;
  int64_t events_pushed_ = 0;
};

}  // namespace ses

#endif  // SES_CORE_STREAM_STAGE_H_
