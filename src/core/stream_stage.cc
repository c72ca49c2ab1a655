#include "core/stream_stage.h"

#include "storage/checkpoint.h"

namespace ses {

Status StreamStage::PushAfterFlush() {
  return Status::FailedPrecondition(
      "push after Flush: call Reset() before pushing a new stream");
}

Status StreamStage::OutOfOrder(Timestamp timestamp) const {
  return Status::InvalidArgument(
      "out-of-order event at t=" + std::to_string(timestamp) +
      " (newest timestamp seen is t=" + std::to_string(watermark_) +
      "); a stream must have strictly increasing timestamps");
}

void StreamStage::Checkpoint(std::string* out) const {
  storage::PutBool(out, flushed_);
  storage::PutBool(out, has_watermark_);
  storage::PutSigned(out, watermark_);
  storage::PutSigned(out, events_pushed_);
}

Status StreamStage::Restore(const char** p, const char* limit) {
  Status s = [&]() -> Status {
    SES_RETURN_IF_ERROR(storage::GetBool(p, limit, &flushed_));
    SES_RETURN_IF_ERROR(storage::GetBool(p, limit, &has_watermark_));
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &watermark_));
    return storage::GetSigned(p, limit, &events_pushed_);
  }();
  if (!s.ok()) Reset();
  return s;
}

}  // namespace ses
