#ifndef SES_STORAGE_CHECKPOINT_H_
#define SES_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "event/event.h"
#include "event/value.h"

namespace ses::storage {

/// Versioned, checksummed container for engine runtime state ("sesckpt").
/// A checkpoint captures everything a 24/7 stream processor must not lose
/// across a restart: open automaton instances with their match buffers,
/// per-shard watermarks, the stream's watermark, and accumulated statistics
/// (docs/RUNTIME.md checkpoint section, SEMANTICS.md section 12 for the
/// exact-resume argument).
///
/// File layout:
///
///   header   := magic(fixed32) schema_version(fixed32)
///   sections := section*
///   section  := name_len(varint) name payload_len(varint) payload
///               crc(fixed32, masked CRC-32C over name + payload)
///   trailer  := end_marker(varint 0) file_crc(fixed32, masked, over
///               everything before it)
///
/// Every section carries its own masked CRC-32C (same scheme as the table
/// format) and the trailer CRC covers the whole file, so a truncated file
/// or any flipped byte is reported as Corruption — never undefined
/// behavior — and a schema_version other than this build's (older or
/// newer) is rejected as InvalidArgument before any payload is
/// interpreted: payload layouts change between versions, so an older file
/// would otherwise be parsed with its fields shifted.
///
/// Section payloads are opaque to this layer; each runtime component
/// encodes its state with the primitive helpers below (varints, zigzag,
/// the record encoding from table_format.h). A composite runtime gives each
/// component a section of its own (e.g. the catalog stores one executor
/// state per plan under "plan/<id>").

constexpr uint32_t kCheckpointMagic = 0x53455343;  // "SESC"
constexpr uint32_t kCheckpointVersion = 6;

/// Builds a checkpoint: named sections appended in order, each framed with
/// a masked CRC-32C. Components append their serialized state under a
/// unique name; Finish() seals the trailer and yields the file bytes.
class CheckpointWriter {
 public:
  CheckpointWriter();

  /// Appends a section. Names must be unique within one checkpoint (the
  /// reader keeps the first occurrence; uniqueness is the writer's job).
  void AddSection(std::string_view name, std::string_view payload);

  /// Seals the trailer (end marker + whole-file CRC) and returns the
  /// serialized checkpoint. The writer must not be reused afterwards.
  std::string Finish() &&;

 private:
  std::string data_;
};

/// Parses and validates a serialized checkpoint, then serves sections by
/// name. All validation happens in Parse: magic, schema_version, section
/// framing, per-section CRCs, and the whole-file CRC. Section() lookups on
/// a parsed reader cannot fail with Corruption.
class CheckpointReader {
 public:
  /// Validates `data` end to end. Returns InvalidArgument for a bad magic
  /// or a schema_version newer than this build, Corruption for truncation
  /// or any CRC mismatch.
  static Result<CheckpointReader> Parse(std::string data);

  /// The payload of the named section; NotFound when absent. The view
  /// points into the reader's buffer and lives as long as the reader.
  Result<std::string_view> Section(std::string_view name) const;

  /// True when the named section is present.
  bool Contains(std::string_view name) const;

 private:
  CheckpointReader() = default;

  std::string data_;
  // Section name -> (offset, length) into data_.
  std::map<std::string, std::pair<size_t, size_t>, std::less<>> sections_;
};

// --- Payload encoding helpers ---
//
// Components build section payloads with these primitives. Every decoder
// is bounds-checked and returns Corruption on truncated or malformed
// input, so a damaged payload that passes the CRC gauntlet (it cannot,
// but decoders do not rely on that) still fails cleanly.

void PutCount(std::string* dst, uint64_t v);
void PutSigned(std::string* dst, int64_t v);
void PutDouble(std::string* dst, double v);
void PutBool(std::string* dst, bool v);
void PutString(std::string* dst, std::string_view v);
void PutValue(std::string* dst, const Value& v);
void PutEventRecord(std::string* dst, const Event& event,
                    const Schema& schema);

Status GetCount(const char** p, const char* limit, uint64_t* v);
/// GetCount for the number of items that follow, each at least one byte
/// long: a count beyond the bytes left is Corruption, so the caller may
/// reserve() it without trusting the input.
Status GetItemCount(const char** p, const char* limit, uint64_t* v);
Status GetSigned(const char** p, const char* limit, int64_t* v);
Status GetDouble(const char** p, const char* limit, double* v);
Status GetBool(const char** p, const char* limit, bool* v);
Status GetString(const char** p, const char* limit, std::string* v);
Status GetValue(const char** p, const char* limit, Value* v);
Status GetEventRecord(const char** p, const char* limit,
                      const Schema& schema, Event* event);

// --- File helpers ---

/// Writes `data` (a finished checkpoint) to `path` atomically: the bytes
/// go to "<path>.tmp" first and are renamed over `path` only once fully
/// written, so a crash mid-checkpoint leaves any previous checkpoint at
/// `path` intact and readable.
Status WriteCheckpointFile(const std::string& path, std::string_view data);

/// Reads the file at `path` into a string (IoError on failure). Validation
/// is CheckpointReader::Parse's job.
Result<std::string> ReadCheckpointFile(const std::string& path);

}  // namespace ses::storage

#endif  // SES_STORAGE_CHECKPOINT_H_
