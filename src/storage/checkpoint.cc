#include "storage/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/crc32c.h"
#include "storage/table_format.h"

namespace ses::storage {

namespace {

Status Truncated(std::string_view what) {
  return Status::Corruption(std::string("checkpoint truncated: ") +
                            std::string(what));
}

}  // namespace

CheckpointWriter::CheckpointWriter() {
  PutFixed32(&data_, kCheckpointMagic);
  PutFixed32(&data_, kCheckpointVersion);
}

void CheckpointWriter::AddSection(std::string_view name,
                                  std::string_view payload) {
  PutVarint64(&data_, name.size());
  data_.append(name.data(), name.size());
  PutVarint64(&data_, payload.size());
  data_.append(payload.data(), payload.size());
  uint32_t crc = crc32c::Value(name.data(), name.size());
  crc = crc32c::Extend(crc, payload.data(), payload.size());
  PutFixed32(&data_, crc32c::Mask(crc));
}

std::string CheckpointWriter::Finish() && {
  PutVarint64(&data_, 0);  // End marker: a zero-length section name.
  PutFixed32(&data_, crc32c::Mask(crc32c::Value(data_.data(), data_.size())));
  return std::move(data_);
}

Result<CheckpointReader> CheckpointReader::Parse(std::string data) {
  CheckpointReader reader;
  reader.data_ = std::move(data);
  const char* base = reader.data_.data();
  const char* limit = base + reader.data_.size();

  if (reader.data_.size() < 8 + 4 + 1) {
    return Truncated("shorter than header + trailer");
  }
  if (GetFixed32(base) != kCheckpointMagic) {
    return Status::InvalidArgument("not a checkpoint file (bad magic)");
  }
  uint32_t version = GetFixed32(base + 4);
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument(
        "checkpoint schema_version " + std::to_string(version) +
        " is not the one this build reads (" +
        std::to_string(kCheckpointVersion) + ")");
  }

  // Whole-file CRC first: the last 4 bytes cover everything before them.
  uint32_t file_crc = crc32c::Unmask(GetFixed32(limit - 4));
  if (file_crc != crc32c::Value(base, reader.data_.size() - 4)) {
    return Status::Corruption("checkpoint file checksum mismatch");
  }

  const char* p = base + 8;
  const char* payload_limit = limit - 4;  // Excludes the file CRC.
  for (;;) {
    uint64_t name_len = 0;
    if ((p = GetVarint64(p, payload_limit, &name_len)) == nullptr) {
      return Truncated("section name length");
    }
    if (name_len == 0) break;  // End marker.
    if (name_len > static_cast<uint64_t>(payload_limit - p)) {
      return Truncated("section name");
    }
    std::string_view name(p, name_len);
    p += name_len;
    uint64_t payload_len = 0;
    if ((p = GetVarint64(p, payload_limit, &payload_len)) == nullptr) {
      return Truncated("section payload length");
    }
    if (payload_len > static_cast<uint64_t>(payload_limit - p)) {
      return Truncated("section payload");
    }
    const char* payload = p;
    p += payload_len;
    if (payload_limit - p < 4) return Truncated("section checksum");
    uint32_t crc = crc32c::Value(name.data(), name.size());
    crc = crc32c::Extend(crc, payload, payload_len);
    if (crc32c::Unmask(GetFixed32(p)) != crc) {
      return Status::Corruption("checkpoint section '" + std::string(name) +
                                "' checksum mismatch");
    }
    p += 4;
    reader.sections_.emplace(
        std::string(name),
        std::make_pair(static_cast<size_t>(payload - base),
                       static_cast<size_t>(payload_len)));
  }
  return reader;
}

Result<std::string_view> CheckpointReader::Section(
    std::string_view name) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) {
    return Status::NotFound("checkpoint has no section '" +
                            std::string(name) + "'");
  }
  return std::string_view(data_.data() + it->second.first, it->second.second);
}

bool CheckpointReader::Contains(std::string_view name) const {
  return sections_.find(name) != sections_.end();
}

// --- Payload encoding helpers ---

void PutCount(std::string* dst, uint64_t v) { PutVarint64(dst, v); }

void PutSigned(std::string* dst, int64_t v) {
  PutVarint64(dst, ZigZagEncode(v));
}

void PutDouble(std::string* dst, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(dst, bits);
}

void PutBool(std::string* dst, bool v) { dst->push_back(v ? 1 : 0); }

void PutString(std::string* dst, std::string_view v) {
  PutVarint64(dst, v.size());
  dst->append(v.data(), v.size());
}

void PutValue(std::string* dst, const Value& v) {
  dst->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kInt64:
      PutSigned(dst, v.int64());
      break;
    case ValueType::kDouble:
      PutDouble(dst, v.as_double());
      break;
    case ValueType::kString:
      PutString(dst, v.string());
      break;
  }
}

void PutEventRecord(std::string* dst, const Event& event,
                    const Schema& schema) {
  EncodeEvent(event, schema, dst);
}

Status GetCount(const char** p, const char* limit, uint64_t* v) {
  const char* next = GetVarint64(*p, limit, v);
  if (next == nullptr) return Truncated("varint");
  *p = next;
  return Status::OK();
}

Status GetItemCount(const char** p, const char* limit, uint64_t* v) {
  SES_RETURN_IF_ERROR(GetCount(p, limit, v));
  if (*v > static_cast<uint64_t>(limit - *p)) {
    return Status::Corruption("count " + std::to_string(*v) +
                              " exceeds the " + std::to_string(limit - *p) +
                              " bytes left");
  }
  return Status::OK();
}

Status GetSigned(const char** p, const char* limit, int64_t* v) {
  uint64_t raw = 0;
  SES_RETURN_IF_ERROR(GetCount(p, limit, &raw));
  *v = ZigZagDecode(raw);
  return Status::OK();
}

Status GetDouble(const char** p, const char* limit, double* v) {
  if (limit - *p < 8) return Truncated("double");
  uint64_t bits = GetFixed64(*p);
  *p += 8;
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status GetBool(const char** p, const char* limit, bool* v) {
  if (*p >= limit) return Truncated("bool");
  unsigned char byte = static_cast<unsigned char>(**p);
  if (byte > 1) return Status::Corruption("checkpoint bool out of range");
  *v = byte != 0;
  ++*p;
  return Status::OK();
}

Status GetString(const char** p, const char* limit, std::string* v) {
  uint64_t len = 0;
  SES_RETURN_IF_ERROR(GetCount(p, limit, &len));
  if (len > static_cast<uint64_t>(limit - *p)) return Truncated("string");
  v->assign(*p, len);
  *p += len;
  return Status::OK();
}

Status GetValue(const char** p, const char* limit, Value* v) {
  if (*p >= limit) return Truncated("value tag");
  unsigned char tag = static_cast<unsigned char>(**p);
  ++*p;
  switch (tag) {
    case static_cast<unsigned char>(ValueType::kInt64): {
      int64_t i = 0;
      SES_RETURN_IF_ERROR(GetSigned(p, limit, &i));
      *v = Value(i);
      return Status::OK();
    }
    case static_cast<unsigned char>(ValueType::kDouble): {
      double d = 0;
      SES_RETURN_IF_ERROR(GetDouble(p, limit, &d));
      *v = Value(d);
      return Status::OK();
    }
    case static_cast<unsigned char>(ValueType::kString): {
      std::string s;
      SES_RETURN_IF_ERROR(GetString(p, limit, &s));
      *v = Value(std::move(s));
      return Status::OK();
    }
    default:
      return Status::Corruption("checkpoint value tag out of range");
  }
}

Status GetEventRecord(const char** p, const char* limit,
                      const Schema& schema, Event* event) {
  Result<Event> decoded = DecodeEvent(p, limit, schema);
  if (!decoded.ok()) return decoded.status();
  *event = std::move(decoded).value();
  return Status::OK();
}

// --- File helpers ---

Status WriteCheckpointFile(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for write: " + tmp);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.flush();
    if (!out) return Status::IoError("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<std::string> ReadCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read checkpoint file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IoError("read error on checkpoint file: " + path);
  }
  return std::move(buffer).str();
}

}  // namespace ses::storage
