#include "storage/table_reader.h"

#include <algorithm>

#include "common/crc32c.h"
#include "storage/page.h"

namespace ses::storage {

Result<TableReader> TableReader::Open(const std::string& path) {
  auto file = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*file) return Status::IoError("cannot open table: " + path);

  file->seekg(0, std::ios::end);
  int64_t file_size = file->tellg();
  if (file_size < static_cast<int64_t>(kFooterSize + 8)) {
    return Status::Corruption("table file too small: " + path);
  }

  // Footer.
  std::string footer(kFooterSize, '\0');
  file->seekg(file_size - static_cast<int64_t>(kFooterSize));
  file->read(footer.data(), static_cast<std::streamsize>(kFooterSize));
  if (!*file) return Status::IoError("footer read failed: " + path);
  const char* f = footer.data();
  uint64_t index_offset = GetFixed64(f);
  uint32_t index_crc = crc32c::Unmask(GetFixed32(f + 8));
  uint64_t num_events = GetFixed64(f + 12);
  Timestamp min_ts = static_cast<Timestamp>(GetFixed64(f + 20));
  Timestamp max_ts = static_cast<Timestamp>(GetFixed64(f + 28));
  uint32_t footer_crc = crc32c::Unmask(GetFixed32(f + 36));
  uint32_t footer_magic = GetFixed32(f + 40);
  if (footer_magic != kFooterMagic) {
    return Status::Corruption("bad footer magic: " + path);
  }
  if (crc32c::Value(f, 36) != footer_crc) {
    return Status::Corruption("footer checksum mismatch: " + path);
  }
  if (num_events > static_cast<uint64_t>(file_size)) {
    return Status::Corruption("event count exceeds the file size: " + path);
  }
  uint64_t index_size =
      static_cast<uint64_t>(file_size) - kFooterSize - index_offset;
  if (index_offset > static_cast<uint64_t>(file_size) - kFooterSize) {
    return Status::Corruption("index offset out of bounds: " + path);
  }

  // Header + schema.
  file->seekg(0);
  // Generous cap for the header region (magic + version + schema + crc).
  std::string header(std::min<int64_t>(file_size, 65536), '\0');
  file->read(header.data(), static_cast<std::streamsize>(header.size()));
  size_t header_read = static_cast<size_t>(file->gcount());
  header.resize(header_read);
  if (header.size() < 8) return Status::Corruption("truncated header");
  if (GetFixed32(header.data()) != kTableMagic) {
    return Status::Corruption("bad table magic: " + path);
  }
  uint32_t version = GetFixed32(header.data() + 4);
  if (version != kFormatVersion) {
    return Status::Corruption("unsupported table format version");
  }
  const char* p = header.data() + 8;
  const char* schema_begin = p;
  SES_ASSIGN_OR_RETURN(Schema schema,
                       DecodeSchema(&p, header.data() + header.size()));
  if (static_cast<size_t>(p - header.data()) + 4 > header.size()) {
    return Status::Corruption("truncated header checksum: " + path);
  }
  uint32_t header_crc = crc32c::Unmask(GetFixed32(p));
  if (crc32c::Value(schema_begin, static_cast<size_t>(p - schema_begin)) !=
      header_crc) {
    return Status::Corruption("header checksum mismatch: " + path);
  }
  p += 4;

  // Index.
  std::string index_block(index_size, '\0');
  file->clear();
  file->seekg(static_cast<int64_t>(index_offset));
  file->read(index_block.data(), static_cast<std::streamsize>(index_size));
  if (!*file) return Status::IoError("index read failed: " + path);
  if (crc32c::Value(index_block.data(), index_block.size()) != index_crc) {
    return Status::Corruption("index checksum mismatch: " + path);
  }
  const char* ip = index_block.data();
  const char* ilimit = ip + index_block.size();
  uint64_t num_pages = 0;
  ip = GetVarint64(ip, ilimit, &num_pages);
  if (ip == nullptr) return Status::Corruption("truncated index count");
  std::vector<std::pair<Timestamp, uint64_t>> index;
  index.reserve(num_pages);
  for (uint64_t i = 0; i < num_pages; ++i) {
    uint64_t raw_ts = 0, offset = 0;
    ip = GetVarint64(ip, ilimit, &raw_ts);
    if (ip == nullptr) return Status::Corruption("truncated index entry");
    ip = GetVarint64(ip, ilimit, &offset);
    if (ip == nullptr) return Status::Corruption("truncated index entry");
    index.emplace_back(ZigZagDecode(raw_ts), offset);
  }

  TableReader reader;
  reader.path_ = path;
  reader.file_ = std::move(file);
  reader.schema_ = std::move(schema);
  reader.index_ = std::move(index);
  reader.num_events_ = static_cast<int64_t>(num_events);
  reader.min_ts_ = min_ts;
  reader.max_ts_ = max_ts;
  return reader;
}

Result<std::string> TableReader::ReadPage(size_t page_number) const {
  std::string page(kPageSize, '\0');
  file_->clear();
  file_->seekg(static_cast<int64_t>(index_[page_number].second));
  file_->read(page.data(), static_cast<std::streamsize>(kPageSize));
  if (!*file_) return Status::IoError("page read failed: " + path_);
  return page;
}

Result<EventRelation> TableReader::ReadAll() const {
  return Scan(min_ts_, max_ts_);
}

Result<EventRelation> TableReader::Scan(Timestamp from_ts,
                                        Timestamp to_ts) const {
  EventRelation relation(schema_);
  if (index_.empty() || from_ts > to_ts) return relation;
  if (from_ts <= min_ts_ && to_ts >= max_ts_) {
    relation.Reserve(static_cast<size_t>(num_events_));
  }

  // First page whose successor starts after from_ts: events with T >=
  // from_ts cannot live in an earlier page because pages are time-ordered.
  size_t start = 0;
  {
    auto it = std::upper_bound(
        index_.begin(), index_.end(), from_ts,
        [](Timestamp ts, const auto& entry) { return ts < entry.first; });
    if (it != index_.begin()) --it;
    start = static_cast<size_t>(it - index_.begin());
  }

  for (size_t page_number = start; page_number < index_.size();
       ++page_number) {
    if (index_[page_number].first > to_ts) break;
    SES_ASSIGN_OR_RETURN(std::string page, ReadPage(page_number));
    SES_ASSIGN_OR_RETURN(std::vector<std::string_view> records,
                         PageParser::Parse(page));
    for (std::string_view record : records) {
      const char* p = record.data();
      SES_ASSIGN_OR_RETURN(Event event,
                           DecodeEvent(&p, record.data() + record.size(),
                                       schema_));
      if (p != record.data() + record.size()) {
        return Status::Corruption("trailing bytes in record");
      }
      if (event.timestamp() < from_ts) continue;
      if (event.timestamp() > to_ts) break;
      SES_RETURN_IF_ERROR(relation.Append(std::move(event)));
    }
  }
  return relation;
}

Result<EventRelation> ReadTable(const std::string& path) {
  SES_ASSIGN_OR_RETURN(TableReader reader, TableReader::Open(path));
  return reader.ReadAll();
}

}  // namespace ses::storage
