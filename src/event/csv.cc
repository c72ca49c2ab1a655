#include "event/csv.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace ses {

namespace {

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

std::string QuoteField(std::string_view field) {
  if (!NeedsQuoting(field)) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Splits one CSV record (no embedded newlines handled across records here;
/// ParseRecords handles multi-line quoted fields before calling this).
Result<std::vector<std::string>> SplitRecord(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      current += c;
      ++i;
      continue;
    }
    if (c == '"') {
      if (!current.empty()) {
        return Status::InvalidArgument("unexpected quote inside CSV field");
      }
      in_quotes = true;
      ++i;
      continue;
    }
    if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
      ++i;
      continue;
    }
    current += c;
    ++i;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  fields.push_back(std::move(current));
  return fields;
}

/// Re-issues a field-level parse error with the 1-based data row and the
/// offending column name attached ("CSV row 3 column 'dose': ...").
Status TagCell(size_t row, const std::string& column, const Status& status) {
  return Status(status.code(),
                strings::Format("CSV row %zu column '%s': %s", row,
                                column.c_str(), status.message().c_str()));
}

}  // namespace

std::string WriteCsvString(const EventRelation& relation) {
  std::string out = "T";
  for (const Attribute& attr : relation.schema().attributes()) {
    out += ",";
    out += QuoteField(attr.name);
  }
  out += "\n";
  for (const Event& e : relation) {
    out += std::to_string(e.timestamp());
    for (int i = 0; i < e.num_values(); ++i) {
      out += ",";
      out += QuoteField(e.value(i).ToString());
    }
    out += "\n";
  }
  return out;
}

Status WriteCsvFile(const EventRelation& relation, const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IoError("cannot open for writing: " + path);
  std::string contents = WriteCsvString(relation);
  file.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!file) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<ColumnarBatch> ReadCsvStringColumnar(const std::string& contents,
                                            const Schema& schema) {
  // Split into records, respecting quotes that span newlines.
  std::vector<std::string> records;
  {
    std::string current;
    bool in_quotes = false;
    for (char c : contents) {
      if (c == '"') in_quotes = !in_quotes;
      if (c == '\n' && !in_quotes) {
        if (!current.empty() && current.back() == '\r') current.pop_back();
        records.push_back(std::move(current));
        current.clear();
        continue;
      }
      current += c;
    }
    if (!current.empty()) {
      if (current.back() == '\r') current.pop_back();
      records.push_back(std::move(current));
    }
  }
  if (records.empty()) {
    return Status::InvalidArgument("CSV has no header row");
  }

  SES_ASSIGN_OR_RETURN(std::vector<std::string> header,
                       SplitRecord(records[0]));
  if (header.empty() || header[0] != "T") {
    return Status::InvalidArgument("CSV header must start with column 'T'");
  }
  if (static_cast<int>(header.size()) != schema.num_attributes() + 1) {
    return Status::InvalidArgument(strings::Format(
        "CSV header has %zu columns, schema expects %d", header.size(),
        schema.num_attributes() + 1));
  }
  for (int i = 0; i < schema.num_attributes(); ++i) {
    if (header[i + 1] != schema.attribute(i).name) {
      return Status::InvalidArgument(
          strings::Format("CSV column %d is '%s', schema expects '%s'", i + 1,
                          header[i + 1].c_str(),
                          schema.attribute(i).name.c_str()));
    }
  }

  ColumnarBatch batch(schema);
  for (size_t r = 1; r < records.size(); ++r) {
    if (records[r].empty()) continue;  // allow trailing blank line
    SES_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                         SplitRecord(records[r]));
    if (static_cast<int>(fields.size()) != schema.num_attributes() + 1) {
      return Status::InvalidArgument(
          strings::Format("CSV row %zu has %zu fields, expected %d", r,
                          fields.size(), schema.num_attributes() + 1));
    }
    Result<int64_t> ts = strings::ParseInt64(fields[0]);
    if (!ts.ok()) return TagCell(r, "T", ts.status());
    batch.AppendIdTimestamp(kInvalidEventId, *ts);
    for (int i = 0; i < schema.num_attributes(); ++i) {
      const Attribute& attr = schema.attribute(i);
      switch (attr.type) {
        case ValueType::kInt64: {
          Result<int64_t> v = strings::ParseInt64(fields[i + 1]);
          if (!v.ok()) return TagCell(r, attr.name, v.status());
          batch.AppendInt64(i, *v);
          break;
        }
        case ValueType::kDouble: {
          Result<double> v = strings::ParseDouble(fields[i + 1]);
          if (!v.ok()) return TagCell(r, attr.name, v.status());
          batch.AppendDouble(i, *v);
          break;
        }
        case ValueType::kString:
          batch.AppendString(i, std::move(fields[i + 1]));
          break;
      }
    }
  }
  // Ids by timestamp rank (stable on ties): the id a row would carry in
  // the in-order rendering of the same file, so listings diff cleanly
  // across arrival orders.
  const std::vector<Timestamp>& timestamps = batch.timestamps();
  std::vector<size_t> rank(batch.size());
  for (size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  std::stable_sort(rank.begin(), rank.end(), [&](size_t a, size_t b) {
    return timestamps[a] < timestamps[b];
  });
  std::vector<EventId> ids(batch.size());
  for (size_t i = 0; i < rank.size(); ++i) {
    ids[rank[i]] = static_cast<EventId>(i) + 1;
  }
  batch.SetIds(std::move(ids));
  return batch;
}

Result<EventRelation> ReadCsvString(const std::string& contents,
                                    const Schema& schema) {
  SES_ASSIGN_OR_RETURN(ColumnarBatch batch,
                       ReadCsvStringColumnar(contents, schema));
  EventRelation relation(schema);
  for (Event& event : batch.ToEvents()) {
    SES_RETURN_IF_ERROR(relation.Append(std::move(event)));
  }
  return relation;
}

Result<EventRelation> ReadCsvFile(const std::string& path,
                                  const Schema& schema) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ReadCsvString(buffer.str(), schema);
}

Result<ColumnarBatch> ReadCsvFileColumnar(const std::string& path,
                                          const Schema& schema) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ReadCsvStringColumnar(buffer.str(), schema);
}

}  // namespace ses
