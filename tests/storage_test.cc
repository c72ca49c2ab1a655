// Tests for the embedded storage engine: encoding primitives, pages, table
// writer/reader round trips, range scans, corruption detection, and the
// EventStore facade.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/crc32c.h"
#include "common/random.h"
#include "event/relation.h"
#include "storage/event_store.h"
#include "storage/page.h"
#include "storage/table_format.h"
#include "storage/table_reader.h"
#include "storage/table_writer.h"

namespace ses::storage {
namespace {

namespace fs = std::filesystem;

Schema TestSchema() {
  return *Schema::Create({{"ID", ValueType::kInt64},
                          {"L", ValueType::kString},
                          {"V", ValueType::kDouble}});
}

/// Relation with `n` events, one per `gap` ticks.
EventRelation MakeRelation(int n, Timestamp gap = 100) {
  EventRelation r(TestSchema());
  Random random(99);
  for (int i = 0; i < n; ++i) {
    r.AppendUnchecked(
        static_cast<Timestamp>(i + 1) * gap,
        {Value(static_cast<int64_t>(i % 7)),
         Value(std::string(1, static_cast<char>('A' + i % 4))),
         Value(static_cast<double>(random.Uniform(1000)) / 8.0)});
  }
  return r;
}

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

TEST(Format, VarintRoundTrip) {
  for (uint64_t v : std::vector<uint64_t>{0, 1, 127, 128, 300, 1ULL << 32,
                                          UINT64_MAX}) {
    std::string buf;
    PutVarint64(&buf, v);
    uint64_t decoded = 0;
    const char* end = GetVarint64(buf.data(), buf.data() + buf.size(),
                                  &decoded);
    ASSERT_NE(end, nullptr) << v;
    EXPECT_EQ(end, buf.data() + buf.size());
    EXPECT_EQ(decoded, v);
  }
}

TEST(Format, VarintDetectsTruncation) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  uint64_t decoded = 0;
  EXPECT_EQ(GetVarint64(buf.data(), buf.data() + buf.size() - 1, &decoded),
            nullptr);
}

TEST(Format, ZigZag) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1234567},
                    int64_t{-1234567}, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(Format, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  EXPECT_EQ(GetFixed32(buf.data()), 0xdeadbeefu);
  EXPECT_EQ(GetFixed64(buf.data() + 4), 0x0123456789abcdefULL);
}

TEST(Format, SchemaRoundTrip) {
  Schema schema = TestSchema();
  std::string buf;
  EncodeSchema(schema, &buf);
  const char* p = buf.data();
  Result<Schema> decoded = DecodeSchema(&p, buf.data() + buf.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, schema);
  EXPECT_EQ(p, buf.data() + buf.size());
}

TEST(Format, EventRoundTrip) {
  Schema schema = TestSchema();
  Event event(42, -1234,
              {Value(int64_t{-7}), Value("hello"), Value(2.75)});
  std::string buf;
  EncodeEvent(event, schema, &buf);
  const char* p = buf.data();
  Result<Event> decoded = DecodeEvent(&p, buf.data() + buf.size(), schema);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id(), 42);
  EXPECT_EQ(decoded->timestamp(), -1234);
  EXPECT_EQ(decoded->value(0).int64(), -7);
  EXPECT_EQ(decoded->value(1).string(), "hello");
  EXPECT_DOUBLE_EQ(decoded->value(2).as_double(), 2.75);
}

TEST(Format, EventDecodeDetectsTruncation) {
  Schema schema = TestSchema();
  Event event(1, 5, {Value(int64_t{1}), Value("abc"), Value(1.0)});
  std::string buf;
  EncodeEvent(event, schema, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    const char* p = buf.data();
    Result<Event> decoded = DecodeEvent(&p, buf.data() + cut, schema);
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(Page, BuildAndParse) {
  PageBuilder builder;
  EXPECT_TRUE(builder.empty());
  ASSERT_TRUE(builder.AddRecord("first"));
  ASSERT_TRUE(builder.AddRecord("second record"));
  EXPECT_EQ(builder.record_count(), 2);
  std::string page = builder.Finish();
  EXPECT_EQ(page.size(), kPageSize);
  EXPECT_TRUE(builder.empty());  // reset after Finish

  Result<std::vector<std::string_view>> records = PageParser::Parse(page);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0], "first");
  EXPECT_EQ((*records)[1], "second record");
}

TEST(Page, RejectsOverflow) {
  PageBuilder builder;
  std::string big(kPageSize, 'x');
  EXPECT_FALSE(builder.AddRecord(big));
  EXPECT_TRUE(builder.empty());
  // Fill until full; the builder must refuse gracefully.
  std::string chunk(100, 'y');
  int added = 0;
  while (builder.AddRecord(chunk)) ++added;
  EXPECT_GT(added, 30);
  EXPECT_LT(static_cast<size_t>(added) * 102, kPageSize);
}

TEST(Page, DetectsBitFlips) {
  PageBuilder builder;
  ASSERT_TRUE(builder.AddRecord("payload"));
  std::string page = builder.Finish();
  for (size_t offset : {size_t{0}, size_t{9}, kPageSize - 1}) {
    std::string corrupted = page;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    Result<std::vector<std::string_view>> parsed =
        PageParser::Parse(corrupted);
    EXPECT_FALSE(parsed.ok()) << "flip at " << offset;
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
  }
}

TEST(Page, WrongSizeRejected) {
  EXPECT_FALSE(PageParser::Parse("short").ok());
}

TEST(Table, RoundTripSmall) {
  EventRelation original = MakeRelation(10);
  std::string path = TempPath("ses_table_small.sestbl");
  ASSERT_TRUE(WriteTable(original, path).ok());
  Result<EventRelation> loaded = ReadTable(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->event(i).id(), original.event(i).id());
    EXPECT_EQ(loaded->event(i).timestamp(), original.event(i).timestamp());
    EXPECT_EQ(loaded->event(i).value(2), original.event(i).value(2));
  }
  fs::remove(path);
}

TEST(Table, RoundTripMultiPage) {
  EventRelation original = MakeRelation(20000, 3);
  std::string path = TempPath("ses_table_large.sestbl");
  ASSERT_TRUE(WriteTable(original, path).ok());
  Result<TableReader> reader = TableReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_events(), 20000);
  EXPECT_GT(reader->num_pages(), 10);
  EXPECT_EQ(reader->schema(), original.schema());
  EXPECT_EQ(reader->min_timestamp(), original.min_timestamp());
  EXPECT_EQ(reader->max_timestamp(), original.max_timestamp());
  Result<EventRelation> loaded = reader->ReadAll();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), original.size());
  EXPECT_EQ(loaded->event(12345).value(1), original.event(12345).value(1));
  fs::remove(path);
}

TEST(Table, ScanUsesTimeRange) {
  EventRelation original = MakeRelation(5000, 10);
  std::string path = TempPath("ses_table_scan.sestbl");
  ASSERT_TRUE(WriteTable(original, path).ok());
  Result<TableReader> reader = TableReader::Open(path);
  ASSERT_TRUE(reader.ok());

  // Interior range.
  Result<EventRelation> mid = reader->Scan(1001, 2000);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->size(), 100u);  // timestamps 1010, 1020, ..., 2000
  for (const Event& e : *mid) {
    EXPECT_GE(e.timestamp(), 1001);
    EXPECT_LE(e.timestamp(), 2000);
  }
  // Empty and out-of-range scans.
  EXPECT_EQ(reader->Scan(3, 9)->size(), 0u);
  EXPECT_EQ(reader->Scan(10000000, 20000000)->size(), 0u);
  EXPECT_EQ(reader->Scan(100, 1)->size(), 0u);  // inverted range
  // Boundary inclusivity.
  EXPECT_EQ(reader->Scan(10, 10)->size(), 1u);
  fs::remove(path);
}

TEST(Table, FullScanReservesTheEventCount) {
  EventRelation original = MakeRelation(5000, 10);
  std::string path = TempPath("ses_table_reserve.sestbl");
  ASSERT_TRUE(WriteTable(original, path).ok());
  Result<TableReader> reader = TableReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Result<EventRelation> all = reader->ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 5000u);
  // Reserved once from the footer's count, not grown by doubling.
  EXPECT_EQ(all->events().capacity(), 5000u);
  fs::remove(path);
}

TEST(Table, EventCountBeyondTheFileSizeIsCorruption) {
  EventRelation original = MakeRelation(100);
  std::string path = TempPath("ses_table_count.sestbl");
  ASSERT_TRUE(WriteTable(original, path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Rewrite the footer's event count with a valid checksum, so only the
  // count check can reject it.
  const size_t footer = bytes.size() - kFooterSize;
  std::string count;
  PutFixed64(&count, uint64_t{1} << 40);
  bytes.replace(footer + 12, 8, count);
  std::string crc;
  PutFixed32(&crc, crc32c::Mask(crc32c::Value(bytes.data() + footer, 36)));
  bytes.replace(footer + 36, 4, crc);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  Result<TableReader> reader = TableReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  fs::remove(path);
}

TEST(Table, WriterValidatesInput) {
  std::string path = TempPath("ses_table_validate.sestbl");
  Result<TableWriter> writer = TableWriter::Open(path, TestSchema());
  ASSERT_TRUE(writer.ok());
  // Wrong arity.
  EXPECT_FALSE(writer->Append(Event(1, 5, {Value(int64_t{1})})).ok());
  // OK event.
  EXPECT_TRUE(writer
                  ->Append(Event(1, 5, {Value(int64_t{1}), Value("A"),
                                        Value(1.0)}))
                  .ok());
  // Time going backwards.
  EXPECT_FALSE(writer
                   ->Append(Event(2, 4, {Value(int64_t{1}), Value("A"),
                                         Value(1.0)}))
                   .ok());
  EXPECT_TRUE(writer->Finish().ok());
  EXPECT_FALSE(writer->Finish().ok());  // double finish
  fs::remove(path);
}

TEST(Table, CorruptionInDataPageIsDetected) {
  EventRelation original = MakeRelation(2000, 5);
  std::string path = TempPath("ses_table_corrupt.sestbl");
  ASSERT_TRUE(WriteTable(original, path).ok());
  // Flip a byte in the middle of the first data page region.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(600);
    char c = 0;
    f.seekg(600);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x01);
    f.seekp(600);
    f.write(&c, 1);
  }
  Result<EventRelation> loaded = ReadTable(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  fs::remove(path);
}

TEST(Table, TruncatedFileIsRejected) {
  EventRelation original = MakeRelation(100);
  std::string path = TempPath("ses_table_trunc.sestbl");
  ASSERT_TRUE(WriteTable(original, path).ok());
  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_FALSE(TableReader::Open(path).ok());
  fs::resize_file(path, 10);
  EXPECT_FALSE(TableReader::Open(path).ok());
  fs::remove(path);
}

TEST(Table, OpeningGarbageFails) {
  std::string path = TempPath("ses_table_garbage.sestbl");
  {
    std::ofstream f(path, std::ios::binary);
    std::string junk(8192, 'z');
    f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  Result<TableReader> reader = TableReader::Open(path);
  EXPECT_FALSE(reader.ok());
  fs::remove(path);
}

TEST(EventStore, PutGetListDelete) {
  std::string dir = TempPath("ses_store_test");
  fs::remove_all(dir);
  Result<EventStore> store = EventStore::Open(dir);
  ASSERT_TRUE(store.ok());

  EventRelation d1 = MakeRelation(500);
  ASSERT_TRUE(store->Put("d1", d1).ok());
  ASSERT_TRUE(store->Put("d2", MakeRelation(100)).ok());
  EXPECT_TRUE(store->Contains("d1"));
  EXPECT_FALSE(store->Contains("missing"));

  Result<std::vector<std::string>> names = store->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"d1", "d2"}));

  Result<EventRelation> loaded = store->Get("d1");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), d1.size());

  Result<EventRelation> scanned = store->Scan("d1", 101, 300);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->size(), 2u);  // timestamps 200 and 300

  EXPECT_TRUE(store->Delete("d2").ok());
  EXPECT_EQ(store->Delete("d2").code(), StatusCode::kNotFound);
  EXPECT_EQ(store->Get("d2").status().code(), StatusCode::kNotFound);

  // Replacement keeps the latest contents.
  ASSERT_TRUE(store->Put("d1", MakeRelation(3)).ok());
  EXPECT_EQ(store->Get("d1")->size(), 3u);

  fs::remove_all(dir);
}

TEST(EventStore, RejectsBadNames) {
  std::string dir = TempPath("ses_store_names");
  fs::remove_all(dir);
  Result<EventStore> store = EventStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->Put("../escape", MakeRelation(1)).ok());
  EXPECT_FALSE(store->Put("", MakeRelation(1)).ok());
  EXPECT_FALSE(store->Put("with space", MakeRelation(1)).ok());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ses::storage
