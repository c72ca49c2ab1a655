// Unit tests for the event model: Value, Schema, Event, EventRelation, CSV.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "event/csv.h"
#include "event/event.h"
#include "event/relation.h"
#include "event/schema.h"
#include "event/value.h"

namespace ses {
namespace {

TEST(Value, TypesAndAccessors) {
  Value i(int64_t{42});
  Value d(3.5);
  Value s(std::string("C"));
  EXPECT_TRUE(i.is_int64());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.int64(), 42);
  EXPECT_DOUBLE_EQ(d.as_double(), 3.5);
  EXPECT_EQ(s.string(), "C");
  EXPECT_DOUBLE_EQ(i.AsNumber(), 42.0);
}

TEST(Value, ToString) {
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value("WHO-Tox").ToString(), "WHO-Tox");
}

TEST(Value, EqualityAcrossNumericTypes) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_NE(Value(int64_t{2}), Value(2.5));
  EXPECT_EQ(Value("x"), Value(std::string("x")));
  EXPECT_NE(Value("2"), Value(int64_t{2}));  // string vs number
}

TEST(Value, CompareNumbers) {
  EXPECT_LT(Compare(Value(int64_t{1}), Value(int64_t{2})), 0);
  EXPECT_GT(Compare(Value(2.5), Value(int64_t{2})), 0);
  EXPECT_EQ(Compare(Value(int64_t{2}), Value(2.0)), 0);
}

TEST(Value, CompareStrings) {
  EXPECT_LT(Compare(Value("B"), Value("C")), 0);
  EXPECT_EQ(Compare(Value("P"), Value("P")), 0);
}

TEST(Value, TypesComparable) {
  EXPECT_TRUE(TypesComparable(ValueType::kInt64, ValueType::kDouble));
  EXPECT_TRUE(TypesComparable(ValueType::kString, ValueType::kString));
  EXPECT_FALSE(TypesComparable(ValueType::kInt64, ValueType::kString));
}

TEST(Value, TypeNames) {
  EXPECT_EQ(ValueTypeToString(ValueType::kInt64), "INT");
  EXPECT_EQ(*ValueTypeFromString("double"), ValueType::kDouble);
  EXPECT_EQ(*ValueTypeFromString("VARCHAR"), ValueType::kString);
  EXPECT_FALSE(ValueTypeFromString("blob").ok());
}

Schema TestSchema() {
  return *Schema::Create({{"ID", ValueType::kInt64},
                          {"L", ValueType::kString},
                          {"V", ValueType::kDouble}});
}

TEST(Schema, CreateValidatesNames) {
  EXPECT_FALSE(Schema::Create({{"", ValueType::kInt64}}).ok());
  EXPECT_FALSE(Schema::Create({{"T", ValueType::kInt64}}).ok());
  EXPECT_FALSE(Schema::Create({{"A", ValueType::kInt64},
                               {"A", ValueType::kString}})
                   .ok());
  EXPECT_TRUE(Schema::Create({}).ok());  // attribute-less events are legal
}

TEST(Schema, Lookup) {
  Schema schema = TestSchema();
  EXPECT_EQ(schema.num_attributes(), 3);
  EXPECT_EQ(*schema.IndexOf("L"), 1);
  EXPECT_FALSE(schema.IndexOf("missing").ok());
  EXPECT_TRUE(schema.Contains("V"));
  EXPECT_EQ(schema.ToString(), "(ID INT, L STRING, V DOUBLE)");
}

TEST(Schema, Equality) {
  EXPECT_EQ(TestSchema(), TestSchema());
  Schema other = *Schema::Create({{"ID", ValueType::kInt64}});
  EXPECT_NE(TestSchema(), other);
}

TEST(Event, AccessorsAndToString) {
  Event e(3, duration::Days(2) + duration::Hours(11),
          {Value(int64_t{1}), Value("B"), Value(84.0)});
  EXPECT_EQ(e.id(), 3);
  EXPECT_EQ(e.timestamp(), duration::Days(2) + duration::Hours(11));
  EXPECT_EQ(e.num_values(), 3);
  EXPECT_EQ(e.value(1).string(), "B");
  EXPECT_EQ(e.ToString(), "e3@2+11:00:00{1, B, 84}");
}

TEST(Event, SharedCopiesShareTheirValues) {
  Event e(3, 7, {Value(int64_t{1}), Value("B"), Value(84.0)});
  Event owned = e;
  EXPECT_NE(&owned.values(), &e.values());
  Event shared = e.Shared();
  Event copy = shared;
  copy.set_id(4);
  EXPECT_EQ(&copy.values(), &shared.values());
  EXPECT_EQ(&copy.Shared().values(), &shared.values());
  EXPECT_EQ(shared.id(), 3);
  EXPECT_EQ(copy.value(1).string(), "B");
  EXPECT_EQ(shared.ToString(), e.ToString());
}

TEST(Event, SharingATemporaryMovesItsValues) {
  Event e(3, 7, {Value(int64_t{1}), Value("B"), Value(84.0)});
  const Value* storage = e.values().data();
  Event shared = std::move(e).Shared();
  EXPECT_EQ(shared.values().data(), storage);
  EXPECT_EQ(shared.id(), 3);
  EXPECT_EQ(shared.timestamp(), 7);
  EXPECT_EQ(shared.value(1).string(), "B");
  Event again = std::move(shared).Shared();
  EXPECT_EQ(again.values().data(), storage);
}

TEST(EventRelation, AppendValidatesArityTypeAndOrder) {
  EventRelation r(TestSchema());
  EXPECT_TRUE(
      r.Append(Event(kInvalidEventId, 10,
                     {Value(int64_t{1}), Value("A"), Value(1.0)}))
          .ok());
  // Wrong arity.
  EXPECT_EQ(r.Append(Event(kInvalidEventId, 11, {Value(int64_t{1})}))
                .code(),
            StatusCode::kInvalidArgument);
  // Wrong type.
  EXPECT_EQ(r.Append(Event(kInvalidEventId, 11,
                           {Value("x"), Value("A"), Value(1.0)}))
                .code(),
            StatusCode::kInvalidArgument);
  // Time going backwards.
  EXPECT_EQ(r.Append(Event(kInvalidEventId, 9,
                           {Value(int64_t{1}), Value("A"), Value(1.0)}))
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(r.size(), 1u);
}

TEST(EventRelation, AssignsSequentialIds) {
  EventRelation r(TestSchema());
  r.AppendUnchecked(1, {Value(int64_t{1}), Value("A"), Value(1.0)});
  r.AppendUnchecked(2, {Value(int64_t{1}), Value("B"), Value(2.0)});
  EXPECT_EQ(r.event(0).id(), 1);
  EXPECT_EQ(r.event(1).id(), 2);
  EXPECT_EQ(r.min_timestamp(), 1);
  EXPECT_EQ(r.max_timestamp(), 2);
}

TEST(EventRelation, ValidateTotalOrderRejectsTies) {
  EventRelation r(TestSchema());
  r.AppendUnchecked(5, {Value(int64_t{1}), Value("A"), Value(1.0)});
  r.AppendUnchecked(5, {Value(int64_t{1}), Value("B"), Value(2.0)});
  EXPECT_EQ(r.ValidateTotalOrder().code(), StatusCode::kFailedPrecondition);
}

EventRelation CsvFixture() {
  EventRelation r(TestSchema());
  r.AppendUnchecked(9, {Value(int64_t{1}), Value("C"), Value(1672.5)});
  r.AppendUnchecked(10, {Value(int64_t{2}), Value("quoted, \"field\""),
                         Value(-0.5)});
  r.AppendUnchecked(11, {Value(int64_t{3}), Value("line\nbreak"),
                         Value(0.0)});
  return r;
}

TEST(Csv, RoundTripPreservesEverything) {
  EventRelation original = CsvFixture();
  std::string csv = WriteCsvString(original);
  Result<EventRelation> parsed = ReadCsvString(csv, original.schema());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed->event(i).timestamp(), original.event(i).timestamp());
    for (int a = 0; a < original.schema().num_attributes(); ++a) {
      EXPECT_EQ(parsed->event(i).value(a), original.event(i).value(a))
          << "row " << i << " attr " << a;
    }
  }
}

TEST(Csv, HeaderIsValidated) {
  Schema schema = TestSchema();
  EXPECT_FALSE(ReadCsvString("", schema).ok());
  EXPECT_FALSE(ReadCsvString("X,ID,L,V\n", schema).ok());
  EXPECT_FALSE(ReadCsvString("T,ID,L\n", schema).ok());      // missing column
  EXPECT_FALSE(ReadCsvString("T,ID,V,L\n", schema).ok());    // wrong order
  EXPECT_TRUE(ReadCsvString("T,ID,L,V\n", schema).ok());     // empty relation
}

TEST(Csv, ColumnarReadKeepsFileOrderAndRanksIds) {
  Schema schema = TestSchema();
  // Time order 10 < 20 < 30, in the file as 20, 10, 30.
  Result<ColumnarBatch> batch = ReadCsvStringColumnar(
      "T,ID,L,V\n20,2,B,2.0\n10,1,A,1.0\n30,3,C,3.0\n", schema);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  std::vector<Event> events = batch->ToEvents();
  ASSERT_EQ(events.size(), 3u);
  // File order is preserved (an engine's stream stage refuses the 10)...
  EXPECT_EQ(events[0].timestamp(), 20);
  EXPECT_EQ(events[1].timestamp(), 10);
  EXPECT_EQ(events[2].timestamp(), 30);
  // ...but ids are timestamp ranks: what the in-order file would assign.
  EXPECT_EQ(events[0].id(), 2);
  EXPECT_EQ(events[1].id(), 1);
  EXPECT_EQ(events[2].id(), 3);
  // The ordered reader still rejects the same bytes.
  EXPECT_FALSE(
      ReadCsvString("T,ID,L,V\n20,2,B,2.0\n10,1,A,1.0\n", schema).ok());
}

TEST(Csv, RejectsMalformedRows) {
  Schema schema = TestSchema();
  // Too few fields.
  EXPECT_FALSE(ReadCsvString("T,ID,L,V\n1,2,A\n", schema).ok());
  // Non-numeric timestamp.
  EXPECT_FALSE(ReadCsvString("T,ID,L,V\nxx,2,A,1.0\n", schema).ok());
  // Non-numeric int attribute.
  EXPECT_FALSE(ReadCsvString("T,ID,L,V\n1,two,A,1.0\n", schema).ok());
  // Unterminated quote.
  EXPECT_FALSE(ReadCsvString("T,ID,L,V\n1,2,\"A,1.0\n", schema).ok());
}

TEST(Csv, ErrorsNameRowAndColumn) {
  Schema schema = TestSchema();
  // Bad timestamp on the second data row: the message names the 1-based
  // data row and the timestamp column 'T'.
  Status bad_ts =
      ReadCsvString("T,ID,L,V\n1,1,A,1.0\nxx,2,B,2.0\n", schema).status();
  EXPECT_EQ(bad_ts.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_ts.message().find("CSV row 2 column 'T'"), std::string::npos)
      << bad_ts.message();
  // Bad INT64 field on row 1, column ID.
  Status bad_int = ReadCsvString("T,ID,L,V\n1,two,A,1.0\n", schema).status();
  EXPECT_NE(bad_int.message().find("CSV row 1 column 'ID'"),
            std::string::npos)
      << bad_int.message();
  // Bad DOUBLE field on row 3, column V.
  Status bad_double =
      ReadCsvString("T,ID,L,V\n1,1,A,1.0\n2,2,B,2.0\n3,3,C,nope\n", schema)
          .status();
  EXPECT_NE(bad_double.message().find("CSV row 3 column 'V'"),
            std::string::npos)
      << bad_double.message();
  // Arity mismatch keeps naming the row.
  Status bad_arity = ReadCsvString("T,ID,L,V\n1,2,A\n", schema).status();
  EXPECT_NE(bad_arity.message().find("CSV row 1"), std::string::npos)
      << bad_arity.message();
  // The columnar reader is the shared decode path, so it reports the same
  // cell.
  Status columnar =
      ReadCsvStringColumnar("T,ID,L,V\n5,x,A,1.0\n", schema).status();
  EXPECT_NE(columnar.message().find("CSV row 1 column 'ID'"),
            std::string::npos)
      << columnar.message();
}

TEST(Csv, ColumnarDecodeMatchesRowDecode) {
  EventRelation original = CsvFixture();
  std::string csv = WriteCsvString(original);
  Result<ColumnarBatch> batch =
      ReadCsvStringColumnar(csv, original.schema());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), original.size());
  std::vector<Event> rows = batch->ToEvents();
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rows[i].id(), original.event(i).id());
    EXPECT_EQ(rows[i].timestamp(), original.event(i).timestamp());
    for (int a = 0; a < original.schema().num_attributes(); ++a) {
      EXPECT_EQ(rows[i].value(a), original.event(i).value(a))
          << "row " << i << " attr " << a;
    }
  }
}

TEST(Csv, FileRoundTrip) {
  EventRelation original = CsvFixture();
  std::string path =
      (std::filesystem::temp_directory_path() / "ses_csv_test.csv").string();
  ASSERT_TRUE(WriteCsvFile(original, path).ok());
  Result<EventRelation> parsed = ReadCsvFile(path, original.schema());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), original.size());
  std::remove(path.c_str());
  EXPECT_FALSE(ReadCsvFile(path, original.schema()).ok());
}

}  // namespace
}  // namespace ses
