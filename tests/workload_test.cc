// Tests for workload generation: the chemotherapy generator, dataset
// replication (D1..D5), window-size computation (Definition 5), and the
// generic stream generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "workload/chemotherapy.h"
#include "workload/generic_generator.h"
#include "workload/paper_fixture.h"
#include "workload/replicate.h"
#include "workload/window.h"

namespace ses::workload {
namespace {

TEST(WindowSize, EmptyAndSingle) {
  EventRelation empty(ChemotherapySchema());
  EXPECT_EQ(ComputeWindowSize(empty, 100), 0);
  EventRelation one(ChemotherapySchema());
  one.AppendUnchecked(5, {Value(int64_t{1}), Value(std::string("A")),
                          Value(0.0), Value(std::string("u"))});
  EXPECT_EQ(ComputeWindowSize(one, 100), 1);
}

TEST(WindowSize, CountsDenseClusters) {
  EventRelation r(ChemotherapySchema());
  for (Timestamp t : {0, 10, 20, 30, 1000, 1005, 1010, 5000}) {
    r.AppendUnchecked(t, {Value(int64_t{1}), Value(std::string("A")),
                          Value(0.0), Value(std::string("u"))});
  }
  EXPECT_EQ(ComputeWindowSize(r, 30), 4);   // 0..30
  EXPECT_EQ(ComputeWindowSize(r, 10), 3);   // 1000..1010 (or 0..10? that's 2)
  EXPECT_EQ(ComputeWindowSize(r, 5000), 8);
  EXPECT_EQ(ComputeWindowSize(r, 1), 1);
}

TEST(WindowSize, BoundaryIsInclusive) {
  EventRelation r(ChemotherapySchema());
  r.AppendUnchecked(0, {Value(int64_t{1}), Value(std::string("A")),
                        Value(0.0), Value(std::string("u"))});
  r.AppendUnchecked(100, {Value(int64_t{1}), Value(std::string("A")),
                          Value(0.0), Value(std::string("u"))});
  EXPECT_EQ(ComputeWindowSize(r, 100), 2);
  EXPECT_EQ(ComputeWindowSize(r, 99), 1);
}

TEST(Replicate, MultipliesEventsAndWindowSize) {
  EventRelation base = PaperEventRelation();
  Result<EventRelation> d2 = ReplicateDataset(base, 2);
  ASSERT_TRUE(d2.ok()) << d2.status().ToString();
  EXPECT_EQ(d2->size(), base.size() * 2);
  EXPECT_TRUE(d2->ValidateTotalOrder().ok());
  // W nearly doubles (Example 9 gives 14 for the base relation): e1 and
  // e14 are exactly 264h apart, so the last k-1 copies of e14 fall just
  // outside a window anchored at the first copy of e1 — W = k·14 - (k-1).
  EXPECT_EQ(ComputeWindowSize(*d2, duration::Hours(264)), 27);
  Result<EventRelation> d5 = ReplicateDataset(base, 5);
  ASSERT_TRUE(d5.ok());
  EXPECT_EQ(ComputeWindowSize(*d5, duration::Hours(264)), 66);
  // Sized once up front, not grown by doubling.
  EXPECT_EQ(d5->events().capacity(), base.size() * 5);
}

TEST(Replicate, CopiesKeepContent) {
  EventRelation base = PaperEventRelation();
  Result<EventRelation> d3 = ReplicateDataset(base, 3);
  ASSERT_TRUE(d3.ok());
  for (size_t i = 0; i < base.size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      const Event& copy = d3->event(3 * i + k);
      EXPECT_EQ(copy.timestamp(), base.event(i).timestamp() + k);
      EXPECT_EQ(copy.values(), base.event(i).values());
    }
  }
}

TEST(Replicate, RejectsBadInput) {
  EventRelation base = PaperEventRelation();
  EXPECT_FALSE(ReplicateDataset(base, 0).ok());
  // Gap of 1 tick cannot host 2 copies.
  EventRelation dense(ChemotherapySchema());
  dense.AppendUnchecked(0, {Value(int64_t{1}), Value(std::string("A")),
                            Value(0.0), Value(std::string("u"))});
  dense.AppendUnchecked(1, {Value(int64_t{1}), Value(std::string("A")),
                            Value(0.0), Value(std::string("u"))});
  EXPECT_EQ(ReplicateDataset(dense, 2).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Chemotherapy, GeneratesWellFormedStream) {
  ChemotherapyOptions options;
  options.num_patients = 10;
  options.cycles_per_patient = 2;
  options.lab_measurements_per_cycle = 0;
  options.seed = 7;
  EventRelation r = GenerateChemotherapy(options);
  EXPECT_TRUE(r.ValidateTotalOrder().ok());
  // 10 patients × 2 cycles × (C, D, P×3, V, R, L, B×2) = 10 events/cycle.
  EXPECT_EQ(r.size(), 10u * 2u * 10u);

  std::map<std::string, int> type_counts;
  for (const Event& e : r) {
    type_counts[e.value(1).string()] += 1;
    int64_t patient = e.value(0).int64();
    EXPECT_GE(patient, 1);
    EXPECT_LE(patient, 10);
  }
  EXPECT_EQ(type_counts["C"], 20);
  EXPECT_EQ(type_counts["D"], 20);
  EXPECT_EQ(type_counts["P"], 60);
  EXPECT_EQ(type_counts["V"], 20);
  EXPECT_EQ(type_counts["R"], 20);
  EXPECT_EQ(type_counts["L"], 20);
  EXPECT_EQ(type_counts["B"], 40);
}

TEST(Chemotherapy, LabMeasurementsAreTypeXNoise) {
  ChemotherapyOptions options;
  options.num_patients = 4;
  options.cycles_per_patient = 2;
  options.lab_measurements_per_cycle = 5;
  options.seed = 21;
  EventRelation r = GenerateChemotherapy(options);
  int labs = 0;
  for (const Event& e : r) {
    if (e.value(1).string() == "X") {
      ++labs;
      EXPECT_EQ(e.value(3).string(), "misc");
    }
  }
  EXPECT_EQ(labs, 4 * 2 * 5);
  EXPECT_EQ(r.size(), 4u * 2u * 15u);
}

TEST(Chemotherapy, DeterministicForSeed) {
  ChemotherapyOptions options;
  options.num_patients = 5;
  options.seed = 3;
  EventRelation a = GenerateChemotherapy(options);
  EventRelation b = GenerateChemotherapy(options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.event(i).timestamp(), b.event(i).timestamp());
    EXPECT_EQ(a.event(i).values(), b.event(i).values());
  }
  options.seed = 4;
  EventRelation c = GenerateChemotherapy(options);
  bool differs = false;
  for (size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
    if (a.event(i).timestamp() != c.event(i).timestamp()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Chemotherapy, AdministrationOrderVariesAcrossCycles) {
  // The generator must not always emit C before D before P — permutation
  // variability is the point of SES patterns.
  ChemotherapyOptions options;
  options.num_patients = 30;
  options.cycles_per_patient = 1;
  options.seed = 11;
  EventRelation r = GenerateChemotherapy(options);
  int c_before_d = 0;
  int d_before_c = 0;
  std::map<int64_t, std::pair<Timestamp, Timestamp>> first_cd;
  for (const Event& e : r) {
    const std::string& type = e.value(1).string();
    int64_t patient = e.value(0).int64();
    if (type == "C") first_cd[patient].first = e.timestamp();
    if (type == "D") first_cd[patient].second = e.timestamp();
  }
  for (const auto& [patient, cd] : first_cd) {
    if (cd.first < cd.second) {
      ++c_before_d;
    } else {
      ++d_before_c;
    }
  }
  EXPECT_GT(c_before_d, 0);
  EXPECT_GT(d_before_c, 0);
}

TEST(Chemotherapy, DefaultCalibrationNearPaperD1) {
  // The default options target the paper's D1 window size (W = 1322 at
  // τ = 264h) — accept a generous band, the *scaling* D1..D5 is what the
  // experiments rely on.
  EventRelation r = GenerateChemotherapy(ChemotherapyOptions{});
  int64_t w = ComputeWindowSize(r, duration::Hours(264));
  EXPECT_GT(w, 1322 * 0.9);
  EXPECT_LT(w, 1322 * 1.1);
}

TEST(GenericGenerator, HonorsOptions) {
  StreamOptions options;
  options.num_events = 500;
  options.num_partitions = 2;
  options.type_weights = {{"A", 1.0}, {"B", 3.0}};
  options.min_gap = 2;
  options.max_gap = 4;
  options.seed = 9;
  EventRelation r = GenerateStream(options);
  ASSERT_EQ(r.size(), 500u);
  EXPECT_TRUE(r.ValidateTotalOrder().ok());
  int count_b = 0;
  for (size_t i = 0; i < r.size(); ++i) {
    const Event& e = r.event(i);
    EXPECT_GE(e.value(0).int64(), 1);
    EXPECT_LE(e.value(0).int64(), 2);
    if (e.value(1).string() == "B") ++count_b;
    if (i > 0) {
      Timestamp gap = e.timestamp() - r.event(i - 1).timestamp();
      EXPECT_GE(gap, 2);
      EXPECT_LE(gap, 4);
    }
  }
  // B is 3x as likely as A: expect roughly 375, allow wide slack.
  EXPECT_GT(count_b, 300);
  EXPECT_LT(count_b, 450);
}

TEST(GenericGenerator, KeySkewProducesAHotKey) {
  StreamOptions options;
  options.num_events = 4000;
  options.num_partitions = 32;
  options.key_skew = 1.2;
  options.seed = 11;
  EventRelation r = GenerateStream(options);
  ASSERT_EQ(r.size(), 4000u);
  EXPECT_TRUE(r.ValidateTotalOrder().ok());
  std::vector<int> counts(33, 0);
  for (const Event& e : r) {
    int64_t id = e.value(0).int64();
    ASSERT_GE(id, 1);
    ASSERT_LE(id, 32);
    ++counts[static_cast<size_t>(id)];
  }
  // Zipf(32, 1.2): key 1 draws ~24% of all events — far above the uniform
  // 1/32 ≈ 3%: one hot key that loads its parallel shard far above the
  // others.
  EXPECT_GT(counts[1], 4000 / 8);
  // A uniform stream with the same seed has no such concentration.
  StreamOptions uniform = options;
  uniform.key_skew = 0.0;
  EventRelation u = GenerateStream(uniform);
  std::vector<int> ucounts(33, 0);
  for (const Event& e : u) ++ucounts[static_cast<size_t>(e.value(0).int64())];
  EXPECT_LT(*std::max_element(ucounts.begin(), ucounts.end()), 4000 / 8);
}

}  // namespace
}  // namespace ses::workload
