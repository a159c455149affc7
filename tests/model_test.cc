#include <gtest/gtest.h>

#include "base/rng.h"
#include "model/collation.h"
#include "model/datetime.h"
#include "model/note.h"
#include "model/unid.h"
#include "model/value.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

// --------------------------------------------------------------- DateTime --

TEST(DateTimeTest, EpochIsCivil1970) {
  CivilDateTime c = MicrosToCivil(0);
  EXPECT_EQ(c.year, 1970);
  EXPECT_EQ(c.month, 1);
  EXPECT_EQ(c.day, 1);
  EXPECT_EQ(c.hour, 0);
}

TEST(DateTimeTest, RoundtripSweep) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    // ±200 years around the epoch.
    Micros t = rng.Range(-6'300'000'000ll, 6'300'000'000ll) * 1'000'000;
    CivilDateTime c = MicrosToCivil(t);
    EXPECT_EQ(CivilToMicros(c), t);
  }
}

TEST(DateTimeTest, FormatAndParse) {
  CivilDateTime c;
  c.year = 2026;
  c.month = 7;
  c.day = 5;
  c.hour = 13;
  c.minute = 45;
  c.second = 9;
  Micros t = CivilToMicros(c);
  EXPECT_EQ(FormatDateTime(t), "2026-07-05 13:45:09");
  auto parsed = ParseDateTime("2026-07-05 13:45:09");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, t);
}

TEST(DateTimeTest, ParseDateOnlyAndPartial) {
  auto day = ParseDateTime("1999-12-31");
  ASSERT_TRUE(day.has_value());
  CivilDateTime c = MicrosToCivil(*day);
  EXPECT_EQ(c.year, 1999);
  EXPECT_EQ(c.hour, 0);
  EXPECT_TRUE(ParseDateTime("2000-02-29").has_value());   // leap day
  EXPECT_FALSE(ParseDateTime("1999-02-29").has_value());  // not a leap year
  EXPECT_FALSE(ParseDateTime("garbage").has_value());
  EXPECT_FALSE(ParseDateTime("2000-13-01").has_value());
}

TEST(DateTimeTest, LeapYears) {
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_TRUE(IsLeapYear(2024));
  EXPECT_FALSE(IsLeapYear(2026));
  EXPECT_EQ(DaysInMonth(2024, 2), 29);
  EXPECT_EQ(DaysInMonth(2026, 2), 28);
  EXPECT_EQ(DaysInMonth(2026, 4), 30);
}

TEST(DateTimeTest, WeekdaySundayIsOne) {
  // 1970-01-01 was a Thursday → 5 in Notes numbering.
  EXPECT_EQ(WeekdayOf(0), 5);
  // 2026-07-05 is a Sunday.
  EXPECT_EQ(WeekdayOf(*ParseDateTime("2026-07-05")), 1);
}

TEST(DateTimeTest, MonthNormalization) {
  CivilDateTime c;
  c.year = 2025;
  c.month = 14;  // → February 2026
  c.day = 10;
  CivilDateTime back = MicrosToCivil(CivilToMicros(c));
  EXPECT_EQ(back.year, 2026);
  EXPECT_EQ(back.month, 2);
}

// ------------------------------------------------------------------ Value --

TEST(ValueTest, FactoriesAndAccessors) {
  Value t = Value::Text("hi");
  EXPECT_TRUE(t.is_text());
  EXPECT_EQ(t.AsText(), "hi");
  EXPECT_EQ(t.size(), 1u);

  Value n = Value::NumberList({1, 2, 3});
  EXPECT_EQ(n.size(), 3u);
  EXPECT_EQ(n.AsNumber(), 1.0);

  Value d = Value::DateTime(123456);
  EXPECT_EQ(d.AsTime(), 123456);

  Value r = Value::RichText({RichTextRun{"body text", 1, "file.txt"}});
  EXPECT_EQ(r.AsText(), "body text");
}

TEST(ValueTest, Coercions) {
  EXPECT_EQ(Value::Text("42.5").AsNumber(), 42.5);
  EXPECT_EQ(Value::Text("nonsense").AsNumber(), 0.0);
  EXPECT_EQ(Value::Number(7).AsText(), "7");
  EXPECT_TRUE(Value::Number(1).AsBool());
  EXPECT_FALSE(Value::Number(0).AsBool());
  EXPECT_TRUE(Value::Text("x").AsBool());
  EXPECT_FALSE(Value::Text("").AsBool());
  EXPECT_EQ(Value::Text("2020-05-01").AsTime(),
            *ParseDateTime("2020-05-01"));
}

TEST(ValueTest, DisplayStrings) {
  EXPECT_EQ(Value::TextList({"a", "b"}).ToDisplayString(), "a; b");
  EXPECT_EQ(Value::NumberList({1.5, 2}).ToDisplayString(), "1.5; 2");
  EXPECT_EQ(FormatNumber(3.0), "3");
  EXPECT_EQ(FormatNumber(-12.25), "-12.25");
  EXPECT_EQ(FormatNumber(1e10), "10000000000");
}

Value RandomValue(Rng* rng) {
  switch (rng->Uniform(4)) {
    case 0: {
      std::vector<std::string> texts;
      for (uint64_t i = 0, n = rng->Uniform(4); i < n; ++i) {
        texts.push_back(rng->Word(0, 12));
      }
      return Value::TextList(std::move(texts));
    }
    case 1: {
      std::vector<double> nums;
      for (uint64_t i = 0, n = rng->Uniform(4); i < n; ++i) {
        nums.push_back((rng->NextDouble() - 0.5) * 1e6);
      }
      return Value::NumberList(std::move(nums));
    }
    case 2: {
      std::vector<Micros> times;
      for (uint64_t i = 0, n = rng->Uniform(4); i < n; ++i) {
        times.push_back(rng->Range(0, 4'000'000'000ll) * 1000);
      }
      return Value::DateTimeList(std::move(times));
    }
    default: {
      std::vector<RichTextRun> runs;
      for (uint64_t i = 0, n = rng->Uniform(3); i < n; ++i) {
        runs.push_back(RichTextRun{rng->Word(1, 40),
                                   static_cast<uint8_t>(rng->Uniform(8)),
                                   rng->Word(0, 8)});
      }
      return Value::RichText(std::move(runs));
    }
  }
}

TEST(ValueTest, EncodeDecodeRoundtripSweep) {
  Rng rng(21);
  for (int i = 0; i < 500; ++i) {
    Value v = RandomValue(&rng);
    std::string buf;
    v.EncodeTo(&buf);
    std::string_view in = buf;
    Value decoded;
    ASSERT_OK(Value::DecodeFrom(&in, &decoded));
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(decoded, v);
  }
}

TEST(ValueTest, DecodeRejectsCorruption) {
  Value v = Value::TextList({"aa", "bb"});
  std::string buf;
  v.EncodeTo(&buf);
  // Truncations must never crash and must mostly fail.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view in(buf.data(), cut);
    Value decoded;
    auto st = Value::DecodeFrom(&in, &decoded);
    (void)st;  // no crash is the contract; most cuts fail
  }
  std::string bad = buf;
  bad[0] = 99;  // invalid type tag
  std::string_view in = bad;
  Value decoded;
  EXPECT_FALSE(Value::DecodeFrom(&in, &decoded).ok());
}

// ------------------------------------------------------------------- Unid --

TEST(UnidTest, StringRoundtrip) {
  Unid u{0x0123456789abcdefull, 0xfedcba9876543210ull};
  EXPECT_EQ(u.ToString().size(), 32u);
  EXPECT_EQ(Unid::FromString(u.ToString()), u);
  EXPECT_TRUE(Unid::FromString("xyz").IsNull());
  EXPECT_TRUE(Unid{}.IsNull());
}

TEST(OidTest, CompareOids) {
  Oid base{Unid{1, 2}, 3, 1000};
  EXPECT_EQ(CompareOids(base, base), OidRelation::kEqual);
  Oid newer = base;
  newer.sequence = 4;
  newer.sequence_time = 2000;
  EXPECT_EQ(CompareOids(base, newer), OidRelation::kRemoteNewer);
  EXPECT_EQ(CompareOids(newer, base), OidRelation::kLocalNewer);
  Oid concurrent = base;
  concurrent.sequence_time = 999;  // same seq, different time
  EXPECT_EQ(CompareOids(base, concurrent), OidRelation::kConflict);
}

// ------------------------------------------------------------------- Note --

TEST(NoteTest, ItemsAreCaseInsensitive) {
  Note note;
  note.SetText("Subject", "hello");
  EXPECT_TRUE(note.HasItem("SUBJECT"));
  EXPECT_EQ(note.GetText("subject"), "hello");
  note.SetText("SUBJECT", "bye");
  EXPECT_EQ(note.items().size(), 1u);
  EXPECT_EQ(note.GetText("Subject"), "bye");
  EXPECT_TRUE(note.RemoveItem("suBJect"));
  EXPECT_FALSE(note.HasItem("Subject"));
}

TEST(NoteTest, LifecycleStamps) {
  Note note;
  note.StampCreated(Unid{5, 6}, 1000);
  EXPECT_EQ(note.sequence(), 1u);
  EXPECT_EQ(note.sequence_time(), 1000);
  EXPECT_EQ(note.created(), 1000);
  note.BumpSequence(2000);
  EXPECT_EQ(note.sequence(), 2u);
  EXPECT_EQ(note.sequence_time(), 2000);
  ASSERT_EQ(note.revisions().size(), 1u);
  EXPECT_EQ(note.revisions()[0], 1000);
  EXPECT_TRUE(note.HasRevision(1000));
  EXPECT_TRUE(note.HasRevision(2000));  // current counts
  EXPECT_FALSE(note.HasRevision(1500));
}

TEST(NoteTest, RevisionHistoryIsCapped) {
  Note note;
  note.StampCreated(Unid{1, 1}, 0);
  for (int i = 1; i <= 100; ++i) note.BumpSequence(i * 10);
  EXPECT_EQ(note.revisions().size(), Note::kMaxRevisions);
  EXPECT_EQ(note.sequence(), 101u);
  // Oldest revisions dropped, newest retained.
  EXPECT_FALSE(note.HasRevision(10));
  EXPECT_TRUE(note.HasRevision(990));
}

TEST(NoteTest, MakeStubDropsItemsKeepsIdentity) {
  Note note = testing_util::MakeDoc("Memo", "secret", 5);
  note.StampCreated(Unid{9, 9}, 100);
  note.MakeStub(200);
  EXPECT_TRUE(note.deleted());
  EXPECT_TRUE(note.items().empty());
  EXPECT_EQ(note.unid(), (Unid{9, 9}));
  EXPECT_EQ(note.sequence(), 2u);
}

TEST(NoteTest, SerializationRoundtripSweep) {
  Rng rng(33);
  for (int i = 0; i < 300; ++i) {
    Note note(static_cast<NoteClass>(rng.Uniform(6)));
    note.set_id(static_cast<NoteId>(rng.Uniform(100000) + 1));
    note.StampCreated(Unid{rng.Next(), rng.Next()},
                      rng.Range(0, 1'000'000'000));
    for (uint64_t k = 0, n = rng.Uniform(6); k < n; ++k) {
      note.BumpSequence(note.sequence_time() +
                        static_cast<Micros>(rng.Uniform(10000) + 1));
    }
    if (rng.Bernoulli(0.3)) note.set_parent_unid(Unid{rng.Next(), 1});
    for (uint64_t k = 0, n = rng.Uniform(8); k < n; ++k) {
      note.SetItem(rng.Word(1, 10), RandomValue(&rng),
                   static_cast<uint8_t>(rng.Uniform(32)));
    }
    if (rng.Bernoulli(0.1)) note.MakeStub(note.sequence_time() + 5);

    std::string encoded = note.EncodeToString();
    Note decoded;
    ASSERT_OK(Note::DecodeFromString(encoded, &decoded));
    EXPECT_EQ(decoded.id(), note.id());
    EXPECT_EQ(decoded.oid(), note.oid());
    EXPECT_EQ(decoded.note_class(), note.note_class());
    EXPECT_EQ(decoded.created(), note.created());
    EXPECT_EQ(decoded.deleted(), note.deleted());
    EXPECT_EQ(decoded.parent_unid(), note.parent_unid());
    EXPECT_EQ(decoded.revisions(), note.revisions());
    EXPECT_TRUE(decoded.EqualsContent(note));
  }
}

TEST(NoteTest, EqualsContentIgnoresOrderAndId) {
  Note a, b;
  a.SetText("X", "1");
  a.SetNumber("Y", 2);
  b.SetNumber("Y", 2);
  b.SetText("X", "1");
  b.set_id(99);
  EXPECT_TRUE(a.EqualsContent(b));
  b.SetText("X", "other");
  EXPECT_FALSE(a.EqualsContent(b));
}

// Copies share one item block; every mutator clones it first, so the
// source of a copy never changes underneath its reader.
TEST(NoteTest, CopyOnWriteLeavesSourceUnchanged) {
  Note source = testing_util::MakeDoc("Memo", "original", 5);
  source.StampCreated(Unid{7, 7}, 100);
  source.StampItemModifications(nullptr, 100);
  const std::string before = source.EncodeToString();
  const Item* first_item = &source.items()[0];

  const std::vector<std::pair<const char*, void (*)(Note*)>> mutators = {
      {"SetItem", [](Note* n) { n->SetText("Subject", "changed"); }},
      {"SetItem(new)", [](Note* n) { n->SetNumber("Extra", 1); }},
      {"RemoveItem", [](Note* n) { EXPECT_TRUE(n->RemoveItem("Form")); }},
      {"MakeStub", [](Note* n) { n->MakeStub(200); }},
      {"StampItemModifications",
       [](Note* n) { n->StampItemModifications(nullptr, 300); }},
      {"mutable_items",
       [](Note* n) { n->mutable_items()[0].value = Value::Text("raw"); }},
  };
  for (const auto& [name, mutate] : mutators) {
    Note copy = source;
    EXPECT_EQ(&copy.items()[0], first_item) << name << ": copy shares items";
    mutate(&copy);
    EXPECT_EQ(source.EncodeToString(), before) << name;
    EXPECT_EQ(&source.items()[0], first_item) << name;
    EXPECT_NE(copy.EncodeToString(), before) << name;
  }

  // The other direction: mutating the source leaves an earlier copy alone.
  Note copy = source;
  const std::string copy_before = copy.EncodeToString();
  source.SetText("Subject", "source changed");
  EXPECT_EQ(copy.EncodeToString(), copy_before);

  // An unshared note mutates in place, and a no-op RemoveItem never clones.
  Note sole = testing_util::MakeDoc("Memo", "sole");
  const Item* sole_item = &sole.items()[0];
  sole.SetText("Subject", "still sole");
  EXPECT_EQ(&sole.items()[0], sole_item);
  Note shared = sole;
  EXPECT_FALSE(shared.RemoveItem("Absent"));
  EXPECT_EQ(&shared.items()[0], sole_item);
}

// -------------------------------------------------------------- Collation --

TEST(CollationTest, TypeRankOrder) {
  // numbers < datetimes < text.
  EXPECT_LT(CompareValues(Value::Number(1e12), Value::DateTime(0)), 0);
  EXPECT_LT(CompareValues(Value::DateTime(1), Value::Text("a")), 0);
  EXPECT_LT(CompareValues(Value::Number(5), Value::Text("0")), 0);
}

TEST(CollationTest, TextCaseInsensitive) {
  EXPECT_EQ(CompareValues(Value::Text("Apple"), Value::Text("aPPLE")), 0);
  EXPECT_LT(CompareValues(Value::Text("apple"), Value::Text("Banana")), 0);
}

TEST(CollationTest, ListsCompareElementwise) {
  EXPECT_LT(CompareValues(Value::NumberList({1, 2}),
                          Value::NumberList({1, 3})),
            0);
  EXPECT_LT(CompareValues(Value::NumberList({1}),
                          Value::NumberList({1, 0})),
            0);
}

TEST(CollationTest, KeyOrderMatchesCompareSweep) {
  Rng rng(77);
  std::vector<Value> values;
  for (int i = 0; i < 120; ++i) {
    Value v = RandomValue(&rng);
    if (!v.is_richtext()) values.push_back(std::move(v));
  }
  for (const Value& a : values) {
    for (const Value& b : values) {
      std::string ka, kb;
      EncodeCollationElement(a, false, &ka);
      EncodeCollationElement(b, false, &kb);
      int cmp = CompareValues(a, b);
      if (cmp < 0) {
        EXPECT_LT(ka, kb) << a.ToDisplayString() << " vs "
                          << b.ToDisplayString();
      } else if (cmp > 0) {
        EXPECT_GT(ka, kb) << a.ToDisplayString() << " vs "
                          << b.ToDisplayString();
      }
    }
  }
}

TEST(CollationTest, DescendingInvertsOrder) {
  std::string a, b;
  EncodeCollationElement(Value::Number(1), true, &a);
  EncodeCollationElement(Value::Number(2), true, &b);
  EXPECT_GT(a, b);
}

TEST(CollationTest, CompositeKeys) {
  std::string k1 = EncodeCollationKey(
      {Value::Text("alpha"), Value::Number(2)}, {false, false});
  std::string k2 = EncodeCollationKey(
      {Value::Text("alpha"), Value::Number(10)}, {false, false});
  std::string k3 = EncodeCollationKey(
      {Value::Text("beta"), Value::Number(0)}, {false, false});
  EXPECT_LT(k1, k2);
  EXPECT_LT(k2, k3);
}

}  // namespace
}  // namespace dominodb
