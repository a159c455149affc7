// Differential oracle for FullTextIndex: a seeded script of creates,
// edits, deletes and deletion stubs runs against the index and against a
// brute-force model that keeps every indexed version as a plain token
// list. Pins are held across epochs and ReclaimVersions runs at random
// floors at or below the oldest pin. Random queries (terms, phrases,
// AND/OR/NOT, FIELD name CONTAINS) are evaluated by the model directly
// over the versions visible at each pin, and must give the index's hits
// in the index's order with scores equal within 1e-9.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/string_util.h"
#include "fulltext/fulltext_index.h"
#include "fulltext/tokenizer.h"

namespace dominodb {
namespace {

// A small vocabulary, so phrases and conjunctions hit. None is a query
// keyword (AND, OR, NOT, FIELD, CONTAINS).
const char* const kWords[] = {"lotus", "notes", "domino", "view", "mail",
                              "router", "agent", "replica", "acl", "form",
                              "doc", "id"};
constexpr size_t kWordCount = sizeof(kWords) / sizeof(kWords[0]);
const char* const kFields[] = {"Subject", "Tags", "Body", "Category"};

// Must match the index's gap between items with tokens.
constexpr uint32_t kItemGap = 1000;

std::string RandomText(Rng* rng, int max_words) {
  std::string text;
  const int n = static_cast<int>(rng->Range(0, max_words));
  for (int i = 0; i < n; ++i) {
    if (i > 0) text += rng->Bernoulli(0.2) ? ", " : " ";
    std::string word = kWords[rng->Uniform(kWordCount)];
    if (rng->Bernoulli(0.2)) word[0] = static_cast<char>(word[0] - 'a' + 'A');
    text += word;
    if (rng->Bernoulli(0.1)) text += " x";  // a dropped one-letter token
  }
  return text;
}

Note RandomNote(Rng* rng, NoteId id) {
  Note note(rng->Bernoulli(0.05) ? NoteClass::kForm : NoteClass::kDocument);
  note.set_id(id);
  std::vector<Item>& items = note.mutable_items();
  items.push_back(Item{"Subject", Value::Text(RandomText(rng, 4))});
  // Same-named items: each gets its own field slice.
  const int tags = static_cast<int>(rng->Range(0, 2));
  for (int t = 0; t < tags; ++t) {
    items.push_back(Item{t == 0 ? "Tags" : "tags",
                         Value::TextList({RandomText(rng, 2),
                                          RandomText(rng, 2)})});
  }
  std::vector<RichTextRun> runs;
  const int run_count = static_cast<int>(rng->Range(0, 2));
  for (int r = 0; r < run_count; ++r) {
    runs.push_back(RichTextRun{RandomText(rng, 8), 0,
                               rng->Bernoulli(0.3) ? RandomText(rng, 1) : ""});
  }
  items.push_back(Item{"Body", Value::RichText(std::move(runs))});
  if (rng->Bernoulli(0.5)) {
    items.push_back(Item{"Category", Value::Text(RandomText(rng, 1))});
  }
  items.push_back(Item{"Amount", Value::Number(1)});  // never indexed
  return note;
}

// -- The model ----------------------------------------------------------

struct Occurrence {
  std::string field;  // lower-cased item name
  std::string term;
  uint32_t position;
};

struct ModelVersion {
  NoteId id = kInvalidNoteId;
  Epoch added = kEpochNone;
  Epoch removed = kEpochMax;
  std::vector<Occurrence> occurrences;

  // Ascending positions of `term`, within `field` when it is non-empty.
  std::vector<uint32_t> Positions(const std::string& term,
                                  const std::string& field = "") const {
    std::vector<uint32_t> out;
    for (const Occurrence& o : occurrences) {
      if (o.term == term && (field.empty() || o.field == field)) {
        out.push_back(o.position);
      }
    }
    return out;
  }
};

ModelVersion Tokenize(const Note& note, Epoch epoch) {
  ModelVersion v;
  v.id = note.id();
  v.added = epoch;
  uint32_t position = 0;
  for (const Item& item : note.items()) {
    std::vector<std::string> texts;
    if (item.value.is_text()) {
      texts = item.value.texts();
    } else if (item.value.is_richtext()) {
      for (const RichTextRun& run : item.value.runs()) {
        texts.push_back(run.text);
        if (!run.attachment_name.empty()) texts.push_back(run.attachment_name);
      }
    }
    bool any = false;
    for (const std::string& text : texts) {
      for (const std::string& token : TokenizeText(text)) {
        v.occurrences.push_back(Occurrence{ToLower(item.name), token,
                                           position++});
        any = true;
      }
    }
    if (any) position += kItemGap;
  }
  return v;
}

/// Every version the index should still hold, by the ViewIndex rule.
class Model {
 public:
  void Index(const Note& note, Epoch epoch) {
    Remove(note.id(), epoch);
    if (note.deleted() || note.note_class() != NoteClass::kDocument) return;
    live_[note.id()] = versions_.size();
    versions_.push_back(Tokenize(note, epoch));
  }

  void Remove(NoteId id, Epoch epoch) {
    auto it = live_.find(id);
    if (it == live_.end()) return;
    const size_t at = it->second;
    live_.erase(it);
    ModelVersion& v = versions_[at];
    if (epoch == kEpochNone || v.added == epoch || epoch <= floor_) {
      Erase(at);
    } else {
      v.removed = epoch;
    }
  }

  void Reclaim(Epoch floor) {
    floor_ = std::max(floor_, floor);
    for (size_t i = versions_.size(); i-- > 0;) {
      if (versions_[i].removed != kEpochMax && versions_[i].removed <= floor) {
        Erase(i);
      }
    }
  }

  size_t live() const { return live_.size(); }
  size_t zombies() const { return versions_.size() - live_.size(); }
  size_t terms() const {
    std::set<std::string> terms;
    for (const ModelVersion& v : versions_) {
      for (const Occurrence& o : v.occurrences) terms.insert(o.term);
    }
    return terms.size();
  }
  const std::vector<ModelVersion>& versions() const { return versions_; }

  double Idf(const std::string& term) const {
    size_t df = 0;
    for (const ModelVersion& v : versions_) {
      if (!v.Positions(term).empty()) ++df;
    }
    return std::log(1.0 + static_cast<double>(versions_.size()) /
                              static_cast<double>(df + 1));
  }

 private:
  void Erase(size_t at) {
    const size_t last = versions_.size() - 1;
    if (at != last) {
      versions_[at] = std::move(versions_[last]);
      auto it = live_.find(versions_[at].id);
      if (it != live_.end() && it->second == last) it->second = at;
    }
    versions_.pop_back();
  }

  std::vector<ModelVersion> versions_;
  std::map<NoteId, size_t> live_;
  Epoch floor_ = kEpochNone;
};

// -- Queries ------------------------------------------------------------

struct Query {
  enum Kind { kTerm, kPhrase, kField, kAnd, kOr, kNot } kind = kTerm;
  std::vector<std::string> words;  // kTerm: one; kPhrase/kField: 1+
  std::string field;               // kField, as written in the query
  std::unique_ptr<Query> a, b;
};

std::unique_ptr<Query> RandomQuery(Rng* rng, int depth) {
  auto q = std::make_unique<Query>();
  const uint64_t roll = rng->Uniform(depth > 0 ? 6 : 3);
  auto words = [&](int max) {
    const int n = static_cast<int>(rng->Range(1, max));
    for (int i = 0; i < n; ++i) {
      q->words.push_back(kWords[rng->Uniform(kWordCount)]);
    }
  };
  switch (roll) {
    case 0:
      q->kind = Query::kTerm;
      words(1);
      break;
    case 1:
      q->kind = Query::kPhrase;
      words(3);
      break;
    case 2:
      q->kind = Query::kField;
      q->field = kFields[rng->Uniform(4)];
      if (rng->Bernoulli(0.3)) q->field = ToLower(q->field);
      words(2);
      break;
    case 3:
    case 4:
      q->kind = roll == 3 ? Query::kAnd : Query::kOr;
      q->a = RandomQuery(rng, depth - 1);
      q->b = RandomQuery(rng, depth - 1);
      break;
    default:
      q->kind = Query::kNot;
      q->a = RandomQuery(rng, depth - 1);
      break;
  }
  return q;
}

std::string Render(const Query& q) {
  auto joined = [&] {
    std::string s;
    for (const std::string& w : q.words) s += (s.empty() ? "" : " ") + w;
    return s;
  };
  switch (q.kind) {
    case Query::kTerm:
      return q.words[0];
    case Query::kPhrase:
      return "\"" + joined() + "\"";
    case Query::kField:
      return "FIELD " + q.field + " CONTAINS " +
             (q.words.size() == 1 ? q.words[0] : "\"" + joined() + "\"");
    case Query::kAnd:
      return "(" + Render(*q.a) + " AND " + Render(*q.b) + ")";
    case Query::kOr:
      return "(" + Render(*q.a) + " OR " + Render(*q.b) + ")";
    case Query::kNot:
      return "NOT (" + Render(*q.a) + ")";
  }
  return "";
}

struct Match {
  bool hit = false;
  double score = 0;
};

/// Start positions of the first word whose successors follow it.
size_t ConsecutiveMatches(const ModelVersion& v,
                          const std::vector<std::string>& words,
                          const std::string& field) {
  std::vector<std::vector<uint32_t>> positions;
  for (const std::string& w : words) positions.push_back(v.Positions(w, field));
  size_t matches = 0;
  for (uint32_t p : positions[0]) {
    bool all = true;
    for (size_t k = 1; k < words.size(); ++k) {
      if (!std::binary_search(positions[k].begin(), positions[k].end(),
                              p + static_cast<uint32_t>(k))) {
        all = false;
        break;
      }
    }
    if (all) ++matches;
  }
  return matches;
}

Match Evaluate(const Model& model, const Query& q, const ModelVersion& v) {
  switch (q.kind) {
    case Query::kTerm: {
      const size_t freq = v.Positions(q.words[0]).size();
      if (freq == 0) return {};
      return {true, static_cast<double>(freq) * model.Idf(q.words[0])};
    }
    case Query::kPhrase:
    case Query::kField: {
      double idf_sum = 0;
      for (const std::string& w : q.words) idf_sum += model.Idf(w);
      const size_t matches = ConsecutiveMatches(
          v, q.words, q.kind == Query::kField ? ToLower(q.field) : "");
      if (matches == 0) return {};
      return {true, static_cast<double>(matches) * idf_sum};
    }
    case Query::kAnd: {
      Match a = Evaluate(model, *q.a, v);
      Match b = Evaluate(model, *q.b, v);
      if (!a.hit || !b.hit) return {};
      return {true, a.score + b.score};
    }
    case Query::kOr: {
      Match a = Evaluate(model, *q.a, v);
      Match b = Evaluate(model, *q.b, v);
      if (a.hit && b.hit) return {true, a.score + b.score};
      return a.hit ? a : b;
    }
    case Query::kNot:
      if (Evaluate(model, *q.a, v).hit) return {};
      return {true, 0.1};
  }
  return {};
}

std::vector<FtHit> Expected(const Model& model, const Query& q, Epoch at) {
  std::vector<FtHit> hits;
  for (const ModelVersion& v : model.versions()) {
    if (!EpochVisible(v.added, v.removed, at)) continue;
    Match m = Evaluate(model, q, v);
    if (m.hit) hits.push_back(FtHit{v.id, m.score});
  }
  std::sort(hits.begin(), hits.end(), [](const FtHit& a, const FtHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.note_id < b.note_id;
  });
  return hits;
}

// -- The script ---------------------------------------------------------

void CheckQueries(const FullTextIndex& index, const Model& model, Rng* rng,
                  const std::vector<Epoch>& pins, int queries) {
  for (int i = 0; i < queries; ++i) {
    std::unique_ptr<Query> q = RandomQuery(rng, 3);
    const std::string text = Render(*q);
    std::vector<Epoch> ats = pins;
    ats.push_back(kEpochLatest);
    for (Epoch at : ats) {
      auto got = index.Search(text, at);
      ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
      std::vector<FtHit> want = Expected(model, *q, at);
      ASSERT_EQ(got->size(), want.size()) << text << " at " << at;
      for (size_t h = 0; h < want.size(); ++h) {
        ASSERT_EQ((*got)[h].note_id, want[h].note_id)
            << text << " at " << at << ", hit " << h;
        ASSERT_NEAR((*got)[h].score, want[h].score, 1e-9)
            << text << " at " << at << ", hit " << h;
      }
    }
  }
}

/// `versioned`: mutations carry rising commit epochs (several per epoch
/// at times), pins are held and versions reclaimed; otherwise every call
/// is standalone (kEpochNone) and replaced versions go at once.
void RunScript(uint64_t seed, bool versioned, int steps) {
  Rng rng(seed);
  FullTextIndex index(/*stats=*/nullptr);
  Model model;
  constexpr NoteId kNotes = 40;
  Epoch epoch = versioned ? 1 : kEpochNone;
  Epoch floor = kEpochNone;
  std::vector<Epoch> pins;
  for (int step = 0; step < steps; ++step) {
    if (versioned && rng.Bernoulli(0.7)) ++epoch;
    const NoteId id = static_cast<NoteId>(1 + rng.Uniform(kNotes));
    const uint64_t roll = rng.Uniform(10);
    if (roll < 7) {  // create or edit
      Note note = RandomNote(&rng, id);
      index.IndexNote(note, epoch);
      model.Index(note, epoch);
    } else if (roll < 8) {  // a deletion stub replaces the note
      Note stub(NoteClass::kDocument);
      stub.set_id(id);
      stub.MakeStub(1);
      index.IndexNote(stub, epoch);
      model.Index(stub, epoch);
    } else {
      index.RemoveNote(id, epoch);
      model.Remove(id, epoch);
    }
    if (versioned) {
      // Readers pin the committed epoch and let go at random.
      if (rng.Bernoulli(0.15) && pins.size() < 4) pins.push_back(epoch);
      if (!pins.empty() && rng.Bernoulli(0.1)) {
        pins.erase(pins.begin() + rng.Uniform(pins.size()));
      }
      if (rng.Bernoulli(0.1)) {
        // No reader is, or will be, pinned below the floor.
        const Epoch oldest =
            pins.empty() ? epoch : *std::min_element(pins.begin(), pins.end());
        if (oldest > floor) floor += rng.Uniform(oldest - floor + 1);
        index.ReclaimVersions(floor);
        model.Reclaim(floor);
      }
    }
    ASSERT_EQ(index.doc_count(), model.live()) << "step " << step;
    ASSERT_EQ(index.zombie_count(), model.zombies()) << "step " << step;
    ASSERT_EQ(index.term_count(), model.terms()) << "step " << step;
    if (step % 10 == 9) {
      CheckQueries(index, model, &rng, pins, 6);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Seeds for one run of a test: each --gtest_repeat repetition (the
/// sanitizer gate loops this binary) scripts new ones.
uint64_t FirstSeed(uint64_t base) {
  static int runs = 0;
  return base + 1000 * static_cast<uint64_t>(runs++);
}

TEST(FullTextOracleTest, VersionedScriptMatchesTheModel) {
  const uint64_t first = FirstSeed(1);
  for (uint64_t seed = first; seed < first + 6; ++seed) {
    SCOPED_TRACE(seed);
    RunScript(seed, /*versioned=*/true, 400);
    if (HasFatalFailure()) return;
  }
}

TEST(FullTextOracleTest, StandaloneScriptMatchesTheModel) {
  const uint64_t first = FirstSeed(101);
  for (uint64_t seed = first; seed < first + 3; ++seed) {
    SCOPED_TRACE(seed);
    RunScript(seed, /*versioned=*/false, 400);
    if (HasFatalFailure()) return;
  }
}

/// A full rebuild indexes the same corpus the script left behind.
TEST(FullTextOracleTest, BuildFromMatchesIncrementalMaintenance) {
  Rng rng(7);
  std::vector<Note> notes;
  Model model;
  for (NoteId id = 60; id >= 1; --id) {  // descending: out-of-order keys
    notes.push_back(RandomNote(&rng, id));
    model.Index(notes.back(), kEpochNone);
  }
  FullTextIndex index(/*stats=*/nullptr);
  index.BuildFrom([&notes](const std::function<void(const Note&)>& fn) {
    for (const Note& note : notes) fn(note);
  });
  EXPECT_EQ(index.doc_count(), model.live());
  EXPECT_EQ(index.term_count(), model.terms());
  CheckQueries(index, model, &rng, {}, 60);
}

}  // namespace
}  // namespace dominodb
