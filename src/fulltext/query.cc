// Full-text query parsing and evaluation (FullTextIndex::Search).

#include <algorithm>
#include <cctype>
#include <list>
#include <map>
#include <memory>

#include "base/string_util.h"
#include "fulltext/fulltext_index.h"
#include "fulltext/tokenizer.h"

namespace dominodb {

namespace {

// ---------------------------------------------------------------- lexer --

enum class QTok { kWord, kPhrase, kLParen, kRParen, kAnd, kOr, kNot, kEnd };

struct QToken {
  QTok type = QTok::kEnd;
  std::string text;
};

Result<std::vector<QToken>> LexQuery(std::string_view q) {
  std::vector<QToken> out;
  size_t i = 0;
  while (i < q.size()) {
    char c = q[i];
    if (c == ' ' || c == '\t' || c == '\n') {
      ++i;
      continue;
    }
    if (c == '(') {
      out.push_back({QTok::kLParen, "("});
      ++i;
    } else if (c == ')') {
      out.push_back({QTok::kRParen, ")"});
      ++i;
    } else if (c == '&') {
      out.push_back({QTok::kAnd, "&"});
      ++i;
    } else if (c == '|') {
      out.push_back({QTok::kOr, "|"});
      ++i;
    } else if (c == '!') {
      out.push_back({QTok::kNot, "!"});
      ++i;
    } else if (c == '"') {
      size_t j = q.find('"', i + 1);
      if (j == std::string_view::npos) {
        return Status::SyntaxError("ft query: unterminated phrase");
      }
      out.push_back({QTok::kPhrase, std::string(q.substr(i + 1, j - i - 1))});
      i = j + 1;
    } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '$') {
      size_t j = i;
      while (j < q.size() &&
             (std::isalnum(static_cast<unsigned char>(q[j])) || q[j] == '_' ||
              q[j] == '$')) {
        ++j;
      }
      std::string word(q.substr(i, j - i));
      if (EqualsIgnoreCase(word, "AND")) {
        out.push_back({QTok::kAnd, word});
      } else if (EqualsIgnoreCase(word, "OR")) {
        out.push_back({QTok::kOr, word});
      } else if (EqualsIgnoreCase(word, "NOT")) {
        out.push_back({QTok::kNot, word});
      } else {
        out.push_back({QTok::kWord, word});
      }
      i = j;
    } else {
      return Status::SyntaxError(
          StrPrintf("ft query: unexpected character '%c'", c));
    }
  }
  out.push_back({QTok::kEnd, ""});
  return out;
}

// ----------------------------------------------------------------- AST --

struct QNode;
using QNodePtr = std::unique_ptr<QNode>;

struct QNode {
  enum class Kind { kTerm, kPhrase, kFieldContains, kAnd, kOr, kNot } kind;
  std::string term;                 // kTerm
  std::vector<std::string> phrase;  // kPhrase / kFieldContains value tokens
  std::string field;                // kFieldContains
  std::vector<QNodePtr> children;
};

class QParser {
 public:
  explicit QParser(std::vector<QToken> tokens) : tokens_(std::move(tokens)) {}

  Result<QNodePtr> Run() {
    DOMINO_ASSIGN_OR_RETURN(QNodePtr root, ParseOr());
    if (Peek().type != QTok::kEnd) {
      return Status::SyntaxError("ft query: trailing tokens");
    }
    return root;
  }

 private:
  const QToken& Peek() const { return tokens_[pos_]; }
  QToken Advance() { return tokens_[pos_++]; }

  Result<QNodePtr> ParseOr() {
    DOMINO_ASSIGN_OR_RETURN(QNodePtr lhs, ParseAnd());
    while (Peek().type == QTok::kOr) {
      Advance();
      DOMINO_ASSIGN_OR_RETURN(QNodePtr rhs, ParseAnd());
      auto node = std::make_unique<QNode>();
      node->kind = QNode::Kind::kOr;
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  static bool StartsPrimary(QTok t) {
    return t == QTok::kWord || t == QTok::kPhrase || t == QTok::kLParen ||
           t == QTok::kNot;
  }

  Result<QNodePtr> ParseAnd() {
    DOMINO_ASSIGN_OR_RETURN(QNodePtr lhs, ParseNot());
    while (Peek().type == QTok::kAnd || StartsPrimary(Peek().type)) {
      if (Peek().type == QTok::kAnd) Advance();
      DOMINO_ASSIGN_OR_RETURN(QNodePtr rhs, ParseNot());
      auto node = std::make_unique<QNode>();
      node->kind = QNode::Kind::kAnd;
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<QNodePtr> ParseNot() {
    if (Peek().type == QTok::kNot) {
      Advance();
      DOMINO_ASSIGN_OR_RETURN(QNodePtr child, ParseNot());
      auto node = std::make_unique<QNode>();
      node->kind = QNode::Kind::kNot;
      node->children.push_back(std::move(child));
      return node;
    }
    return ParsePrimary();
  }

  Result<QNodePtr> ParsePrimary() {
    if (Peek().type == QTok::kLParen) {
      Advance();
      DOMINO_ASSIGN_OR_RETURN(QNodePtr inner, ParseOr());
      if (Peek().type != QTok::kRParen) {
        return Status::SyntaxError("ft query: expected ')'");
      }
      Advance();
      return inner;
    }
    if (Peek().type == QTok::kPhrase) {
      auto node = std::make_unique<QNode>();
      node->kind = QNode::Kind::kPhrase;
      node->phrase = TokenizeText(Advance().text);
      if (node->phrase.empty()) {
        return Status::SyntaxError("ft query: empty phrase");
      }
      return node;
    }
    if (Peek().type == QTok::kWord) {
      QToken word = Advance();
      // FIELD name CONTAINS value
      if (EqualsIgnoreCase(word.text, "FIELD") &&
          Peek().type == QTok::kWord) {
        QToken field = Advance();
        if (Peek().type == QTok::kWord &&
            EqualsIgnoreCase(Peek().text, "CONTAINS")) {
          Advance();
          auto node = std::make_unique<QNode>();
          node->kind = QNode::Kind::kFieldContains;
          node->field = field.text;
          if (Peek().type == QTok::kPhrase || Peek().type == QTok::kWord) {
            node->phrase = TokenizeText(Advance().text);
          }
          if (node->phrase.empty()) {
            return Status::SyntaxError("ft query: CONTAINS needs a value");
          }
          return node;
        }
        return Status::SyntaxError("ft query: expected CONTAINS");
      }
      auto node = std::make_unique<QNode>();
      std::vector<std::string> tokens = TokenizeText(word.text);
      if (tokens.empty()) {
        return Status::SyntaxError("ft query: term too short: " + word.text);
      }
      node->kind = QNode::Kind::kTerm;
      node->term = tokens.front();
      return node;
    }
    return Status::SyntaxError("ft query: expected term");
  }

  std::vector<QToken> tokens_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------- evaluator --
//
// Doc-at-a-time evaluation over compressed posting cursors. Every operator
// is a ScoreIter producing (doc, score) pairs in ascending doc order; AND
// leapfrogs its children with SkipTo so conjunctions jump across posting
// blocks (via the per-block skip entries) instead of materializing and
// intersecting full score maps. Scores reproduce the old map-based
// evaluator exactly, including floating-point addition order.

constexpr uint64_t kEnd = PostingList::kEndDoc;

class ScoreIter {
 public:
  virtual ~ScoreIter() = default;
  virtual uint64_t doc() const = 0;        // kEnd when exhausted
  virtual double score() const = 0;        // valid while doc() < kEnd
  virtual void Next() = 0;
  virtual void SkipTo(uint64_t target) = 0;  // first doc >= target
};

using ScoreIterPtr = std::unique_ptr<ScoreIter>;

class EmptyIter final : public ScoreIter {
 public:
  uint64_t doc() const override { return kEnd; }
  double score() const override { return 0; }
  void Next() override {}
  void SkipTo(uint64_t) override {}
};

/// A single term: score = frequency × idf, straight off the entry header
/// (positions stay encoded).
class TermIter final : public ScoreIter {
 public:
  TermIter(const PostingList* list, double idf)
      : cursor_(list), idf_(idf) {}

  uint64_t doc() const override { return cursor_.doc(); }
  double score() const override {
    return static_cast<double>(cursor_.freq()) * idf_;
  }
  void Next() override { cursor_.Next(); }
  void SkipTo(uint64_t target) override { cursor_.SkipTo(target); }

 private:
  PostingList::Cursor cursor_;
  double idf_;
};

/// Positions-bearing cursor abstraction shared by the phrase evaluator:
/// either a compressed-postings cursor (plain terms) or an iterator over a
/// materialized field-scoped posting map.
class PosSource {
 public:
  virtual ~PosSource() = default;
  virtual uint64_t doc() const = 0;
  virtual const std::vector<uint32_t>& positions() const = 0;
  virtual void Next() = 0;
  virtual void SkipTo(uint64_t target) = 0;
};

class ListPosSource final : public PosSource {
 public:
  explicit ListPosSource(const PostingList* list) : cursor_(list) {}
  uint64_t doc() const override { return cursor_.doc(); }
  const std::vector<uint32_t>& positions() const override {
    return cursor_.positions();
  }
  void Next() override { cursor_.Next(); }
  void SkipTo(uint64_t target) override { cursor_.SkipTo(target); }

 private:
  PostingList::Cursor cursor_;
};

class MapPosSource final : public PosSource {
 public:
  explicit MapPosSource(const FullTextIndex::PostingMap* map)
      : map_(map), it_(map->begin()) {}
  uint64_t doc() const override {
    return it_ == map_->end() ? kEnd : it_->first;
  }
  const std::vector<uint32_t>& positions() const override {
    return it_->second.positions;
  }
  void Next() override { ++it_; }
  void SkipTo(uint64_t target) override {
    if (doc() >= target) return;
    // target can be the kEnd sentinel (one past the key range); the
    // narrowing cast would wrap to 0 and rewind the iterator.
    it_ = target >= kEnd ? map_->end()
                         : map_->lower_bound(static_cast<uint32_t>(target));
  }

 private:
  const FullTextIndex::PostingMap* map_;
  FullTextIndex::PostingMap::const_iterator it_;
};

/// Docs where the terms occur at consecutive positions ("phrases" and
/// FIELD ... CONTAINS). Leapfrogs all term cursors to a common doc, then
/// counts starting positions whose successors line up; docs with zero
/// matches are skipped entirely (the old evaluator only emitted docs with
/// matches > 0). Score = match count × summed idf.
class ConsecutiveIter final : public ScoreIter {
 public:
  ConsecutiveIter(std::vector<std::unique_ptr<PosSource>> sources,
                  double idf_sum)
      : sources_(std::move(sources)), idf_sum_(idf_sum) {
    Settle(0);
  }

  uint64_t doc() const override { return doc_; }
  double score() const override {
    return static_cast<double>(matches_) * idf_sum_;
  }
  void Next() override {
    if (doc_ < kEnd) Settle(doc_ + 1);
  }
  void SkipTo(uint64_t target) override {
    if (doc_ < target) Settle(target);
  }

 private:
  /// Positions at the first doc >= target where all sources align and at
  /// least one consecutive run matches.
  void Settle(uint64_t target) {
    for (;;) {
      sources_[0]->SkipTo(target);
      uint64_t candidate = sources_[0]->doc();
      if (candidate >= kEnd) {
        doc_ = kEnd;
        return;
      }
      bool aligned = true;
      for (size_t k = 1; k < sources_.size(); ++k) {
        sources_[k]->SkipTo(candidate);
        if (sources_[k]->doc() != candidate) {
          // This source is past the candidate (or exhausted): restart the
          // leapfrog at its doc.
          if (sources_[k]->doc() >= kEnd) {
            doc_ = kEnd;
            return;
          }
          target = sources_[k]->doc();
          aligned = false;
          break;
        }
      }
      if (!aligned) continue;
      matches_ = CountMatches();
      if (matches_ > 0) {
        doc_ = candidate;
        return;
      }
      target = candidate + 1;
    }
  }

  size_t CountMatches() const {
    // Identical counting loop to the old EvalConsecutive: for each start
    // position of the first term, every later term must contain pos + k.
    size_t matches = 0;
    for (uint32_t pos : sources_[0]->positions()) {
      bool all = true;
      for (size_t k = 1; k < sources_.size(); ++k) {
        const std::vector<uint32_t>& positions = sources_[k]->positions();
        if (!std::binary_search(positions.begin(), positions.end(),
                                pos + static_cast<uint32_t>(k))) {
          all = false;
          break;
        }
      }
      if (all) ++matches;
    }
    return matches;
  }

  std::vector<std::unique_ptr<PosSource>> sources_;
  double idf_sum_ = 0;
  uint64_t doc_ = kEnd;
  size_t matches_ = 0;
};

/// Conjunction: leapfrog both children with SkipTo — this is where block
/// skip entries pay off, because neither side decodes the doc ranges the
/// other side rules out.
class AndIter final : public ScoreIter {
 public:
  AndIter(ScoreIterPtr a, ScoreIterPtr b)
      : a_(std::move(a)), b_(std::move(b)) {
    Align(0);
  }

  uint64_t doc() const override { return doc_; }
  double score() const override { return a_->score() + b_->score(); }
  void Next() override {
    if (doc_ < kEnd) Align(doc_ + 1);
  }
  void SkipTo(uint64_t target) override {
    if (doc_ < target) Align(target);
  }

 private:
  void Align(uint64_t target) {
    a_->SkipTo(target);
    while (a_->doc() < kEnd) {
      b_->SkipTo(a_->doc());
      if (b_->doc() == a_->doc()) {
        doc_ = a_->doc();
        return;
      }
      a_->SkipTo(b_->doc());
    }
    doc_ = kEnd;
  }

  ScoreIterPtr a_, b_;
  uint64_t doc_ = kEnd;
};

class OrIter final : public ScoreIter {
 public:
  OrIter(ScoreIterPtr a, ScoreIterPtr b)
      : a_(std::move(a)), b_(std::move(b)) {}

  uint64_t doc() const override { return std::min(a_->doc(), b_->doc()); }
  double score() const override {
    uint64_t d = doc();
    // Matches the map-based merge: lhs score first, then += rhs.
    if (a_->doc() == d && b_->doc() == d) return a_->score() + b_->score();
    return a_->doc() == d ? a_->score() : b_->score();
  }
  void Next() override {
    uint64_t d = doc();
    if (d >= kEnd) return;
    if (a_->doc() == d) a_->Next();
    if (b_->doc() == d) b_->Next();
  }
  void SkipTo(uint64_t target) override {
    a_->SkipTo(target);
    b_->SkipTo(target);
  }

 private:
  ScoreIterPtr a_, b_;
};

/// Complement over the corpus: every doc key not matched by the child,
/// with the old evaluator's flat 0.1 score. Zombies and free slots are
/// included; Search drops whatever is not visible at its epoch.
class NotIter final : public ScoreIter {
 public:
  NotIter(ScoreIterPtr child, uint64_t end)
      : child_(std::move(child)), end_(end) {
    Settle();
  }

  uint64_t doc() const override { return doc_ < end_ ? doc_ : kEnd; }
  double score() const override { return 0.1; }
  void Next() override {
    if (doc_ >= end_) return;
    ++doc_;
    Settle();
  }
  void SkipTo(uint64_t target) override {
    if (doc() >= target) return;
    doc_ = target;
    Settle();
  }

 private:
  void Settle() {
    while (doc_ < end_) {
      child_->SkipTo(doc_);
      if (child_->doc() != doc_) return;
      ++doc_;
    }
  }

  ScoreIterPtr child_;
  uint64_t end_;
  uint64_t doc_ = 0;
};

ScoreIterPtr BuildIter(
    const FullTextIndex& index, const QNode& node,
    std::list<FullTextIndex::PostingMap>* field_maps) {
  switch (node.kind) {
    case QNode::Kind::kTerm: {
      const PostingList* list = index.FindTerm(node.term);
      if (list == nullptr) return std::make_unique<EmptyIter>();
      return std::make_unique<TermIter>(list, index.IdfOf(node.term));
    }
    case QNode::Kind::kPhrase: {
      double idf_sum = 0;
      for (const std::string& t : node.phrase) idf_sum += index.IdfOf(t);
      std::vector<std::unique_ptr<PosSource>> sources;
      for (const std::string& t : node.phrase) {
        const PostingList* list = index.FindTerm(t);
        if (list == nullptr) return std::make_unique<EmptyIter>();
        sources.push_back(std::make_unique<ListPosSource>(list));
      }
      return std::make_unique<ConsecutiveIter>(std::move(sources), idf_sum);
    }
    case QNode::Kind::kFieldContains: {
      // Field-scoped postings are stored as slices into the unscoped
      // postings; materialize each distinct term once for this node.
      // idf uses the unscoped term, as before.
      double idf_sum = 0;
      for (const std::string& t : node.phrase) idf_sum += index.IdfOf(t);
      std::map<std::string, const FullTextIndex::PostingMap*> by_term;
      std::vector<std::unique_ptr<PosSource>> sources;
      for (const std::string& t : node.phrase) {
        auto [it, fresh] = by_term.try_emplace(t, nullptr);
        if (fresh) {
          field_maps->push_back(index.MaterializeFieldTerm(node.field, t));
          it->second = &field_maps->back();
        }
        if (it->second->empty()) return std::make_unique<EmptyIter>();
        sources.push_back(std::make_unique<MapPosSource>(it->second));
      }
      return std::make_unique<ConsecutiveIter>(std::move(sources), idf_sum);
    }
    case QNode::Kind::kAnd:
      return std::make_unique<AndIter>(
          BuildIter(index, *node.children[0], field_maps),
          BuildIter(index, *node.children[1], field_maps));
    case QNode::Kind::kOr:
      return std::make_unique<OrIter>(
          BuildIter(index, *node.children[0], field_maps),
          BuildIter(index, *node.children[1], field_maps));
    case QNode::Kind::kNot:
      return std::make_unique<NotIter>(
          BuildIter(index, *node.children[0], field_maps),
          index.all_docs().size());
  }
  return std::make_unique<EmptyIter>();
}

}  // namespace

Result<std::vector<FtHit>> FullTextIndex::Search(std::string_view query,
                                                 Epoch at) const {
  // Shared for the whole run: BuildIter and the iterator tree borrow
  // posting lists until the hit loop below finishes.
  ReaderLock lock(&mu_);
  ctr_queries_->Add();
  DOMINO_ASSIGN_OR_RETURN(auto tokens, LexQuery(query));
  QParser parser(std::move(tokens));
  DOMINO_ASSIGN_OR_RETURN(QNodePtr root, parser.Run());
  // Materialized FIELD CONTAINS maps must outlive the iterator tree;
  // std::list keeps their addresses stable as more nodes add maps.
  std::list<PostingMap> field_maps;
  ScoreIterPtr root_iter = BuildIter(*this, *root, &field_maps);
  std::vector<FtHit> hits;
  for (; root_iter->doc() < PostingList::kEndDoc; root_iter->Next()) {
    const Doc& doc = docs_[root_iter->doc()];
    if (EpochVisible(doc.added, doc.removed, at)) {
      hits.push_back(FtHit{doc.note_id, root_iter->score()});
    }
  }
  std::sort(hits.begin(), hits.end(), [](const FtHit& a, const FtHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.note_id < b.note_id;
  });
  return hits;
}

}  // namespace dominodb
