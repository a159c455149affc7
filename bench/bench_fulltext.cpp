// E5 — Full-text search: index build/maintenance cost and query latency
// vs the formula-scan baseline (@Contains over every document).

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "bench/bench_util.h"
#include "core/database.h"

using namespace dominodb;
using namespace dominodb::bench;

/// Zipf-distributed vocabulary: real text concentrates most tokens in a
/// few common words (long posting lists — what delta compression
/// exploits) with a long tail of rare ones. A uniform random vocabulary
/// would make nearly every posting list a singleton and measure only
/// per-list fixed overhead.
struct ZipfVocab {
  std::vector<std::string> words;
  std::vector<double> cdf;

  ZipfVocab(Rng* rng, size_t n) {
    words.reserve(n);
    cdf.reserve(n);
    double acc = 0;
    for (size_t i = 0; i < n; ++i) {
      words.push_back(rng->Word(2, 10));
      acc += 1.0 / std::pow(static_cast<double>(i + 1), 1.07);
      cdf.push_back(acc);
    }
    for (double& c : cdf) c /= acc;
    // Pin the query terms at representative ranks: a stopword-common
    // term, a mid-frequency term and a rarer one.
    words[0] = "the";
    words[std::min<size_t>(60, n - 1)] = "sales";
    words[std::min<size_t>(600, n - 1)] = "quarterly";
  }

  const std::string& Sample(Rng* rng) const {
    double u = rng->NextDouble();
    size_t i = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return words[std::min(i, words.size() - 1)];
  }
};

static Note ZipfDoc(Rng* rng, const ZipfVocab& vocab, int doc_words) {
  Note doc(NoteClass::kDocument);
  doc.SetText("Form", "Memo");
  doc.SetText("Subject", vocab.Sample(rng) + " " + vocab.Sample(rng));
  std::string body;
  for (int w = 0; w < doc_words; ++w) {
    body += vocab.Sample(rng);
    body.push_back(' ');
  }
  doc.SetItem("Body",
              Value::RichText({RichTextRun{std::move(body), 0, ""}}));
  return doc;
}

/// Heap bytes in use, all arenas and mmapped chunks included.
static size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

/// The index's own heap on perfbench `readers`-shaped data (2 000 docs of
/// ~1 KB of random words, so nearly every term is rare): the heap a
/// BuildFrom over notes already in memory adds, per distinct term, next
/// to the postings' ByteUsage().
static void ReportReadersIndexHeap() {
  const int docs = ScaleN(2000, 100);
  Rng rng(1);
  std::vector<Note> notes;
  for (int i = 0; i < docs; ++i) {
    notes.push_back(ReadersDoc(&rng));
    notes.back().set_id(static_cast<NoteId>(i + 1));
  }
  stats::StatRegistry registry;
  FullTextIndex index(&registry);
  const size_t before = HeapInUse();
  index.BuildFrom(
      [&notes](const std::function<void(const Note&)>& fn) {
        for (const Note& note : notes) fn(note);
      });
  const size_t heap = HeapInUse() - before;
  const size_t terms = index.term_count();
  printf("\nreaders-shaped index heap: %d docs, %zu terms, heap %.1f MB "
         "(%.0f B/term), postings ByteUsage %.1f MB\n",
         docs, terms, heap / 1e6,
         terms > 0 ? static_cast<double>(heap) / terms : 0,
         index.ByteUsage() / 1e6);
}

int main() {
  PrintHeader("E5 — full-text search vs formula scan",
              "the inverted index answers word queries in sub-linear time; "
              "formula @Contains scans pay O(corpus) every query");

  printf("%-8s | %-11s %-12s | %-11s %-11s %-11s %-11s | %-12s %-8s | "
         "%-7s %-7s %-6s\n",
         "docs", "build (ms)", "add1 (us)", "term (us)",
         "AND (us)", "selAND(us)", "phrase(us)", "scan (us)", "speedup",
         "B/doc", "mdl/doc", "ratio");

  for (int corpus : {ScaleN(1000, 100), ScaleN(5000, 200), ScaleN(20000, 300)}) {
    BenchDir dir("ft_" + std::to_string(corpus));
    SimClock clock;
    DatabaseOptions options;
    options.store.checkpoint_threshold_bytes = 1ull << 30;
    auto db = *Database::Open(dir.Sub("db"), options, &clock);
    Rng rng(5);
    ZipfVocab vocab(&rng, 8000);
    for (int i = 0; i < corpus; ++i) {
      Note doc = ZipfDoc(&rng, vocab, 70);
      if (i % 97 == 0) {
        doc.SetText("Subject", "quarterly sales target review");
      }
      db->CreateNote(std::move(doc)).ok();
    }

    Stopwatch build;
    db->EnsureFullTextIndex().ok();
    double build_ms = build.ElapsedMillis();

    // Incremental add of one document.
    Stopwatch add;
    db->CreateNote(ZipfDoc(&rng, vocab, 70)).ok();
    double add_us = add.ElapsedMicros();

    Principal who = Principal::User("bench");
    auto time_query = [&](const std::string& q) {
      // Warm once, then average 20 runs.
      db->SearchAs(who, q).ok();
      Stopwatch w;
      for (int i = 0; i < 20; ++i) db->SearchAs(who, q).ok();
      return w.ElapsedMicros() / 20;
    };
    // Term latency uses the moderately rare term so the measurement is
    // index work, not materializing a result set that is half the corpus.
    double term_us = time_query("quarterly");
    double and_us = time_query("sales AND quarterly");
    // Selective conjunction: a rare term against a common one — the
    // block skip entries let the merge leapfrog over most of the common
    // term's postings instead of decoding them.
    double sel_and_us = time_query("quarterly AND the");
    double phrase_us = time_query("\"sales target\"");

    // Baseline: formula full scan with @Contains.
    auto scan_once = [&] {
      return db->FormulaSearch(
          "SELECT @Contains(Subject; \"quarterly\")");
    };
    scan_once().ok();
    Stopwatch scan;
    for (int i = 0; i < 5; ++i) scan_once().ok();
    double scan_us = scan.ElapsedMicros() / 5;

    // Postings footprint: delta+varint blocks vs the uncompressed
    // map-of-position-vectors model the blocks replaced.
    const FullTextIndex* ft = db->fulltext();
    double docs_n = static_cast<double>(ft->doc_count());
    double bytes_per_doc = docs_n > 0 ? ft->ByteUsage() / docs_n : 0;
    double model_per_doc =
        docs_n > 0 ? ft->UncompressedModelBytes() / docs_n : 0;

    printf("%-8d | %-11.1f %-12.1f | %-11.1f %-11.1f %-11.1f "
           "%-11.1f | %-12.1f %-7.0fx | %-7.0f %-7.0f %-5.1fx\n",
           corpus, build_ms, add_us, term_us, and_us, sel_and_us,
           phrase_us, scan_us, term_us > 0 ? scan_us / term_us : 0,
           bytes_per_doc, model_per_doc,
           bytes_per_doc > 0 ? model_per_doc / bytes_per_doc : 0);
  }
  ReportReadersIndexHeap();
  dominodb::bench::EmitStatsSnapshot("bench_fulltext");
  return 0;
}
