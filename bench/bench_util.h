#ifndef DOMINODB_BENCH_BENCH_UTIL_H_
#define DOMINODB_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/env.h"
#include "base/rng.h"
#include "model/note.h"
#include "stats/stats.h"

namespace dominodb::bench {

/// Wall-clock stopwatch (microseconds).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  double ElapsedMillis() const { return ElapsedMicros() / 1000.0; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Scratch directory removed on destruction.
class BenchDir {
 public:
  explicit BenchDir(const std::string& name)
      : path_("/tmp/dominodb_bench_" + name) {
    RemoveDirRecursively(path_).ok();
    CreateDirIfMissing(path_).ok();
  }
  ~BenchDir() { RemoveDirRecursively(path_).ok(); }
  const std::string& path() const { return path_; }
  std::string Sub(const std::string& s) const { return path_ + "/" + s; }

 private:
  std::string path_;
};

/// A synthetic groupware document: a handful of summary items plus a rich
/// text body of roughly `body_bytes`.
inline Note SyntheticDoc(Rng* rng, size_t body_bytes,
                         const std::string& form = "Memo") {
  Note doc(NoteClass::kDocument);
  doc.SetText("Form", form);
  doc.SetText("Subject", rng->Word(4, 12) + " " + rng->Word(4, 12));
  doc.SetText("Category",
              std::string(1, static_cast<char>('A' + rng->Uniform(8))));
  doc.SetNumber("Amount", static_cast<double>(rng->Uniform(10000)));
  doc.SetTextList("Tags", {rng->Word(3, 8), rng->Word(3, 8)});
  std::string body;
  while (body.size() < body_bytes) {
    body += rng->Word(2, 10);
    body.push_back(' ');
  }
  doc.SetItem("Body", Value::RichText({RichTextRun{std::move(body), 0, ""}}));
  return doc;
}

/// Words leading the subjects of ReadersDoc documents: a query for one
/// hits about an eighth of them.
inline const char* const kReadersWords[] = {
    "lotus", "domino", "replica", "router", "formula", "notes", "view",
    "index"};
constexpr int kReadersUsers = 8;

/// A document shaped like perfbench's `readers` data: a Subject led by
/// one of kReadersWords, a one-letter Category, an Amount and a rich-text
/// body of ~1 KB of random words; one in four carries a DocReaders field
/// naming two of the users "user0".."user7".
inline Note ReadersDoc(Rng* rng) {
  Note doc(NoteClass::kDocument);
  doc.SetText("Form", "Topic");
  doc.SetText("Category",
              std::string(1, static_cast<char>('A' + rng->Uniform(8))));
  doc.SetNumber("Amount", static_cast<double>(rng->Uniform(10000)));
  doc.SetText("Subject",
              std::string(kReadersWords[rng->Uniform(8)]) + " " +
                  rng->Word(4, 10));
  std::string body;
  while (body.size() < 1000) {
    body += rng->Word(2, 10);
    body.push_back(' ');
  }
  doc.SetItem("Body", Value::RichText({RichTextRun{std::move(body), 0, ""}}));
  if (rng->Uniform(4) == 0) {
    const uint64_t a = rng->Uniform(kReadersUsers);
    const uint64_t b = (a + 1 + rng->Uniform(kReadersUsers - 1)) %
                       kReadersUsers;
    doc.SetItem("DocReaders",
                Value::TextList({"user" + std::to_string(a),
                                 "user" + std::to_string(b)}),
                kItemReaders | kItemNames);
  }
  return doc;
}

/// True when the bench runs as a CI smoke test (DOMINO_BENCH_SMOKE=1):
/// the sanitizer gate executes every bench end-to-end with tiny workloads
/// to catch races and UB on the bench paths without paying full-run time.
inline bool SmokeMode() {
  const char* env = std::getenv("DOMINO_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Workload size: `full` normally, `smoke` under DOMINO_BENCH_SMOKE=1.
inline int ScaleN(int full, int smoke) { return SmokeMode() ? smoke : full; }

inline void PrintHeader(const char* experiment, const char* claim) {
  printf("\n================================================================\n");
  printf("%s\n", experiment);
  printf("Claim: %s\n", claim);
  printf("================================================================\n");
}

/// Dumps the process-wide StatRegistry as one machine-readable line:
/// `STATS <bench_name> {json}`. Every bench calls this last, so runs can
/// be post-processed for counters the human-readable report omits.
inline void EmitStatsSnapshot(const char* bench_name) {
  printf("\nSTATS %s %s\n", bench_name,
         stats::StatRegistry::Global().Snapshot().ToJson().c_str());
}

}  // namespace dominodb::bench

#endif  // DOMINODB_BENCH_BENCH_UTIL_H_
