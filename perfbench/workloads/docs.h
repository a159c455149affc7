#ifndef PERFBENCH_WORKLOADS_DOCS_H_
#define PERFBENCH_WORKLOADS_DOCS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "model/note.h"
#include "view/view_design.h"

namespace perfbench {

/// Words seeded into document subjects, so full-text queries hit.
inline const std::vector<std::string>& Keywords() {
  static const std::vector<std::string> kWords = {
      "lotus", "domino", "replica", "router",
      "formula", "notes", "view", "index"};
  return kWords;
}

/// Sets a subject starting with one of the Keywords() and a rich-text
/// body of about `body_bytes` of random words.
inline void SetSubjectAndBody(dominodb::Note* doc, dominodb::Rng* rng,
                              size_t body_bytes) {
  using namespace dominodb;
  doc->SetText("Subject", Keywords()[rng->Uniform(Keywords().size())] + " " +
                              rng->Word(4, 10));
  std::string body;
  while (body.size() < body_bytes) {
    body += rng->Word(2, 10);
    body.push_back(' ');
  }
  doc->SetItem("Body",
               Value::RichText({RichTextRun{std::move(body), 0, ""}}));
}

/// A groupware document: summary items plus a rich-text body of about
/// `body_bytes`.
inline dominodb::Note MakeDoc(dominodb::Rng* rng, size_t body_bytes,
                              const std::string& form) {
  using namespace dominodb;
  Note doc(NoteClass::kDocument);
  doc.SetText("Form", form);
  doc.SetText("Category",
              std::string(1, static_cast<char>('A' + rng->Uniform(8))));
  doc.SetNumber("Amount", static_cast<double>(rng->Uniform(10000)));
  SetSubjectAndBody(&doc, rng, body_bytes);
  return doc;
}

/// A categorized view: Category (categorized) then Subject, over every
/// document.
inline dominodb::ViewDesign CategorizedView(const std::string& name) {
  using namespace dominodb;
  std::vector<ViewColumn> columns(2);
  columns[0].title = "Category";
  columns[0].formula_source = "Category";
  columns[0].sort = ColumnSort::kAscending;
  columns[0].categorized = true;
  columns[1].title = "Subject";
  columns[1].formula_source = "Subject";
  columns[1].sort = ColumnSort::kAscending;
  return *ViewDesign::Create(name, "SELECT @All", std::move(columns));
}

/// Zipf(s) over [0, n): rank r is drawn with weight 1 / (r + 1)^s, and
/// ranks map to indexes through a seeded permutation so the popular items
/// are spread over the key space.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, dominodb::Rng* rng)
      : cdf_(n), index_of_rank_(n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    std::iota(index_of_rank_.begin(), index_of_rank_.end(), 0);
    for (size_t i = n; i > 1; --i) {
      std::swap(index_of_rank_[i - 1], index_of_rank_[rng->Uniform(i)]);
    }
  }

  size_t Next(dominodb::Rng* rng) const {
    const double u = rng->NextDouble();
    size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return index_of_rank_[std::min(rank, cdf_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<size_t> index_of_rank_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_DOCS_H_
