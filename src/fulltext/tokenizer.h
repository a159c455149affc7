#ifndef DOMINODB_FULLTEXT_TOKENIZER_H_
#define DOMINODB_FULLTEXT_TOKENIZER_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace dominodb {

/// Calls `emit(token)` for each maximal run of ASCII alphanumerics in
/// `text` that is at least 2 characters long (the classic minimum-word-
/// length rule). The token is a view into `text`, not yet lower-cased.
template <typename Emit>
void ForEachToken(std::string_view text, Emit&& emit) {
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && std::isalnum(static_cast<unsigned char>(text[i]))) {
      continue;
    }
    if (i - start >= 2) emit(text.substr(start, i - start));
    start = i + 1;
  }
}

/// Splits text into lower-cased alphanumeric tokens. Tokens shorter than
/// 2 characters are dropped.
std::vector<std::string> TokenizeText(std::string_view text);

}  // namespace dominodb

#endif  // DOMINODB_FULLTEXT_TOKENIZER_H_
