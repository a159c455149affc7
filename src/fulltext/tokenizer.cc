#include "fulltext/tokenizer.h"

#include "base/string_util.h"

namespace dominodb {

std::vector<std::string> TokenizeText(std::string_view text) {
  std::vector<std::string> tokens;
  ForEachToken(text, [&tokens](std::string_view token) {
    tokens.push_back(ToLower(token));
  });
  return tokens;
}

}  // namespace dominodb
