#ifndef DOMINODB_TESTS_TEST_UTIL_H_
#define DOMINODB_TESTS_TEST_UTIL_H_

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "base/env.h"
#include "base/result.h"
#include "base/string_util.h"
#include "model/note.h"

namespace dominodb::testing_util {

/// Creates (and on destruction removes) a scratch directory unique to the
/// running test.
class ScratchDir {
 public:
  ScratchDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info != nullptr
                           ? std::string(info->test_suite_name()) + "_" +
                                 info->name()
                           : "scratch";
    for (char& c : name) {
      if (c == '/' || c == ':') c = '_';
    }
    path_ = "/tmp/dominodb_test_" + name;
    RemoveDirRecursively(path_).ok();
    CreateDirIfMissing(path_).ok();
  }
  ~ScratchDir() { RemoveDirRecursively(path_).ok(); }

  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// The segment a standalone store's own one-stream log writes until its
/// first checkpoint — the file crash tests cut or snapshot.
inline std::string FirstLogSegment(const std::string& store_dir) {
  return store_dir + "/log/seg-00000001.wal";
}

/// Replaces `to` with a copy of the directory tree `from` as it stands on
/// disk: what a crash at this moment would leave behind.
inline void CopyDirTree(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

/// Quick document builder.
inline Note MakeDoc(const std::string& form, const std::string& subject,
                    double amount = 0) {
  Note note(NoteClass::kDocument);
  note.SetText("Form", form);
  note.SetText("Subject", subject);
  if (amount != 0) note.SetNumber("Amount", amount);
  return note;
}

/// Extracts a by-value Status from either a Status or a Result<T>; the
/// copy keeps ASSERT_OK(Foo().status()) safe (no reference into the
/// destroyed temporary Result).
inline Status StatusOf(const Status& s) { return s; }
template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.status();
}

#define ASSERT_OK(expr)                                              \
  do {                                                               \
    ::dominodb::Status _assert_status =                              \
        ::dominodb::testing_util::StatusOf(expr);                    \
    ASSERT_TRUE(_assert_status.ok()) << _assert_status.ToString();   \
  } while (0)

#define EXPECT_OK(expr)                                              \
  do {                                                               \
    ::dominodb::Status _expect_status =                              \
        ::dominodb::testing_util::StatusOf(expr);                    \
    EXPECT_TRUE(_expect_status.ok()) << _expect_status.ToString();   \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)               \
  ASSERT_OK_AND_ASSIGN_IMPL_(                          \
      DOMINO_RESULT_CONCAT_(_aoa_, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, rexpr)    \
  auto tmp = (rexpr);                                  \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();    \
  lhs = std::move(tmp).value()

}  // namespace dominodb::testing_util

#endif  // DOMINODB_TESTS_TEST_UTIL_H_
