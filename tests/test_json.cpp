// The io::Json layer: lossless round-trips (including full-64-bit seeds),
// deterministic rendering, and actionable parse and file errors.
#include "src/io/json.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>

#include <unistd.h>

namespace varbench::io {
namespace {

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null"), Json{});
  EXPECT_EQ(Json::parse("true"), Json{true});
  EXPECT_EQ(Json::parse("false"), Json{false});
  EXPECT_EQ(Json::parse("42").as_uint64(), 42u);
  EXPECT_EQ(Json::parse("-7").as_int64(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("0.125").as_double(), 0.125);
  EXPECT_DOUBLE_EQ(Json::parse("-1e-3").as_double(), -1e-3);
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(Json, FullRangeSeedsSurviveRoundTrip) {
  // derive_seed outputs use all 64 bits; doubles would lose the low bits.
  const std::uint64_t seed = 0xFFFFFFFFFFFFFFF5ULL;
  const Json v{seed};
  EXPECT_EQ(Json::parse(v.dump()).as_uint64(), seed);
}

TEST(Json, NumberKindPreservedInBytes) {
  // An integral double still reads back as a double, and vice versa.
  EXPECT_EQ(Json{1.0}.dump(), "1.0");
  EXPECT_EQ(Json{std::uint64_t{1}}.dump(), "1");
  EXPECT_TRUE(Json::parse("1.0").is_number());
  EXPECT_EQ(Json::parse("1.0").dump(), "1.0");
  EXPECT_EQ(Json::parse("1").dump(), "1");
}

TEST(Json, ShortestRoundTripDoubles) {
  for (const double d : {0.1, 1.0 / 3.0, 1e300, 5e-324, 0.30000000000000004}) {
    const std::string text = Json{d}.dump();
    EXPECT_DOUBLE_EQ(Json::parse(text).as_double(), d) << text;
  }
}

TEST(Json, ObjectPreservesInsertionOrderAndRejectsDuplicates) {
  Json obj = Json::object();
  obj.set("zebra", Json{1});
  obj.set("alpha", Json{2});
  obj.set("zebra", Json{3});  // replace keeps first-insertion position
  EXPECT_EQ(obj.dump(), "{\"zebra\":3,\"alpha\":2}");
  EXPECT_THROW((void)Json::parse("{\"a\":1,\"a\":2}"), JsonError);
}

TEST(Json, DumpParseDumpIsStable) {
  const char* text =
      "{\"spec\":{\"seed\":18446744073709551615,\"scale\":0.25},"
      "\"rows\":[[0,\"a\",0.5],[1,\"b\",-0.25]]}";
  const Json v = Json::parse(text);
  EXPECT_EQ(Json::parse(v.dump()).dump(), v.dump());
  EXPECT_EQ(Json::parse(v.dump(2)).dump(2), v.dump(2));
}

TEST(Json, ParseErrorsCarryPosition) {
  try {
    (void)Json::parse("{\n  \"a\": }");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find("2:"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)Json::parse(""), JsonError);
  EXPECT_THROW((void)Json::parse("[1,2"), JsonError);
  EXPECT_THROW((void)Json::parse("12 34"), JsonError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonError);
}

TEST(Json, MissingKeyErrorListsPresentKeys) {
  const Json obj = Json::parse("{\"kind\":\"variance\",\"seed\":1}");
  try {
    (void)obj.at("case_study");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("case_study"), std::string::npos);
    EXPECT_NE(what.find("'kind'"), std::string::npos);
  }
}

TEST(Json, TypeMismatchesThrow) {
  EXPECT_THROW((void)Json{"text"}.as_double(), JsonError);
  EXPECT_THROW((void)Json{1.5}.as_uint64(), JsonError);
  EXPECT_THROW((void)Json{-1}.as_uint64(), JsonError);
  EXPECT_THROW((void)Json{true}.as_array(), JsonError);
}

TEST(Json, PrettyPrintingKeepsScalarArraysInline) {
  const Json v = Json::parse("{\"columns\":[\"a\",\"b\"],\"rows\":[[1,2]]}");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find("[\"a\", \"b\"]"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("[1, 2]"), std::string::npos) << pretty;
}

// ------------------------------------------------------------------ files

namespace fs = std::filesystem;

/// A fresh directory under the system temp dir, removed on destruction.
class TempDir {
 public:
  TempDir()
      : path_{fs::temp_directory_path() /
              ("varbench_test_json_" + std::to_string(::getpid()))} {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

TEST(Files, FailedAtomicWriteRemovesItsTempFile) {
  const TempDir dir;
  const std::string target = (dir.path() / "d").string();
  fs::create_directory(target);  // a rename over a directory fails
  try {
    write_file_atomic(target, "{}\n");
    FAIL() << "renamed a file over the directory " << target;
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'" + target + ".tmp-"), std::string::npos) << what;
    EXPECT_NE(what.find("to '" + target + "'"), std::string::npos) << what;
  }
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp-"),
              std::string::npos)
        << entry.path();
  }
}

TEST(Files, ReadErrorNamesThePathAndTheReason) {
  const TempDir dir;
  const std::string path = dir.path().string();
  try {
    (void)read_file(path);
    FAIL() << "read a directory as a file";
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'" + path + "'"), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(EISDIR)), std::string::npos) << what;
  }
}

TEST(Files, WriteErrorNamesThePathAndTheReason) {
  // /dev/full takes the open and fails every write with ENOSPC; 100,000
  // bytes overflow stdio's buffer, so fwrite itself fails, not only fclose.
  const std::string path = "/dev/full";
  if (!fs::exists(path)) GTEST_SKIP() << path << " is missing";
  try {
    write_file(path, std::string(100'000, 'x'));
    FAIL() << "wrote 100,000 bytes to " << path;
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'" + path + "'"), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(ENOSPC)), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace varbench::io
