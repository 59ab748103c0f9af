// The bench drivers' JSON writer: nesting and indentation of its output.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../../bench/bench_json.hpp"

namespace cgc {
namespace {

TEST(BenchJson, NestedObjectKeysAreIndented) {
  std::ostringstream os;
  benchjson::Json json(os);
  json.open('{');
  json.key("bench");
  json.value(std::string("scale"));
  json.key("meta");
  json.open('{');
  json.key("commit");
  json.value(std::string("abc1234"));
  json.key("build_type");
  json.value(std::string("Release"));
  json.close('}');
  json.key("n");
  json.value(std::uint64_t{3});
  json.close('}');
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"bench\": \"scale\",\n"
            "  \"meta\": {\n"
            "    \"commit\": \"abc1234\",\n"
            "    \"build_type\": \"Release\"\n"
            "  },\n"
            "  \"n\": 3\n"
            "}");
}

}  // namespace
}  // namespace cgc
