// Unit tests for the command-line option parser used by dcasim, and for
// the exit status dcasim gives options it no longer has.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "runner/cli.hpp"

namespace dca::runner {
namespace {

ArgParser make() {
  ArgParser p("tool", "test parser");
  p.add_string("scheme", "adaptive", "scheme name")
      .add_int("rows", 8, "grid rows")
      .add_double("rho", 0.6, "offered load")
      .add_flag("torus", "wraparound");
  return p;
}

TEST(Cli, DefaultsWhenNothingGiven) {
  auto p = make();
  const char* argv[] = {"tool"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_string("scheme"), "adaptive");
  EXPECT_EQ(p.get_int("rows"), 8);
  EXPECT_DOUBLE_EQ(p.get_double("rho"), 0.6);
  EXPECT_FALSE(p.get_flag("torus"));
  EXPECT_FALSE(p.was_set("rows"));
}

TEST(Cli, SpaceSeparatedValues) {
  auto p = make();
  const char* argv[] = {"tool", "--scheme", "fca", "--rows", "14", "--rho", "0.9"};
  ASSERT_TRUE(p.parse(7, argv));
  EXPECT_EQ(p.get_string("scheme"), "fca");
  EXPECT_EQ(p.get_int("rows"), 14);
  EXPECT_DOUBLE_EQ(p.get_double("rho"), 0.9);
  EXPECT_TRUE(p.was_set("rows"));
}

TEST(Cli, EqualsSyntaxAndFlags) {
  auto p = make();
  const char* argv[] = {"tool", "--rows=12", "--torus"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_int("rows"), 12);
  EXPECT_TRUE(p.get_flag("torus"));
}

TEST(Cli, UnknownOptionFails) {
  auto p = make();
  const char* argv[] = {"tool", "--bogus", "1"};
  EXPECT_FALSE(p.parse(3, argv));
  EXPECT_NE(p.error().find("unknown option"), std::string::npos);
}

TEST(Cli, MissingValueFails) {
  auto p = make();
  const char* argv[] = {"tool", "--rows"};
  EXPECT_FALSE(p.parse(2, argv));
  EXPECT_NE(p.error().find("needs a value"), std::string::npos);
}

TEST(Cli, BadIntegerFails) {
  auto p = make();
  const char* argv[] = {"tool", "--rows", "eight"};
  EXPECT_FALSE(p.parse(3, argv));
  EXPECT_NE(p.error().find("expects an integer"), std::string::npos);
}

TEST(Cli, BadDoubleFails) {
  auto p = make();
  const char* argv[] = {"tool", "--rho", "high"};
  EXPECT_FALSE(p.parse(3, argv));
  EXPECT_NE(p.error().find("expects a number"), std::string::npos);
}

TEST(Cli, FlagWithValueFails) {
  auto p = make();
  const char* argv[] = {"tool", "--torus=yes"};
  EXPECT_FALSE(p.parse(2, argv));
  EXPECT_NE(p.error().find("takes no value"), std::string::npos);
}

TEST(Cli, PositionalArgumentFails) {
  auto p = make();
  const char* argv[] = {"tool", "whoops"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(Cli, HelpRequested) {
  auto p = make();
  const char* argv[] = {"tool", "--help"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_TRUE(p.help_requested());
  const std::string text = p.help_text();
  EXPECT_NE(text.find("--scheme"), std::string::npos);
  EXPECT_NE(text.find("--torus"), std::string::npos);
  EXPECT_NE(text.find("grid rows"), std::string::npos);
}

TEST(Cli, NegativeNumbersParse) {
  ArgParser p("tool", "t");
  p.add_int("hot-cell", -1, "hot cell");
  const char* argv[] = {"tool", "--hot-cell", "-3"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_int("hot-cell"), -3);
}

TEST(Cli, DcasimRejectsRemovedOptions) {
  // The run-product switch and the radio fade knob are gone: dcasim
  // rejects their flags as unknown options (exit 2) before running.
  struct Case {
    const char* args;
    const char* message;
  };
  const Case cases[] = {
      {"--stream-metrics", "dcasim: unknown option: --stream-metrics"},
      {"--fade-prob 0.1", "dcasim: unknown option: --fade-prob"},
      {"--fade-bucket-ms 500", "dcasim: unknown option: --fade-bucket-ms"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.args);
    const std::string cmd =
        std::string(DCASIM_PATH) + " --duration-min 0.1 " + c.args + " 2>&1";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    const int status = pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
    EXPECT_EQ(out, std::string(c.message) + "\n(use --help)\n");
  }
}

}  // namespace
}  // namespace dca::runner
