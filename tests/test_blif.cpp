// Tests for the BLIF frontend: parsing, error reporting, offset covers,
// out-of-order definitions, and write/parse round-trips.
#include <gtest/gtest.h>

#include <sstream>

#include "net/network.hpp"

namespace bds::net {
namespace {

constexpr const char* kHalfAdder = R"(
# a trivial half adder
.model ha
.inputs a b
.outputs sum carry
.names a b sum
10 1
01 1
.names a b carry
11 1
.end
)";

TEST(Blif, ParsesHalfAdder) {
  const Network net = parse_blif_string(kHalfAdder);
  EXPECT_EQ(net.name(), "ha");
  EXPECT_EQ(net.num_inputs(), 2u);
  EXPECT_EQ(net.num_outputs(), 2u);
  EXPECT_EQ(net.eval({true, true}), (std::vector<bool>{false, true}));
  EXPECT_EQ(net.eval({true, false}), (std::vector<bool>{true, false}));
}

TEST(Blif, HandlesLineContinuationsAndComments) {
  const Network net = parse_blif_string(
      ".model c\n"
      ".inputs \\\n"
      "a b # trailing comment\n"
      ".outputs o\n"
      ".names a b o # and gate\n"
      "11 1\n"
      ".end\n");
  EXPECT_EQ(net.num_inputs(), 2u);
  EXPECT_EQ(net.eval({true, true}), (std::vector<bool>{true}));
}

TEST(Blif, OutOfOrderDefinitionsResolve) {
  const Network net = parse_blif_string(
      ".model o3\n.inputs a b\n.outputs o\n"
      ".names t1 t2 o\n11 1\n"  // uses t1/t2 before their definition
      ".names a b t1\n10 1\n"
      ".names a b t2\n-1 1\n"
      ".end\n");
  EXPECT_EQ(net.eval({true, true}), (std::vector<bool>{false}));
  EXPECT_EQ(net.eval({true, false}), (std::vector<bool>{false}));
}

TEST(Blif, OffsetCoverIsComplemented) {
  // NAND expressed through its offset: output 0 when both inputs are 1.
  const Network net = parse_blif_string(
      ".model nand\n.inputs a b\n.outputs o\n"
      ".names a b o\n11 0\n.end\n");
  EXPECT_EQ(net.eval({true, true}), (std::vector<bool>{false}));
  EXPECT_EQ(net.eval({true, false}), (std::vector<bool>{true}));
  EXPECT_EQ(net.eval({false, false}), (std::vector<bool>{true}));
}

TEST(Blif, ConstantNodes) {
  const Network net = parse_blif_string(
      ".model k\n.inputs a\n.outputs one zero\n"
      ".names one\n1\n"
      ".names zero\n"
      ".end\n");
  EXPECT_EQ(net.eval({false}), (std::vector<bool>{true, false}));
}

TEST(Blif, RepeatedOutputNameIsOnePrimaryOutput) {
  const Network net = parse_blif_string(
      ".model r\n.inputs a b\n.outputs y z y\n"
      ".names a b y\n11 1\n.names a z\n0 1\n.end\n");
  ASSERT_EQ(net.num_outputs(), 2u);  // in order of first appearance
  EXPECT_EQ(net.outputs()[0].first, "y");
  EXPECT_EQ(net.outputs()[1].first, "z");
  EXPECT_EQ(net.eval({true, true}), (std::vector<bool>{true, false}));

  // Re-setting an existing output replaces its driver in place.
  Network copy = net;
  copy.set_output("y", copy.find("z"));
  ASSERT_EQ(copy.num_outputs(), 2u);
  EXPECT_EQ(copy.outputs()[0].second, copy.find("z"));
  copy.set_output("w", copy.find("y"));
  EXPECT_EQ(copy.outputs()[2].first, "w");
}

TEST(Blif, ErrorsCarryLineNumbers) {
  try {
    parse_blif_string(".model m\n.inputs a\n.outputs o\n.names a o\n1x 1\n");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos);
  }
}

TEST(Blif, RejectsLatches) {
  EXPECT_THROW(parse_blif_string(".model m\n.latch a b re clk 0\n.end\n"),
               std::runtime_error);
}

TEST(Blif, RejectsUndefinedOutput) {
  EXPECT_THROW(
      parse_blif_string(".model m\n.inputs a\n.outputs nope\n.end\n"),
      std::runtime_error);
}

TEST(Blif, RejectsWrongCubeWidth) {
  EXPECT_THROW(parse_blif_string(
                   ".model m\n.inputs a b\n.outputs o\n.names a b o\n1 1\n"),
               std::runtime_error);
}

// ---- malformed-input diagnostics (PR 2) -------------------------------------

/// Parses the text, expecting failure; returns the exception message.
std::string parse_error(const std::string& text) {
  try {
    parse_blif_string(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(Blif, WrongCubeWidthDiagnosticNamesNodeAndLines) {
  const std::string msg = parse_error(
      ".model m\n.inputs a b c\n.outputs o\n.names a b c o\n11 1\n");
  EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("cube width 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("fanin count 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'o'"), std::string::npos) << msg;
}

TEST(Blif, RejectsInvalidCubeCharacter) {
  const std::string msg = parse_error(
      ".model m\n.inputs a b\n.outputs o\n.names a b o\n1x 1\n");
  EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("invalid cube character 'x'"), std::string::npos) << msg;
}

TEST(Blif, RejectsBadOutputValue) {
  const std::string msg = parse_error(
      ".model m\n.inputs a b\n.outputs o\n.names a b o\n11 x\n");
  EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bad output value 'x'"), std::string::npos) << msg;
}

TEST(Blif, RejectsDuplicateNamesDriver) {
  const std::string msg = parse_error(
      ".model m\n.inputs a b\n.outputs o\n"
      ".names a o\n1 1\n"
      ".names b o\n1 1\n.end\n");
  EXPECT_NE(msg.find("line 6"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate driver for 'o'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;  // first site
}

TEST(Blif, RejectsNamesRedefiningAnInput) {
  const std::string msg = parse_error(
      ".model m\n.inputs a b\n.outputs o\n"
      ".names b a\n1 1\n.end\n");
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate driver for 'a'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(Blif, RejectsDuplicateInputDeclaration) {
  const std::string msg =
      parse_error(".model m\n.inputs a\n.inputs b a\n.outputs o\n.end\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("input 'a' already defined at line 2"),
            std::string::npos)
      << msg;
}

TEST(Blif, RoundTripPreservesSemantics) {
  const Network original = parse_blif_string(kHalfAdder);
  const std::string text = to_blif_string(original);
  const Network reparsed = parse_blif_string(text);
  for (unsigned row = 0; row < 4; ++row) {
    const std::vector<bool> in{(row & 1) != 0, (row & 2) != 0};
    EXPECT_EQ(reparsed.eval(in), original.eval(in)) << "row " << row;
  }
}

TEST(Blif, WriterEmitsBufferForInputDrivenOutput) {
  Network net;
  const NodeId a = net.add_input("a");
  net.set_output("o", a);
  const Network reparsed = parse_blif_string(to_blif_string(net));
  EXPECT_EQ(reparsed.eval({true}), (std::vector<bool>{true}));
  EXPECT_EQ(reparsed.eval({false}), (std::vector<bool>{false}));
}

}  // namespace
}  // namespace bds::net
