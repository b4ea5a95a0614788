// Tests for the pipeline script grammar and the pass registry: parsing,
// named-script resolution, and the error cases (unknown pass, malformed
// arguments).
#include <gtest/gtest.h>

#include "opt/manager.hpp"
#include "opt/registry.hpp"
#include "opt/script.hpp"

namespace bds::opt {
namespace {

TEST(ScriptParse, SplitsOnSemicolonsAndNewlines) {
  const auto cmds = parse_script("sweep; eliminate -1\n simplify ;gkx");
  ASSERT_EQ(cmds.size(), 4u);
  EXPECT_EQ(cmds[0].name, "sweep");
  EXPECT_TRUE(cmds[0].args.empty());
  EXPECT_EQ(cmds[1].name, "eliminate");
  ASSERT_EQ(cmds[1].args.size(), 1u);
  EXPECT_EQ(cmds[1].args[0], "-1");
  EXPECT_EQ(cmds[2].name, "simplify");
  EXPECT_EQ(cmds[3].name, "gkx");
}

TEST(ScriptParse, SkipsEmptyCommandsAndComments) {
  const auto cmds = parse_script(R"(
    # the cleanup tail of script.rugged
    sweep;; eliminate -1   # strict
    ;
    simplify
  )");
  ASSERT_EQ(cmds.size(), 3u);
  EXPECT_EQ(cmds[0].name, "sweep");
  EXPECT_EQ(cmds[1].name, "eliminate");
  EXPECT_EQ(cmds[2].name, "simplify");
}

TEST(ScriptParse, EmptyInputYieldsNoCommands) {
  EXPECT_TRUE(parse_script("").empty());
  EXPECT_TRUE(parse_script("  ;; \n # only a comment\n").empty());
}

TEST(Registry, ListsTheBuiltinPasses) {
  PassRegistry& reg = PassRegistry::instance();
  for (const char* name :
       {"sweep", "eliminate", "simplify", "gkx", "resub", "full_simplify",
        "bds_partition", "bds_decompose", "bds_sharing", "bds_balance",
        "bds_emit"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_FALSE(reg.contains("collapse"));
  EXPECT_GE(reg.list().size(), 11u);
}

// The registered texts are the only definition of the three flows; they
// are pinned here verbatim so an edit to any of them is a visible,
// deliberate change.
TEST(Registry, NamedScriptsResolve) {
  PassRegistry& reg = PassRegistry::instance();
  const std::pair<const char*, const char*> pinned[] = {
      {"bds",
       "sweep; bds_partition; bds_decompose; bds_sharing; bds_balance; "
       "bds_emit; sweep"},
      {"rugged",
       "sweep; eliminate -1; simplify; sweep; eliminate 5; gkx; resub; gkx; "
       "sweep; eliminate -1; simplify; sweep; full_simplify; sweep"},
      {"sis",
       "sweep; eliminate -1; simplify; sweep; eliminate 5; gkx; resub; gkx; "
       "sweep; eliminate -1; simplify; sweep"},
  };
  for (const auto& [name, text] : pinned) {
    const std::string* found = reg.find_script(name);
    ASSERT_NE(found, nullptr) << name;
    EXPECT_EQ(*found, text) << name;
  }
  EXPECT_EQ(reg.list_scripts().size(), std::size(pinned));
  EXPECT_EQ(reg.find_script("nonesuch"), nullptr);
}

TEST(Registry, UnknownPassThrows) {
  EXPECT_THROW(PassManager::from_script("sweep; frobnicate"), ScriptError);
  EXPECT_THROW(PassRegistry::instance().create({"nope", {}}), ScriptError);
}

TEST(Registry, BadArgumentsThrow) {
  // Non-numeric threshold.
  EXPECT_THROW(PassManager::from_script("eliminate five"), ScriptError);
  // Value flag without a value.
  EXPECT_THROW(PassManager::from_script("gkx -passes"), ScriptError);
  // Unknown flag.
  EXPECT_THROW(PassManager::from_script("sweep -harder"), ScriptError);
  EXPECT_THROW(PassManager::from_script("bds_decompose -bogus"), ScriptError);
  // Stray positional argument on a pass that takes none.
  EXPECT_THROW(PassManager::from_script("simplify 3"), ScriptError);
  // Negative count.
  EXPECT_THROW(PassManager::from_script("gkx -passes -3"), ScriptError);
}

TEST(Registry, CountsParseAsPlainDigitsIntoSizeT) {
  // Counts above INT_MAX reach the std::size_t option fields.
  EXPECT_EQ(parse_size_arg("p", "3000000000"), 3'000'000'000u);
  PassManager pm = PassManager::from_script(
      "bds_partition -max_bdd 3000000000; full_simplify -max_nodes 3000000000");
  ASSERT_EQ(pm.passes().size(), 2u);
  EXPECT_NE(pm.passes()[0]->args().find("-max_bdd 3000000000"),
            std::string::npos);
  // Plain decimal digits only: no sign, blank or trailing junk.
  for (const char* bad : {"-1", "+5", " 5", "12x", ""}) {
    EXPECT_THROW(parse_size_arg("p", bad), ScriptError) << '"' << bad << '"';
  }
  // A count stored in an `unsigned` field is refused past its range.
  EXPECT_THROW(PassManager::from_script("bds_partition -passes 4294967296"),
               ScriptError);
}

TEST(Registry, ArgumentRoundTripThroughPassObjects) {
  // name() + args() of the instantiated passes reproduce a canonical
  // script that parses back to the same pipeline.
  const std::string text = "sweep; eliminate 5 -passes 2; bds_partition -t 0";
  PassManager pm = PassManager::from_script(text);
  ASSERT_EQ(pm.passes().size(), 3u);
  EXPECT_EQ(pm.passes()[0]->args(), "");
  EXPECT_EQ(pm.passes()[1]->args(), "5");
  EXPECT_EQ(pm.passes()[2]->args(), "-t 0");
}

TEST(Script, NamedScriptExpandsInFromScript) {
  PassManager pm = PassManager::from_script("rugged");
  EXPECT_EQ(pm.passes().size(),
            parse_script(*PassRegistry::instance().find_script("rugged"))
                .size());
  EXPECT_EQ(pm.passes().front()->name(), "sweep");
  EXPECT_EQ(pm.passes()[1]->name(), "eliminate");
}

}  // namespace
}  // namespace bds::opt
