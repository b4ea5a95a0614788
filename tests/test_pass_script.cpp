// Tests for the pipeline script grammar and the pass registry: parsing,
// named-script resolution, and the error cases (unknown pass, malformed
// arguments).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

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
  EXPECT_THROW(PassManager::from_script("bds_partition -t"), ScriptError);
  // Unknown flag.
  EXPECT_THROW(PassManager::from_script("sweep -harder"), ScriptError);
  EXPECT_THROW(PassManager::from_script("bds_decompose -bogus"), ScriptError);
  // Stray positional argument on a pass that takes none.
  EXPECT_THROW(PassManager::from_script("simplify 3"), ScriptError);
  // Negative count.
  EXPECT_THROW(PassManager::from_script("bds_decompose -j -3"), ScriptError);
}

TEST(Registry, CountsParseAsPlainDigitsIntoSizeT) {
  // Counts above INT_MAX reach std::size_t.
  EXPECT_EQ(parse_size_arg("p", "3000000000"), 3'000'000'000u);
  // Plain decimal digits only: no sign, blank or trailing junk.
  for (const char* bad : {"-1", "+5", " 5", "12x", ""}) {
    EXPECT_THROW(parse_size_arg("p", bad), ScriptError) << '"' << bad << '"';
  }
  // A worker count is range-checked as a std::size_t, before it is stored
  // in an `unsigned`: 2^32 + 1 is refused, not wrapped to 1.
  EXPECT_EQ(PassManager::from_script("bds_decompose -j 1024")
                .passes()[0]
                ->args(),
            "-j 1024");
  for (const char* big : {"1025", "3000000000", "4294967297"}) {
    EXPECT_THROW(
        PassManager::from_script(std::string("bds_decompose -j ") + big),
        ScriptError)
        << big;
  }
}

TEST(Registry, ArgumentRoundTripThroughPassObjects) {
  // name() + args() of the instantiated passes reproduce a canonical
  // script that parses back to the same pipeline.
  const std::string text =
      "sweep; eliminate 5; bds_partition -t 0; bds_decompose -j 2 -nomux";
  PassManager pm = PassManager::from_script(text);
  ASSERT_EQ(pm.passes().size(), 4u);
  EXPECT_EQ(pm.passes()[0]->args(), "");
  EXPECT_EQ(pm.passes()[1]->args(), "5");
  EXPECT_EQ(pm.passes()[2]->args(), "-t 0");
  EXPECT_EQ(pm.passes()[3]->args(), "-nomux -j 2");
  std::string canonical;
  for (const auto& pass : pm.passes()) {
    if (!canonical.empty()) canonical += "; ";
    canonical += std::string(pass->name()) + " " + pass->args();
  }
  const PassManager again = PassManager::from_script(canonical);
  ASSERT_EQ(again.passes().size(), pm.passes().size());
  for (std::size_t i = 0; i < pm.passes().size(); ++i) {
    EXPECT_EQ(again.passes()[i]->name(), pm.passes()[i]->name());
    EXPECT_EQ(again.passes()[i]->args(), pm.passes()[i]->args());
  }
}

// Every flag a registered pass still accepts, each at a non-default value:
// args() must render it, and the rendered text must rebuild the same pass.
// A pass registered without a row here fails the test, so a new flag
// cannot go unrendered unnoticed.
TEST(Registry, EveryRemainingFlagRendersAndRoundTrips) {
  const std::string lib = testing::TempDir() + "round_trip.genlib";
  {
    std::ofstream out(lib);
    out << "GATE inv 1 O=!a;\nGATE nand2 2 O=!(a*b);\n";
  }
  const std::pair<std::string, std::string> cases[] = {
      {"sweep", ""},
      {"eliminate", "3"},
      {"simplify", ""},
      {"gkx", ""},
      {"resub", ""},
      {"full_simplify", ""},
      {"bds_partition", "-t 2"},
      {"bds_decompose",
       "-noreorder -nodom -nomux -nogen -noxdom -constrain -j 3"},
      {"bds_sharing", ""},
      {"bds_balance", ""},
      {"bds_emit", ""},
      {"map", "-lib " + lib},
      {"lutmap", "-k 5"},
  };
  PassRegistry& reg = PassRegistry::instance();
  std::size_t covered = 0;
  for (const auto& [name, args] : cases) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(reg.contains(name));
    ++covered;
    const std::unique_ptr<Pass> pass =
        reg.create({name, parse_script(name + " " + args)[0].args});
    EXPECT_EQ(pass->args(), args);
    const PassManager rebuilt =
        PassManager::from_script(name + " " + pass->args());
    ASSERT_EQ(rebuilt.passes().size(), 1u);
    EXPECT_EQ(rebuilt.passes()[0]->args(), pass->args());
  }
  EXPECT_EQ(covered, reg.list().size()) << "a registered pass has no case";
  std::remove(lib.c_str());
}

// The settable values no flow, bench or service set are constants now:
// each old flag is refused by name, as are the old `bds` parameters.
TEST(Registry, DeletedFlagsAndParametersAreRefused) {
  const std::pair<const char*, const char*> flags[] = {
      {"bds_partition -max_bdd 5", "-max_bdd"},
      {"bds_partition -passes 2", "-passes"},
      {"bds_decompose -max_cuts 8", "-max_cuts"},
      {"eliminate 5 -passes 2", "-passes"},
      {"eliminate -max_cubes 9", "-max_cubes"},
      {"gkx -passes 3", "-passes"},
      {"gkx -kernels 8", "-kernels"},
      {"gkx -max_cubes 9", "-max_cubes"},
      {"resub -max_cubes 9", "-max_cubes"},
      {"full_simplify -max_fanins 8", "-max_fanins"},
      {"full_simplify -max_nodes 9", "-max_nodes"},
      {"full_simplify -max_dc_cubes 9", "-max_dc_cubes"},
  };
  for (const auto& [script, flag] : flags) {
    try {
      PassManager::from_script(std::string("sweep; ") + script);
      ADD_FAILURE() << script << " was accepted";
    } catch (const ScriptError& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << script << ": " << e.what();
    }
  }
  for (const char* key : {"max_cuts", "threshold"}) {
    try {
      PassManager::from_script("bds", {{key, "8"}});
      ADD_FAILURE() << key << " was accepted";
    } catch (const ScriptError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown pipeline parameter"),
                std::string::npos)
          << key << ": " << e.what();
    }
  }
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
