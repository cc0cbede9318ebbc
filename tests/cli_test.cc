// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace hyperdom {
namespace cli {
namespace {

struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

CliRun RunCli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = Run(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(ParseArgsTest, CommandAndFlags) {
  auto parsed = ParseArgs({"knn", "--k=5", "--data=file.csv"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->command, "knn");
  EXPECT_EQ(parsed->GetFlag("k"), "5");
  EXPECT_EQ(parsed->GetFlag("data"), "file.csv");
  EXPECT_EQ(parsed->GetFlag("missing", "dflt"), "dflt");
}

TEST(ParseArgsTest, Rejections) {
  EXPECT_FALSE(ParseArgs({}).ok());
  EXPECT_FALSE(ParseArgs({"cmd", "positional"}).ok());
  EXPECT_FALSE(ParseArgs({"cmd", "--noequals"}).ok());
  EXPECT_FALSE(ParseArgs({"cmd", "--=v"}).ok());
}

TEST(ParseSphereTest, Valid) {
  auto s = ParseSphere("1,2,3;0.5");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->center(), (Point{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s->radius(), 0.5);
  auto one_d = ParseSphere("-4.5;0");
  ASSERT_TRUE(one_d.ok());
  EXPECT_EQ(one_d->dim(), 1u);
}

TEST(ParseSphereTest, Rejections) {
  EXPECT_FALSE(ParseSphere("1,2,3").ok());      // no radius
  EXPECT_FALSE(ParseSphere(";1").ok());         // no coordinates
  EXPECT_FALSE(ParseSphere("1,x;1").ok());      // bad coordinate
  EXPECT_FALSE(ParseSphere("1,2;-1").ok());     // negative radius
  EXPECT_FALSE(ParseSphere("1,2;abc").ok());    // bad radius
}

TEST(ParseCriterionTest, AllNames) {
  EXPECT_TRUE(ParseCriterion("minmax").ok());
  EXPECT_TRUE(ParseCriterion("mbr").ok());
  EXPECT_TRUE(ParseCriterion("gp").ok());
  EXPECT_TRUE(ParseCriterion("trigonometric").ok());
  EXPECT_TRUE(ParseCriterion("hyperbola").ok());
  EXPECT_TRUE(ParseCriterion("oracle").ok());
  EXPECT_FALSE(ParseCriterion("voodoo").ok());
}

TEST(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(RunCli({"help"}).exit_code, 0);
  const CliRun bad = RunCli({"frobnicate"});
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, ServeRejectsUnknownFlagBeforeLoadingData) {
  // The data file does not exist: loading it first would exit 1, and a
  // loadable one would start listening.
  const CliRun run =
      RunCli({"serve", "--data=" + testing::TempDir() + "/hyperdom_no_such.csv",
              "--port=0", "--mutabel=1"});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("unknown flag --mutabel for 'serve'"),
            std::string::npos)
      << run.err;
}

TEST(CliTest, GlobalFlagsAreAcceptedByEveryCommand) {
  const CliRun run = RunCli({"dominate", "--sa=4,0;1", "--sb=12,0;1",
                             "--sq=0,0;1.5", "--criterion=hyperbola",
                             "--seed=3", "--log-level=warn"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
}

TEST(CliTest, DominateCommand) {
  const CliRun run = RunCli({"dominate", "--sa=4,0;1", "--sb=12,0;1",
                             "--sq=0,0;1.5", "--criterion=hyperbola"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("Hyperbola"), std::string::npos);
  EXPECT_NE(run.out.find("true"), std::string::npos);
}

TEST(CliTest, DominateAllCriteria) {
  const CliRun run =
      RunCli({"dominate", "--sa=4,0;1", "--sb=12,0;1", "--sq=0,0;1.5"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  for (const char* name :
       {"MinMax", "MBR", "GP", "Trigonometric", "Hyperbola"}) {
    EXPECT_NE(run.out.find(name), std::string::npos) << name;
  }
}

TEST(CliTest, DominateRejectsMixedDimensions) {
  const CliRun run =
      RunCli({"dominate", "--sa=4,0;1", "--sb=12;1", "--sq=0,0;1.5"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("dimensionality"), std::string::npos);
}

class CliPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest -jN runs the cases as parallel processes.
    path_ = testing::TempDir() + "/hyperdom_cli_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
    const CliRun gen = RunCli({"generate", "--out=" + path_, "--n=500",
                               "--dim=3", "--mu=5", "--seed=9"});
    ASSERT_EQ(gen.exit_code, 0) << gen.err;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CliPipelineTest, GenerateIsDeterministic) {
  const std::string path2 = testing::TempDir() + "/hyperdom_cli_data2.csv";
  ASSERT_EQ(RunCli({"generate", "--out=" + path2, "--n=500", "--dim=3",
                    "--mu=5", "--seed=9"})
                .exit_code,
            0);
  std::ifstream a(path_), b(path2);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  std::remove(path2.c_str());
}

TEST_F(CliPipelineTest, KnnCommand) {
  const CliRun run = RunCli(
      {"knn", "--data=" + path_, "--query=100,100,100;5", "--k=3"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("possible top-3"), std::string::npos);
  EXPECT_NE(run.out.find("maxdist="), std::string::npos);
}

TEST_F(CliPipelineTest, KnnRejectsBadQueryDim) {
  const CliRun run = RunCli({"knn", "--data=" + path_, "--query=1,2;5"});
  EXPECT_EQ(run.exit_code, 1);
}

TEST_F(CliPipelineTest, KnnRejectsUnknownFlag) {
  // A typo'd --certified must not silently run the default criterion.
  const CliRun run = RunCli({"knn", "--data=" + path_,
                             "--query=100,100,100;5", "--certifed=1"});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.out, "");
  EXPECT_NE(run.err.find("unknown flag --certifed for 'knn'"),
            std::string::npos)
      << run.err;
}

TEST_F(CliPipelineTest, RankCommand) {
  const CliRun run = RunCli(
      {"rank", "--data=" + path_, "--target=7", "--query=100,100,100;5"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("can rank between"), std::string::npos);
}

TEST_F(CliPipelineTest, RankRejectsBadTarget) {
  const CliRun run = RunCli(
      {"rank", "--data=" + path_, "--target=99999", "--query=1,2,3;5"});
  EXPECT_EQ(run.exit_code, 1);
}

TEST_F(CliPipelineTest, ExperimentCommand) {
  const CliRun run = RunCli(
      {"experiment", "--data=" + path_, "--queries=300", "--repeats=1"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("Hyperbola"), std::string::npos);
  EXPECT_NE(run.out.find("precision"), std::string::npos);
}

TEST_F(CliPipelineTest, RangeCommand) {
  const CliRun run = RunCli({"range", "--data=" + path_,
                             "--query=100,100,100;5", "--range=50"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("certainly within"), std::string::npos);
  EXPECT_NE(run.out.find("possibly within"), std::string::npos);
}

TEST_F(CliPipelineTest, RangeRejectsMissingRange) {
  const CliRun run =
      RunCli({"range", "--data=" + path_, "--query=100,100,100;5"});
  EXPECT_EQ(run.exit_code, 1);
}

TEST_F(CliPipelineTest, ProbKnnCommand) {
  const CliRun run =
      RunCli({"probknn", "--data=" + path_, "--query=100,100,100;5",
              "--k=3", "--tau=0.2", "--samples=100"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("P[top-3] >= 0.2"), std::string::npos);
}

TEST_F(CliPipelineTest, ProbKnnRejectsBadTau) {
  const CliRun run = RunCli({"probknn", "--data=" + path_,
                             "--query=100,100,100;5", "--tau=1.5"});
  EXPECT_EQ(run.exit_code, 1);
}

TEST(CliTest, ExpiryCommand) {
  const CliRun holds = RunCli({"expiry", "--sa=2,0;0.5", "--sb=20,0;0.5",
                               "--sq=0,0;0", "--va=1", "--vb=1",
                               "--horizon=100"});
  EXPECT_EQ(holds.exit_code, 0) << holds.err;
  // Closed form (growing_test.cc): expiry at t = 8.5.
  EXPECT_NE(holds.out.find("expires at t = 8.5"), std::string::npos)
      << holds.out;

  const CliRun never = RunCli({"expiry", "--sa=20,0;0.5", "--sb=2,0;0.5",
                               "--sq=0,0;0"});
  EXPECT_EQ(never.exit_code, 0);
  EXPECT_NE(never.out.find("does not dominate"), std::string::npos);

  const CliRun forever = RunCli({"expiry", "--sa=2,0;0.1", "--sb=500,0;0.1",
                                 "--sq=0,0;0.1", "--horizon=10"});
  EXPECT_EQ(forever.exit_code, 0);
  EXPECT_NE(forever.out.find("whole horizon"), std::string::npos);
}

TEST(CliTest, ExpiryRejectsNegativeRates) {
  const CliRun run = RunCli({"expiry", "--sa=2,0;0.5", "--sb=20,0;0.5",
                             "--sq=0,0;0", "--va=-1"});
  EXPECT_EQ(run.exit_code, 1);
}

TEST(CliTest, SelfCheckCommand) {
  const CliRun run = RunCli({"selfcheck", "--scenes=1500", "--dim=3"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("all criterion contracts hold"), std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("Hyperbola"), std::string::npos);
}

TEST(CliTest, SelfCheckRejectsBadArgs) {
  EXPECT_EQ(RunCli({"selfcheck", "--scenes=0"}).exit_code, 1);
  EXPECT_EQ(RunCli({"selfcheck", "--mu=-3"}).exit_code, 1);
}

TEST_F(CliPipelineTest, MissingFileErrors) {
  const CliRun run =
      RunCli({"knn", "--data=/no/such/file.csv", "--query=1,2,3;1"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("error"), std::string::npos);
}

}  // namespace
}  // namespace cli
}  // namespace hyperdom
