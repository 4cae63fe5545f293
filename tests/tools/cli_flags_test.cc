// Strict-flag-parsing regression for tools/muve_cli: every numeric flag
// rejects malformed, out-of-range, and overflowing values with exit code
// 2 and a diagnostic naming the flag — never a silent atoi-style
// truncation to 0 or a wrapped value.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#ifndef MUVE_CLI_BINARY
#error "MUVE_CLI_BINARY must be defined by the build"
#endif

namespace muve {
namespace {

std::string RunCommand(const std::string& command, int* exit_code) {
  const std::string full = command + " 2>&1";
  FILE* pipe = popen(full.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << full;
  if (pipe == nullptr) return "";
  std::string output;
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = pclose(pipe);
  *exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return output;
}

// Runs the CLI with one bad flag value on the toy dataset and asserts
// exit 2 with a diagnostic that names the flag.
void ExpectRejected(const std::string& flag_assignment,
                    const std::string& flag_name) {
  int exit_code = -1;
  const std::string output = RunCommand(
      std::string(MUVE_CLI_BINARY) + " --dataset=toy " + flag_assignment,
      &exit_code);
  EXPECT_EQ(exit_code, 2) << flag_assignment << "\n" << output;
  EXPECT_NE(output.find(flag_name), std::string::npos)
      << "diagnostic does not name " << flag_name << ":\n"
      << output;
}

TEST(CliFlags, MalformedIntegerValuesExitTwo) {
  ExpectRejected("--k=abc", "--k");
  ExpectRejected("--k=", "--k");
  ExpectRejected("--k=12x", "--k");
  ExpectRejected("--k=1.5", "--k");
  ExpectRejected("--threads=abc", "--threads");
  ExpectRejected("--step=1e3", "--step");
  ExpectRejected("--def-bins=ten", "--def-bins");
  ExpectRejected("--max-rows=lots", "--max-rows");
  ExpectRejected("--max-cache-mb=big", "--max-cache-mb");
  ExpectRejected("--num-dims=x", "--num-dims");
  ExpectRejected("--num-measures=x", "--num-measures");
  ExpectRejected("--num-functions=x", "--num-functions");
}

TEST(CliFlags, OutOfRangeValuesExitTwo) {
  ExpectRejected("--k=0", "--k");
  ExpectRejected("--k=-3", "--k");
  ExpectRejected("--threads=0", "--threads");
  ExpectRejected("--threads=-1", "--threads");
  ExpectRejected("--step=0", "--step");
  ExpectRejected("--def-bins=0", "--def-bins");
  ExpectRejected("--max-rows=-1", "--max-rows");
}

TEST(CliFlags, OverflowingValuesExitTwoNotWrap) {
  // 20 nines overflows int64: with atoll this wrapped or saturated;
  // strict parsing must reject it naming the flag.
  ExpectRejected("--max-rows=99999999999999999999", "--max-rows");
  ExpectRejected("--k=99999999999999999999", "--k");
  ExpectRejected("--threads=99999999999999999999", "--threads");
}

TEST(CliFlags, MalformedDoubleValuesExitTwo) {
  ExpectRejected("--deadline-ms=soon", "--deadline-ms");
  ExpectRejected("--deadline-ms=1,5", "--deadline-ms");
  ExpectRejected("--deadline-ms=nan", "--deadline-ms");
  ExpectRejected("--deadline-ms=1e400", "--deadline-ms");
  ExpectRejected("--cancel-after-ms=later", "--cancel-after-ms");
  ExpectRejected("--weights=a,b,c", "--weights");
  ExpectRejected("--weights=0.5,0.5,1.5", "--weights");
  ExpectRejected("--weights=0.5,inf,0.1", "--weights");
}

TEST(CliFlags, ValidBoundaryValuesStillWork) {
  int exit_code = -1;
  const std::string output = RunCommand(
      std::string(MUVE_CLI_BINARY) +
          " --dataset=toy --k=1 --threads=1 --scheme=muve-muve",
      &exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  // "+" prefixed numerics are accepted (ordinary numeric frontends do).
  const std::string plus = RunCommand(
      std::string(MUVE_CLI_BINARY) + " --dataset=toy --k=+2", &exit_code);
  EXPECT_EQ(exit_code, 0) << plus;
}

// --predicate is a bare WHERE condition: a trailing ORDER BY / LIMIT /
// GROUP BY is rejected (exit 2) instead of silently dropped, while the
// bare condition over the same CSV still runs.
TEST(CliFlags, PredicateWithTrailingClausesExitsTwo) {
  const std::string path = ::testing::TempDir() + "/muve_cli_trailing.csv";
  {
    std::ofstream out(path);
    out << "a,x,m\n1,1,10\n2,2,20\n3,3,30\n4,4,40\n1,5,15\n";
  }
  const std::string base = std::string(MUVE_CLI_BINARY) + " --csv=" + path +
                           " --dims=x --measures=m --scheme=linear-linear";
  int exit_code = -1;
  const std::string bare = RunCommand(base + " --predicate='a >= 2'",
                                      &exit_code);
  EXPECT_EQ(exit_code, 0) << bare;
  EXPECT_NE(bare.find("3 in D_Q"), std::string::npos) << bare;
  for (const char* clause : {"ORDER BY a LIMIT 1", "LIMIT 1", "GROUP BY a"}) {
    const std::string output = RunCommand(
        base + " --predicate='a >= 2 " + clause + "'", &exit_code);
    EXPECT_EQ(exit_code, 2) << clause << "\n" << output;
    EXPECT_NE(output.find("trailing"), std::string::npos) << output;
  }
}

}  // namespace
}  // namespace muve
