// Golden-file regression test for tools/muve_cli on the library-owned toy
// dataset (src/data/toy): the CLI's end-to-end output — dataset summary,
// top-k lines, and the ExecStats counters — is pinned byte-for-byte
// against checked-in golden files.  Wall-clock tokens (cost= / Ct= /
// Cc= / Cd= / Ca= / setup=) and the host-dependent SIMD dispatch token
// (simd=) are scrubbed to `*` before comparison; everything else
// (utilities, objective values, query/row/base-histogram counters) is
// deterministic on the toy workload and must not drift silently.
//
// Refreshing after an intentional output change:
//
//   MUVE_UPDATE_GOLDEN=1 ./cli_golden_test
//
// rewrites tests/golden/*.golden in the source tree; re-run without the
// variable and commit the diff alongside the change that caused it.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef MUVE_CLI_BINARY
#error "MUVE_CLI_BINARY must be defined by the build"
#endif
#ifndef MUVE_GOLDEN_DIR
#error "MUVE_GOLDEN_DIR must be defined by the build"
#endif

namespace muve {
namespace {

// Runs `command` and captures its combined stdout+stderr.
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

// Scrubs the nondeterministic wall-clock tokens: any space-separated
// token whose key (ignoring a leading '(') is cost/Ct/Cc/Cd/Ca has its
// value replaced by `*`, keeping surrounding punctuation.
std::string ScrubTimings(const std::string& text) {
  std::istringstream lines(text);
  std::ostringstream out;
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (!first) out << '\n';
    first = false;
    std::istringstream tokens(line);
    std::string token;
    std::ostringstream rebuilt;
    // Preserve the line's leading indentation.
    const size_t indent = line.find_first_not_of(' ');
    if (indent != std::string::npos) rebuilt << line.substr(0, indent);
    bool first_token = true;
    while (tokens >> token) {
      if (!first_token) rebuilt << ' ';
      first_token = false;
      const size_t key_start = (!token.empty() && token[0] == '(') ? 1 : 0;
      const size_t eq = token.find('=');
      const std::string key = eq == std::string::npos
                                  ? ""
                                  : token.substr(key_start, eq - key_start);
      if (key == "cost" || key == "Ct" || key == "Cc" || key == "Cd" ||
          key == "Ca" || key == "setup" || key == "simd") {
        rebuilt << token.substr(0, eq + 1) << '*';
        if (!token.empty() && token.back() == ')') rebuilt << ')';
      } else {
        rebuilt << token;
      }
    }
    out << rebuilt.str();
  }
  return out.str();
}

void CheckGolden(const std::string& name, const std::string& args,
                 int expected_exit = 0) {
  const std::string golden_path =
      std::string(MUVE_GOLDEN_DIR) + "/" + name + ".golden";
  int exit_code = -1;
  const std::string raw =
      RunCommand(std::string(MUVE_CLI_BINARY) + " " + args, &exit_code);
  ASSERT_EQ(exit_code, expected_exit) << "CLI exit drifted:\n" << raw;
  const std::string actual = ScrubTimings(raw);

  if (std::getenv("MUVE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << actual;
    GTEST_SKIP() << "golden refreshed: " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " — run with MUVE_UPDATE_GOLDEN=1 to create it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "CLI output drifted from " << golden_path
      << "; if intentional, refresh with MUVE_UPDATE_GOLDEN=1";
}

TEST(CliGoldenTest, ToyLinearLinear) {
  CheckGolden("muve_cli_toy_linear", "--dataset=toy --scheme=linear-linear --k=5");
}

TEST(CliGoldenTest, ToyMuveMuve) {
  // The probe order is pinned: the priority rule consults wall-clock cost
  // estimates, and with the fused prewarm every probe is a cache hit whose
  // nanosecond-scale timing noise can flip the rule between runs.  The
  // fixed order keeps the probe counters byte-stable.
  CheckGolden("muve_cli_toy_muve",
              "--dataset=toy --scheme=muve-muve --k=3 "
              "--probe-order=deviation-first");
}

// Anytime contract at the CLI surface: an already-expired deadline prints
// an empty-but-valid top-k, the completeness tokens in the stats line, a
// DEGRADED banner, and exits 4 (deadline_exceeded).  Deterministic because
// nothing is probed: every counter is zero except the skip accounting.
TEST(CliGoldenTest, ToyLinearLinearDeadlineZero) {
  CheckGolden("muve_cli_toy_deadline0",
              "--dataset=toy --scheme=linear-linear --k=5 --deadline-ms=0",
              /*expected_exit=*/4);
}

}  // namespace
}  // namespace muve
