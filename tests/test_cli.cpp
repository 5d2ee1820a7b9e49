// The CLI's help text: `varbench --help` shows, under each subcommand,
// every flag that subcommand accepts. Each subcommand keeps one flag list,
// which its parser, its unknown-flag check and the help all read.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::string run_help() {
  std::string out;
  FILE* pipe = popen(VARBENCH_CLI " --help", "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  EXPECT_EQ(pclose(pipe), 0);
  return out;
}

/// The help text of each subcommand: its usage lines, keyed by the word
/// that opens them ("  run     <spec.json> ...").
std::map<std::string, std::string> sections(const std::string& help) {
  std::map<std::string, std::string> out;
  std::string current;
  std::istringstream lines{help};
  for (std::string line; std::getline(lines, line);) {
    if (line.size() > 2 && line.rfind("  ", 0) == 0 && line[2] != ' ') {
      current = line.substr(2, line.find(' ', 2) - 2);
    } else if (line.rfind("  ", 0) != 0) {
      current.clear();
    }
    if (!current.empty()) out[current] += line + "\n";
  }
  return out;
}

TEST(Help, ListsEveryFlagUnderItsSubcommand) {
  const std::map<std::string, std::vector<std::string>> accepted{
      {"run",
       {"set", "shard", "threads", "out", "csv", "canonical", "format",
        "metrics", "metrics-out", "trace-out"}},
      {"merge", {"out", "csv", "format"}},
      {"convert", {"format", "canonical"}},
      {"campaign",
       {"dir", "shards", "workers", "resume", "max-retries", "stale-ms",
        "task-timeout-ms", "set", "threads", "plan-only", "format", "metrics",
        "trace"}},
      {"trace", {"chrome", "summary", "format"}},
      {"status", {"json", "watch", "interval-ms"}},
      {"list", {"json"}},
      {"metrics", {"list", "json"}},
      {"bench",
       {"gate", "dir", "threshold", "repeats", "scale", "threads", "label",
        "no-append", "inject-slowdown"}},
      {"report", {"spec", "set", "format", "compare", "threads", "out"}},
      {"tasks", {}},
      {"plan", {"gamma", "alpha", "beta"}},
      {"audit", {"scale"}},
  };
  const auto help = sections(run_help());
  for (const auto& [command, flags] : accepted) {
    const auto it = help.find(command);
    ASSERT_NE(it, help.end()) << "no help for '" << command << "'";
    for (const std::string& flag : flags) {
      const bool listed =
          it->second.find("[--" + flag + " ") != std::string::npos ||
          it->second.find("[--" + flag + "]") != std::string::npos;
      EXPECT_TRUE(listed) << command << " --" << flag << " missing from:\n"
                          << it->second;
    }
  }
}

}  // namespace
