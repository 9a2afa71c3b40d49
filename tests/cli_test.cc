// End-to-end tests of condsel_cli: an input the tool cannot serve must
// come back as one `error:` line on stderr and exit code 1, never as an
// abort.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "condsel/datagen/snowflake.h"
#include "condsel/io/serialize.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/cli_test_" + name;
}

struct CliRun {
  int exit_code = -1;  // -1 unless the process exited normally
  std::string stderr_text;
};

// Runs condsel_cli with `args` (already shell-quoted), capturing stderr.
CliRun RunCli(const std::string& args) {
  const std::string cmd =
      std::string("'") + CONDSEL_CLI_PATH + "' " + args + " 2>&1 >/dev/null";
  CliRun run;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    run.stderr_text += buf;
  }
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

TEST(CliTest, MissingBaseHistogramIsAnErrorNotAnAbort) {
  SnowflakeOptions options;
  options.scale = 0.005;
  const std::string catalog_path = TempPath("catalog.bin");
  const std::string pool_path = TempPath("empty_pool.bin");
  const Status wrote_catalog =
      WriteCatalog(BuildSnowflake(options), catalog_path);
  ASSERT_TRUE(wrote_catalog.ok()) << wrote_catalog.ToString();
  const Status wrote_pool = WriteSitPool(SitPool(), pool_path);
  ASSERT_TRUE(wrote_pool.ok()) << wrote_pool.ToString();

  // The empty pool has no base histogram for any column the statement
  // names, so the estimate fails with FAILED_PRECONDITION.
  const CliRun run = RunCli(
      "--catalog='" + catalog_path + "' --pool='" + pool_path +
      "' 'SELECT COUNT(*) FROM fact, dim1 WHERE fact.fk_d1 = dim1.pk AND "
      "dim1.a_corr < 40'");
  EXPECT_EQ(run.exit_code, 1) << run.stderr_text;
  EXPECT_NE(run.stderr_text.find("error: FAILED_PRECONDITION"),
            std::string::npos)
      << run.stderr_text;
  EXPECT_NE(run.stderr_text.find("no base histogram"), std::string::npos)
      << run.stderr_text;
  std::remove(catalog_path.c_str());
  std::remove(pool_path.c_str());
}

}  // namespace
}  // namespace condsel
