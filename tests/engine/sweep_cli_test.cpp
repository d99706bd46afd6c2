// End-to-end tests of the `paragraph-sweep` CLI binary: spawn it like a
// user would and check the JSON document and the determinism guarantee.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

std::string
sweepCliPath()
{
#ifdef PARAGRAPH_SWEEP_CLI_PATH
    return PARAGRAPH_SWEEP_CLI_PATH;
#else
    return "./build/tools/paragraph-sweep";
#endif
}

struct CliResult
{
    int status;
    std::string output;
};

CliResult
runSweep(const std::string &args, const std::string &stderrPath = "/dev/null")
{
    std::string cmd = sweepCliPath() + " " + args + " 2>" + stderrPath;
    std::FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe))
        out += buf;
    int status = pclose(pipe);
    return CliResult{status, out};
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

std::string
goldenTrace(const std::string &name)
{
    return std::string(PARAGRAPH_GOLDEN_DIR) + "/" + name;
}

} // namespace

TEST(SweepCli, EmitsTheGridAsJson)
{
    CliResult r = runSweep("--inputs=xlisp --small --windows=16,0 "
                           "--quiet --no-profiles");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("\"schema\": \"paragraph-sweep-v3\""),
              std::string::npos);
    EXPECT_NE(r.output.find("\"cells_total\": 2"), std::string::npos);
    EXPECT_NE(r.output.find("\"critical_path\""), std::string::npos);
    EXPECT_NE(r.output.find("\"available_parallelism\""),
              std::string::npos);
    EXPECT_NE(r.output.find("\"window\": 16"), std::string::npos);
}

TEST(SweepCli, JobCountDoesNotChangeTheDocument)
{
    const std::string grid = "--inputs=xlisp,matrix300 --small "
                             "--windows=4,16,64,0 --rename=regs,data "
                             "--quiet --no-timing";
    CliResult serial = runSweep(grid + " --jobs=1");
    CliResult threaded = runSweep(grid + " --jobs=4");
    EXPECT_EQ(serial.status, 0);
    EXPECT_EQ(threaded.status, 0);
    EXPECT_EQ(serial.output, threaded.output);
    EXPECT_NE(serial.output.find("\"cells_total\": 16"),
              std::string::npos);
}

TEST(SweepCli, CrossesEveryAxis)
{
    CliResult r = runSweep("--inputs=xlisp --small --windows=16,0 "
                           "--syscalls=stall,ignore --rename=none,data "
                           "--quiet --no-profiles --no-timing");
    EXPECT_EQ(r.status, 0);
    // 2 windows x 2 syscall modes x 2 renaming points = 8 cells.
    EXPECT_NE(r.output.find("\"cells_total\": 8"), std::string::npos);
    EXPECT_NE(r.output.find("\"syscalls\": \"ignore\""),
              std::string::npos);
    EXPECT_NE(r.output.find("\"rename_regs\": false"), std::string::npos);
}

TEST(SweepCli, WritesToAFile)
{
    namespace fs = std::filesystem;
    std::string path = (fs::temp_directory_path() / "sweep_out.json").string();
    CliResult r = runSweep("--inputs=xlisp --small --windows=16 --quiet "
                           "--no-profiles --out=" + path);
    EXPECT_EQ(r.status, 0);
    EXPECT_TRUE(r.output.empty()); // JSON went to the file, not stdout
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream oss;
    oss << in.rdbuf();
    EXPECT_NE(oss.str().find("\"schema\": \"paragraph-sweep-v3\""),
              std::string::npos);
    fs::remove(path);
}

TEST(SweepCli, SigintFlushesTheJournalAndExits130)
{
    // The graceful-interrupt contract: SIGINT mid-sweep cancels in-flight
    // cells cooperatively, still writes the (partial) document and store,
    // and exits with the shell's death-by-SIGINT status, 128 + 2. The grid
    // is big and serial on purpose so the signal always lands mid-run.
    namespace fs = std::filesystem;
    std::string journal = (fs::temp_directory_path() / "sweep_int.jsonl")
                              .string();
    std::string out = (fs::temp_directory_path() / "sweep_int.json").string();
    fs::remove(journal);
    fs::remove(out);

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int devnull = ::open("/dev/null", O_WRONLY);
        ::dup2(devnull, 2);
        std::string bin = sweepCliPath();
        std::string journalArg = "--journal=" + journal;
        std::string outArg = "--out=" + out;
        ::execl(bin.c_str(), bin.c_str(), "--inputs=cc1,espresso,xlisp",
                "--windows=0,16,64,256,1024", "--jobs=1", "--quiet",
                "--no-timing", journalArg.c_str(), outArg.c_str(),
                static_cast<char *>(nullptr));
        _exit(127);
    }

    // Give parseArgs + the signal-handler installation time to happen; the
    // 15-cell serial full-scale grid runs far longer than this.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_EQ(::kill(pid, SIGINT), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "died by signal instead of handling it";
    EXPECT_EQ(WEXITSTATUS(status), 128 + SIGINT);

    // The store and the document were written on the way out.
    std::ifstream jin(journal);
    ASSERT_TRUE(jin.good());
    std::string header;
    std::getline(jin, header);
    EXPECT_NE(header.find("paragraph-serve-store-v1"), std::string::npos);
    std::ifstream din(out);
    ASSERT_TRUE(din.good());
    std::ostringstream doc;
    doc << din.rdbuf();
    EXPECT_NE(doc.str().find("\"schema\": \"paragraph-sweep-v3\""),
              std::string::npos);
    fs::remove(journal);
    fs::remove(out);
}

TEST(SweepCli, JournalNeverServesCellsOfAReplacedTrace)
{
    // Regression: the old line-per-grid-index journal matched cells on the
    // input *name*, so regenerating f.ptrc under the same name spliced the
    // old trace's cells into the new document. The store behind --journal
    // keys cells by trace content, captured or pooled.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "sweep_stale";
    fs::create_directories(dir);
    const std::string trace = (dir / "f.ptrc").string();
    const std::string store = (dir / "store.jsonl").string();
    const std::string err = (dir / "err.txt").string();
    for (const char *mode : {"", " --stream"}) {
        fs::remove(store);
        fs::copy_file(goldenTrace("xlisp-800.ptrc"), trace,
                      fs::copy_options::overwrite_existing);
        const std::string grid = "--inputs=" + trace +
                                 " --windows=16,64 --no-profiles" + mode;
        CliResult first = runSweep(grid + " --journal=" + store);
        ASSERT_EQ(first.status, 0);

        // Same trace: both cells are served.
        CliResult again = runSweep(grid + " --journal=" + store, err);
        EXPECT_EQ(again.output, first.output) << mode;
        EXPECT_NE(slurp(err).find("2 cell(s) served from"),
                  std::string::npos)
            << mode;

        // A different trace under the same name: nothing is served.
        fs::copy_file(goldenTrace("matrix300-600.ptrc"), trace,
                      fs::copy_options::overwrite_existing);
        CliResult rerun = runSweep(grid + " --journal=" + store, err);
        CliResult fresh = runSweep(grid + " --no-timing");
        EXPECT_EQ(rerun.status, 0);
        EXPECT_EQ(rerun.output, fresh.output) << mode;
        EXPECT_EQ(slurp(err).find("served from"), std::string::npos)
            << mode;
    }
    fs::remove_all(dir);
}

TEST(SweepCli, JournalServesAnOverlappingGridAtItsOwnCoordinates)
{
    // A stored cell is shared by content across grids. A second grid with
    // reordered inputs (one under another file name), a reordered subset
    // of windows and a dropped syscalls axis (which shortens every label)
    // is served entirely from the store, rebound to its own coordinates.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "sweep_overlap";
    fs::create_directories(dir);
    const std::string store = (dir / "store.jsonl").string();
    const std::string err = (dir / "err.txt").string();
    const std::string xlisp = goldenTrace("xlisp-800.ptrc");
    const std::string copy = (dir / "m.ptrc").string();
    fs::remove(store);
    fs::copy_file(goldenTrace("matrix300-600.ptrc"), copy,
                  fs::copy_options::overwrite_existing);

    CliResult first = runSweep("--inputs=" + xlisp + "," +
                               goldenTrace("matrix300-600.ptrc") +
                               " --windows=16,64,256 --syscalls=stall,ignore"
                               " --journal=" + store);
    ASSERT_EQ(first.status, 0);

    const std::string second =
        "--inputs=" + copy + "," + xlisp + " --windows=256,16";
    CliResult served = runSweep(second + " --journal=" + store, err);
    CliResult fresh = runSweep(second + " --no-timing");
    ASSERT_EQ(served.status, 0);
    EXPECT_NE(slurp(err).find("4 cell(s) served from"), std::string::npos);
    EXPECT_EQ(served.output, fresh.output);
    fs::remove_all(dir);
}

TEST(SweepCli, ExploreJournalRerunServesEveryCell)
{
    // Explore rounds resolve through the store like any grid: a second
    // identical --explore run executes nothing and emits the same bytes.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "sweep_explore_journal";
    fs::create_directories(dir);
    const std::string store = (dir / "store.jsonl").string();
    const std::string err = (dir / "err.txt").string();
    fs::remove(store);

    const std::string cmd = "--explore --inputs=" +
                            goldenTrace("xlisp-800.ptrc") +
                            " --windows=4,16,64,0 --rename=none,regs"
                            " --journal=" + store;
    CliResult first = runSweep(cmd);
    ASSERT_EQ(first.status, 0);
    const std::string key = "\"cells_executed\": ";
    size_t at = first.output.find(key);
    ASSERT_NE(at, std::string::npos);
    const unsigned long executed =
        std::stoul(first.output.substr(at + key.size()));
    ASSERT_GT(executed, 0u);

    CliResult second = runSweep(cmd, err);
    ASSERT_EQ(second.status, 0);
    EXPECT_EQ(second.output, first.output);
    EXPECT_NE(slurp(err).find("explore: " + std::to_string(executed) +
                              " cell(s) served from"),
              std::string::npos)
        << slurp(err);
    fs::remove_all(dir);
}

TEST(SweepCli, BadArgumentsFailCleanly)
{
    EXPECT_NE(runSweep("--inputs=xlisp --bogus").status, 0);
    EXPECT_NE(runSweep("--inputs=no-such-workload --quiet").status, 0);
    EXPECT_NE(runSweep("--inputs=xlisp --rename=everything").status, 0);
    EXPECT_NE(runSweep("").status, 0);
}
