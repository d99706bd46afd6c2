// Table 2: SPEC Benchmarks Analyzed.
//
// Runs every workload analog end to end and prints the benchmark inventory:
// source language, type, inputs, and instruction counts — the analog of the
// paper's Table 2 (where traces ran to 100M instructions; this repository's
// laptop-scale analogs run one to tens of millions).
#include <cstdio>
#include <iostream>

#include "bench/bench_common.hpp"
#include "support/ascii_table.hpp"
#include "support/string_utils.hpp"
#include "trace/stats.hpp"

using namespace paragraph;

int
main()
{
    bench::banner("Table 2: SPEC Benchmark Analogs", "Table 2");

    AsciiTable table;
    table.addColumn("Benchmark", AsciiTable::Align::Left);
    table.addColumn("Source Language", AsciiTable::Align::Left);
    table.addColumn("Type", AsciiTable::Align::Left);
    table.addColumn("Input", AsciiTable::Align::Left);
    table.addColumn("Instructions In Trace");
    table.addColumn("Instructions Analyzed");
    table.addColumn("Instr/SysCall");

    auto &suite = workloads::WorkloadSuite::instance();
    for (const auto &w : suite.all()) {
        auto src = suite.makeSource(w, workloads::Scale::Full);
        trace::TraceStats stats = trace::TraceStats::collect(*src);
        std::string input;
        for (size_t i = 0; i < w.input.size(); ++i) {
            if (i)
                input += ' ';
            input += std::to_string(w.input[i]);
        }
        table.beginRow();
        table.cell(w.name);
        table.cell(w.language);
        table.cell(w.benchType);
        table.cell(input);
        table.cell(stats.totalInstructions);
        table.cell(stats.totalInstructions); // analyzed in full
        if (stats.sysCalls) {
            table.cell(stats.instructionsPerSysCall(), 0);
        } else {
            table.cell(std::string("-"));
        }
    }
    table.print(std::cout);

    std::printf("\nWorkload descriptions:\n");
    for (const auto &w : suite.all())
        std::printf("  %-10s %s\n", w.name.c_str(), w.description.c_str());
    std::printf("\nPaper context: the original table lists the proprietary "
                "SPEC89 binaries with\ntraces of up to 100,000,000 "
                "instructions (cc1 and espresso run to completion).\n");
    return 0;
}
