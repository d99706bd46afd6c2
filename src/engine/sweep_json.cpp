#include "engine/sweep_json.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "support/string_utils.hpp"

namespace paragraph {
namespace engine {

std::string
jsonDouble(double v)
{
    if (!std::isfinite(v)) // JSON has no inf/nan
        return "null";
    for (int prec = 1; prec <= 17; ++prec) {
        std::string s = strFormat("%.*g", prec, v);
        if (std::strtod(s.c_str(), nullptr) == v)
            return s;
    }
    return strFormat("%.17g", v);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strFormat("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

namespace {

const char *
predictorJsonName(core::PredictorKind kind)
{
    return core::predictorKindName(kind);
}

void
writeConfig(std::ostream &os, const SweepJob &job, const char *ind)
{
    const core::AnalysisConfig &cfg = job.config;
    os << ind << "\"config\": {\n";
    os << ind << "  \"label\": " << jsonString(job.configLabel) << ",\n";
    os << ind << "  \"syscalls\": \""
       << (cfg.sysCallsStall ? "stall" : "ignore") << "\",\n";
    os << ind << "  \"rename_regs\": "
       << (cfg.renameRegisters ? "true" : "false") << ",\n";
    os << ind << "  \"rename_stack\": "
       << (cfg.renameStack ? "true" : "false") << ",\n";
    os << ind << "  \"rename_data\": " << (cfg.renameData ? "true" : "false")
       << ",\n";
    os << ind << "  \"window\": " << cfg.windowSize << ",\n";
    os << ind << "  \"predictor\": \""
       << predictorJsonName(cfg.branchPredictor) << "\",\n";
    os << ind << "  \"total_fus\": " << cfg.totalFuLimit << ",\n";
    os << ind << "  \"pipelined_fus\": "
       << (cfg.pipelinedFus ? "true" : "false") << ",\n";
    os << ind << "  \"max_instructions\": " << cfg.maxInstructions << "\n";
    os << ind << "}";
}

void
writeProfile(std::ostream &os, const BucketedProfile &profile,
             const char *ind)
{
    os << ind << "\"profile\": [";
    bool first = true;
    for (const BucketedProfile::Point &p : profile.series()) {
        os << (first ? "" : ",") << "\n"
           << ind << "  {\"first_level\": " << p.firstLevel
           << ", \"last_level\": " << p.lastLevel
           << ", \"ops_per_level\": " << jsonDouble(p.opsPerLevel) << "}";
        first = false;
    }
    if (!first)
        os << "\n" << ind;
    os << "]";
}

void
writeCell(std::ostream &os, const SweepCell &cell,
          const SweepJsonOptions &opt)
{
    // Cells served from the result store carry their original rendering;
    // splicing it verbatim is what makes a resumed document byte-identical
    // to an uninterrupted run's.
    if (cell.status == SweepCell::Status::Skipped &&
        !cell.storedJson.empty()) {
        os << cell.storedJson;
        return;
    }

    const core::AnalysisResult &r = cell.result;
    os << "    {\n";
    os << "      \"input\": " << jsonString(cell.job.input) << ",\n";
    os << "      \"input_index\": " << cell.job.inputIndex << ",\n";
    os << "      \"config_index\": " << cell.job.configIndex << ",\n";
    writeConfig(os, cell.job, "      ");
    os << ",\n";
    if (cell.status == SweepCell::Status::Failed) {
        os << "      \"status\": \"failed\",\n";
        os << "      \"error\": " << jsonString(cell.errorMessage) << ",\n";
        os << "      \"attempts\": " << cell.attempts << "\n";
        os << "    }";
        return;
    }
    os << "      \"status\": \"ok\",\n";
    if (cell.attempts > 1)
        os << "      \"attempts\": " << cell.attempts << ",\n";
    os << "      \"instructions\": " << r.instructions << ",\n";
    os << "      \"placed_ops\": " << r.placedOps << ",\n";
    os << "      \"critical_path\": " << r.criticalPathLength << ",\n";
    os << "      \"available_parallelism\": "
       << jsonDouble(r.availableParallelism) << ",\n";
    os << "      \"syscalls\": " << r.sysCalls << ",\n";
    os << "      \"firewalls\": " << r.firewalls << ",\n";
    os << "      \"pre_existing_values\": " << r.preExistingValues << ",\n";
    os << "      \"storage_delayed_ops\": " << r.storageDelayedOps << ",\n";
    os << "      \"fu_delayed_ops\": " << r.fuDelayedOps << ",\n";
    os << "      \"cond_branches\": " << r.condBranches << ",\n";
    os << "      \"branch_mispredictions\": " << r.branchMispredictions
       << ",\n";
    os << "      \"live_well_peak\": " << r.liveWellPeak << ",\n";
    os << "      \"live_well_final\": " << r.liveWellFinal << ",\n";
    os << "      \"lifetime_mean\": " << jsonDouble(r.lifetimes.mean())
       << ",\n";
    os << "      \"sharing_mean\": " << jsonDouble(r.sharing.mean());
    if (opt.profiles) {
        os << ",\n";
        writeProfile(os, r.profile, "      ");
    }
    if (opt.timing) {
        os << ",\n";
        os << "      \"timing\": {\"wall_seconds\": "
           << jsonDouble(cell.wallSeconds)
           << ", \"minstr_per_sec\": " << jsonDouble(cell.minstrPerSec);
        if (opt.stats) {
            double analyze = cell.wallSeconds - cell.decodeSeconds;
            os << ",\n        \"decode_seconds\": "
               << jsonDouble(cell.decodeSeconds)
               << ", \"analyze_seconds\": " << jsonDouble(analyze)
               << ", \"shard_segments\": " << cell.shardSegments
               << ", \"shard_spliced\": " << cell.shardSpliced
               << ", \"shard_replayed\": " << cell.shardReplayed;
        }
        os << "}";
    }
    os << "\n    }";
}

} // namespace

void
writeSweepJson(std::ostream &os, const SweepResult &sweep,
               const SweepJsonOptions &opt)
{
    size_t failed = 0;
    for (const SweepCell &cell : sweep.cells) {
        if (cell.status == SweepCell::Status::Failed)
            ++failed;
    }
    os << "{\n";
    os << "  \"schema\": \"paragraph-sweep-v3\",\n";
    os << "  \"cells_total\": " << sweep.cells.size() << ",\n";
    os << "  \"cells_failed\": " << failed << ",\n";
    if (opt.timing) {
        os << "  \"jobs\": " << sweep.jobs << ",\n";
        os << "  \"timing\": {\"wall_seconds\": "
           << jsonDouble(sweep.wallSeconds)
           << ", \"capture_seconds\": " << jsonDouble(sweep.captureSeconds)
           << ", \"total_instructions\": " << sweep.totalInstructions
           << ", \"aggregate_minstr_per_sec\": "
           << jsonDouble(sweep.aggregateMinstrPerSec);
        if (opt.stats) {
            double decode = 0.0;
            for (const SweepCell &cell : sweep.cells)
                decode += cell.decodeSeconds;
            os << ",\n    \"decode_seconds\": " << jsonDouble(decode);
        }
        os << "},\n";
    }
    os << "  \"cells\": [";
    bool first = true;
    for (const SweepCell &cell : sweep.cells) {
        os << (first ? "" : ",") << "\n";
        writeCell(os, cell, opt);
        first = false;
    }
    if (!first)
        os << "\n  ";
    os << "]\n";
    os << "}\n";
}

std::string
cellToJson(const SweepCell &cell, const SweepJsonOptions &opt)
{
    std::ostringstream oss;
    writeCell(oss, cell, opt);
    return oss.str();
}

std::string
sweepToJson(const SweepResult &sweep, const SweepJsonOptions &opt)
{
    std::ostringstream oss;
    writeSweepJson(oss, sweep, opt);
    return oss.str();
}

} // namespace engine
} // namespace paragraph
