// Named experiment parameters, and the command line's one way into an
// experiment. One table maps each name (a --grid axis, or the setting of a
// flag scda-sim and scda-sweep share) to the ExperimentConfig field it
// sets; it is the only place a value becomes an integer. Every other range
// rule stays with the component that consumes the value (Cloud,
// ThreeTierTree, Network::add_link, WorkloadDriver, run_once). Both CLIs
// write their defaults into a base ExperimentConfig, apply the flags below
// and run it through run_once().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runner/experiment.h"
#include "util/args.h"

namespace scda::runner {

/// Set `cfg`'s parameter `name` to `value`. Throws std::invalid_argument
/// for an unknown name, for an integer parameter's value that is not a
/// whole number in its type's range, and for a run length (end_time_s,
/// sim_time_s) below 0 s or past the simulated time range.
void apply_param(ExperimentConfig& cfg, const std::string& name, double value);

/// Refuse a positional argument, or a flag that is neither a shared flag
/// nor in `own`, naming it; then set each shared flag present in `args`
/// through the table.
void apply_flags(const util::ArgParser& args, ExperimentConfig& cfg,
                 std::vector<std::string> own);

/// --help lines of the shared flags but --base-mbps and --replicate, whose
/// defaults differ between the tools.
extern const char kSharedFlagsHelp[];

/// Set the arrival window from --duration and the run length from
/// --duration plus --drain (defaults `duration_s` and `drain_s`); each is
/// refused below 0 s, and their sum past the simulated time range.
void apply_run_length(const util::ArgParser& args, ExperimentConfig& cfg,
                      double duration_s, double drain_s);

/// The generator factory for workload `name`: video, video-noctrl, dc and
/// pareto arrive at --arrival-rate per second (default 2, 60 and
/// `pareto_rate`), refused unless > 0; trace replays --trace FILE.
[[nodiscard]] std::function<std::unique_ptr<workload::Generator>()>
workload_factory(const util::ArgParser& args, const std::string& name,
                 double pareto_rate);

}  // namespace scda::runner
