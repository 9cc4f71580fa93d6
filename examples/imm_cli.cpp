/// \file imm_cli.cpp
/// \brief Full command-line driver, in the spirit of the `imm` tool the
/// Ripples framework ships: load any edge-list graph (or a registry
/// surrogate), pick a driver and model, run influence maximization, and
/// emit the seeds plus diagnostics as text or JSON.
///
/// Usage:
///   imm_cli --input graph.txt [--weights uniform|constant:<p>|wc|keep]
///           [--driver seq|baseline|mt|dist|dist-part|tim|ris]
///           [--model IC|LT]               (also picks the RRR engine: IC
///                                          batches 64 samples per fused
///                                          traversal pass once its walks
///                                          pay for the lanes, LT walks
///                                          each sample's short path
///                                          alone; byte-identical output)
///           [--epsilon 0.5] [-k 50]
///           [--threads N] [--ranks P]
///           [--evaluate-trials 0] [--json out.json] [--seed S]
///           [--json-report report.json]   (structured metrics run report)
///           [--trace trace.json]          (Chrome trace-event timeline,
///                                          loadable in Perfetto)
///           [--profile-mem]               (background resource sampler:
///                                          memory timeline in the report
///                                          and counter tracks in the
///                                          trace; also RIPPLES_PROFILE_MEM)
///           [--profile-mem-hz HZ]         (sampling rate; default 10)
///           [--recover]                   (dist: survive rank failures by
///                                          shrinking + regenerating)
///           [--watchdog-ms N]             (collective stall deadline; 0=off)
///           [--inject-fault rank=R,site=N
///                           [,kind=crash|stall|oom|corrupt|flaky]
///                           [,sticky][,attempts=M]]
///                                         (deterministic fault plan; also
///                                          RIPPLES_FAULTS. kind=oom fails
///                                          rank R's Nth tracked memory
///                                          reservation, sticky.
///                                          kind=corrupt flips a payload
///                                          bit at the Nth communication
///                                          entry — once, or on every
///                                          retransmission with `sticky`.
///                                          kind=flaky fails delivery of
///                                          the first M attempts there,
///                                          then succeeds)
///           [--mem-budget BYTES]          (RRR memory budget; 0 = unlimited.
///                                          Over-budget runs degrade:
///                                          compress, shed batches, certify
///                                          a looser epsilon; seq/mt/dist
///                                          only, else refused; also
///                                          RIPPLES_MEM_BUDGET)
///           [--rrr-compress auto|always|off]
///                                         (delta+varint RRR encoding; auto
///                                          switches under budget pressure;
///                                          `always` on seq/mt/dist only,
///                                          else refused; also
///                                          RIPPLES_RRR_COMPRESS)
///           [--selection-exchange dense|sparse]
///                                         (dist/dist-part seed-selection
///                                          protocol; also
///                                          RIPPLES_SELECTION_EXCHANGE)
///           [--selection-topm N]          (candidates per rank per sparse
///                                          round; default 16)
///           [--steal on|off|intra|inter]  (work-stealing sampler scope;
///                                          byte-identical seeds in every
///                                          mode — placement only; dist
///                                          driver; inter/on and
///                                          --steal-skew are refused under
///                                          a governed store; also
///                                          RIPPLES_STEAL)
///           [--steal-chunk N]             (draws per stealable chunk;
///                                          default 64; also
///                                          RIPPLES_STEAL_CHUNK)
///           [--steal-skew]                (benchmark knob: home every
///                                          stream on the first live rank —
///                                          the fig7 pathological partition;
///                                          also RIPPLES_STEAL_SKEW)
///           [--verify-collectives]        (CRC-32 every collective/steal
///                                          payload; mismatches retry with
///                                          capped backoff, then heal; also
///                                          RIPPLES_VERIFY_COLLECTIVES)
///           [--scrub-rrr off|on|paranoid] (verify + self-repair stored RRR
///                                          arena checksums before selection
///                                          (on) or every kernel (paranoid);
///                                          seq/mt/dist with a governed
///                                          store only — --mem-budget,
///                                          --rrr-compress always or a
///                                          kind=oom fault — else refused;
///                                          also RIPPLES_SCRUB_RRR)
///           [--checkpoint-dir DIR]        (dist/dist-part: snapshot the
///                                          martingale state at round
///                                          boundaries; also
///                                          RIPPLES_CHECKPOINT_DIR)
///           [--checkpoint-every N]        (write every Nth boundary;
///                                          acceptance always writes)
///           [--checkpoint-keep N]         (snapshots retained; default 3)
///           [--resume]                    (resume from the newest intact
///                                          snapshot in --checkpoint-dir)
///           [--evict-stalled]             (dist + --recover + --watchdog-ms:
///                                          heal watchdog-diagnosed stalls
///                                          like crashes instead of aborting)
///           [--strict-input]              (reject self-loops and duplicate
///                                          edges in --input, not just
///                                          malformed lines/weights)
///   imm_cli --dataset com-DBLP --scale 0.01 ...     (surrogate input)
///
/// Any other option is refused with exit code 2, as are --json-report,
/// --trace and --json without a path, a scrubbing request on a run whose
/// RRR store nothing would scrub, and inter-rank stealing or skew under a
/// governed store.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>

#include "ripples/ripples.hpp"

namespace {

using namespace ripples;

/// Where the graph comes from, read before anything runs so that every
/// option is declared when the command line is checked for unknown ones.
struct GraphSource {
  std::optional<std::string> input;
  bool strict_input = false;
  std::string dataset;
  double scale = 0.05;
  std::string snap_dir;
  std::string weights;
};

GraphSource graph_source_from_cli(const CommandLine &cli) {
  GraphSource source;
  source.input = cli.value_of("input");
  source.strict_input = cli.has_flag("strict-input");
  source.dataset = cli.get("dataset", std::string("cit-HepTh"));
  source.scale = cli.get("scale", 0.05);
  source.snap_dir = cli.get("snap-dir", std::string());
  source.weights = cli.get("weights", std::string("uniform"));
  return source;
}

CsrGraph load_graph(const GraphSource &source, std::uint64_t seed,
                    DiffusionModel model) {
  CsrGraph graph = [&] {
    if (source.input) {
      RIPPLES_LOG_INFO("loading edge list from %s", source.input->c_str());
      EdgeListValidation validation;
      validation.reject_self_loops = source.strict_input;
      validation.reject_duplicates = source.strict_input;
      return CsrGraph(load_edge_list_text(*source.input, true, validation));
    }
    return materialize(find_dataset(source.dataset), source.scale, seed,
                       source.snap_dir);
  }();

  const std::string &weights = source.weights;
  if (weights == "uniform") {
    assign_uniform_weights(graph, seed + 1);
  } else if (weights.rfind("constant:", 0) == 0) {
    assign_constant_weights(graph,
                            std::stof(weights.substr(sizeof("constant:") - 1)));
  } else if (weights == "wc") {
    assign_weighted_cascade(graph);
  } else if (weights != "keep") {
    std::fprintf(stderr, "unknown --weights '%s' "
                         "(uniform|constant:<p>|wc|keep)\n",
                 weights.c_str());
    std::exit(2);
  }
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);
  return graph;
}

ImmOptions options_from_cli(const CommandLine &cli, DiffusionModel model,
                            std::uint64_t seed) {
  ImmOptions options;
  options.epsilon = cli.get("epsilon", 0.5);
  options.k = static_cast<std::uint32_t>(
      cli.get_bounded("k", 50, 1, UINT32_MAX));
  options.model = model;
  options.seed = seed;
  options.num_threads =
      static_cast<unsigned>(cli.get_bounded("threads", 1, 1, UINT32_MAX));
  options.num_ranks = static_cast<int>(cli.get_bounded("ranks", 2, 1, INT32_MAX));
  options.recover_failures = cli.has_flag("recover");
  options.watchdog_ms = static_cast<std::uint32_t>(
      cli.get_bounded("watchdog-ms", 0, 0, UINT32_MAX));
  options.fault_plan = cli.get("inject-fault", std::string());
  // The flag overrides RIPPLES_MEM_BUDGET (the option's default).
  options.mem_budget = static_cast<std::size_t>(cli.get_bounded(
      "mem-budget", static_cast<std::int64_t>(options.mem_budget), 0,
      INT64_MAX));
  // The flag overrides RIPPLES_RRR_COMPRESS (the option's default).
  if (auto compress = cli.value_of("rrr-compress")) {
    if (*compress == "auto") {
      options.rrr_compress = CompressMode::Auto;
    } else if (*compress == "always") {
      options.rrr_compress = CompressMode::Always;
    } else if (*compress == "off") {
      options.rrr_compress = CompressMode::Off;
    } else {
      std::fprintf(stderr, "unknown --rrr-compress '%s' (auto|always|off)\n",
                   compress->c_str());
      std::exit(2);
    }
  }
  // The flag overrides RIPPLES_SELECTION_EXCHANGE (the option's default).
  if (auto exchange = cli.value_of("selection-exchange")) {
    if (*exchange == "sparse") {
      options.selection_exchange = SelectionExchange::Sparse;
    } else if (*exchange == "dense") {
      options.selection_exchange = SelectionExchange::Dense;
    } else {
      std::fprintf(stderr, "unknown --selection-exchange '%s' (dense|sparse)\n",
                   exchange->c_str());
      std::exit(2);
    }
  }
  options.selection_topm = static_cast<std::uint32_t>(cli.get_bounded(
      "selection-topm", options.selection_topm, 1, UINT32_MAX));
  // The flag overrides RIPPLES_STEAL (the option's default).
  if (auto steal = cli.value_of("steal")) {
    if (*steal == "on") {
      options.steal = StealMode::On;
    } else if (*steal == "off") {
      options.steal = StealMode::Off;
    } else if (*steal == "intra") {
      options.steal = StealMode::Intra;
    } else if (*steal == "inter") {
      options.steal = StealMode::Inter;
    } else {
      std::fprintf(stderr, "unknown --steal '%s' (on|off|intra|inter)\n",
                   steal->c_str());
      std::exit(2);
    }
  }
  options.steal_chunk = static_cast<std::uint64_t>(cli.get_bounded(
      "steal-chunk", static_cast<std::int64_t>(options.steal_chunk), 1,
      INT64_MAX));
  if (cli.has_flag("steal-skew")) options.steal_skew = true;
  // The flag overrides RIPPLES_VERIFY_COLLECTIVES (the option's default).
  if (cli.has_flag("verify-collectives")) options.verify_collectives = true;
  // The flag overrides RIPPLES_SCRUB_RRR (the option's default).
  if (auto scrub = cli.value_of("scrub-rrr")) {
    if (*scrub == "off") {
      options.scrub_rrr = ScrubMode::Off;
    } else if (*scrub == "on") {
      options.scrub_rrr = ScrubMode::On;
    } else if (*scrub == "paranoid") {
      options.scrub_rrr = ScrubMode::Paranoid;
    } else {
      std::fprintf(stderr, "unknown --scrub-rrr '%s' (off|on|paranoid)\n",
                   scrub->c_str());
      std::exit(2);
    }
  }
  options.evict_stalled = cli.has_flag("evict-stalled");
  // Flags override the RIPPLES_CHECKPOINT_* environment (the defaults).
  if (auto dir = cli.value_of("checkpoint-dir")) options.checkpoint.dir = *dir;
  options.checkpoint.every = static_cast<std::uint32_t>(cli.get_bounded(
      "checkpoint-every", options.checkpoint.every, 1, UINT32_MAX));
  options.checkpoint.keep_last = static_cast<std::uint32_t>(cli.get_bounded(
      "checkpoint-keep", options.checkpoint.keep_last, 1, UINT32_MAX));
  if (cli.has_flag("resume")) options.checkpoint.resume = true;
  return options;
}

/// True when the run builds the budget-governed RRR store: a finite budget,
/// forced compression, or an injected oom fault (an unparsable fault plan
/// exits 2).
bool governs_rrr_store(const ImmOptions &options) {
  if (options.mem_budget > 0 || options.rrr_compress == CompressMode::Always)
    return true;
  try {
    return !detail::oom_faults_from_plan(options.fault_plan).empty();
  } catch (const std::exception &error) {
    std::fprintf(stderr, "invalid fault plan: %s\n", error.what());
    std::exit(2);
  }
}

/// Exits 2 when scrubbing is requested (by --scrub-rrr or RIPPLES_SCRUB_RRR)
/// where nothing gets scrubbed: only the budget-governed RRR store of the
/// seq, mt and dist drivers carries checksums.
void refuse_idle_scrub(const ImmOptions &options, const std::string &driver) {
  if (options.scrub_rrr == ScrubMode::Off) return;
  const char *scrub = to_string(options.scrub_rrr);
  if (driver != "seq" && driver != "mt" && driver != "dist") {
    std::fprintf(stderr,
                 "--scrub-rrr %s has no effect with --driver %s: only seq, mt "
                 "and dist keep a scrubbable RRR store\n",
                 scrub, driver.c_str());
    std::exit(2);
  }
  if (!governs_rrr_store(options)) {
    std::fprintf(stderr,
                 "--scrub-rrr %s has no effect without a governed RRR store: "
                 "add --rrr-compress always or --mem-budget BYTES\n",
                 scrub);
    std::exit(2);
  }
}

/// Exits 2 when a memory budget, forced compression or a kind=oom fault is
/// given to a driver whose RRR storage no budget governs: baseline, dist-part,
/// tim and ris would otherwise run ungoverned without saying so
/// (imm_distributed_partitioned refuses a budget and forced compression
/// itself).
void refuse_idle_budget(const ImmOptions &options, const std::string &driver) {
  if (driver != "baseline" && driver != "dist-part" && driver != "tim" &&
      driver != "ris")
    return;
  if (!governs_rrr_store(options)) return;
  std::fprintf(stderr,
               "--mem-budget, --rrr-compress always and kind=oom faults have "
               "no effect with --driver %s: only seq, mt and dist keep a "
               "governed RRR store\n",
               driver.c_str());
  std::exit(2);
}

/// Exits 2 when the dist driver is asked to move draws between ranks
/// (inter-rank stealing or --steal-skew) under a governed RRR store, whose
/// admission is rank-local (imm_distributed refuses the same combination).
void refuse_steal_under_budget(const ImmOptions &options,
                               const std::string &driver) {
  if (driver != "dist" ||
      !(detail::steals_between_ranks(options) || options.steal_skew) ||
      !governs_rrr_store(options))
    return;
  std::fprintf(stderr,
               "inter-rank stealing (--steal inter|on) and --steal-skew need "
               "an ungoverned RRR store, but --mem-budget, --rrr-compress "
               "always or a kind=oom fault governs it\n");
  std::exit(2);
}

/// Exits 2 when an option that names an output file is given without one;
/// the run would otherwise finish and silently write nothing.
void refuse_missing_path(const CommandLine &cli, const char *name) {
  if (!cli.has_flag(name) || !cli.value_of(name).value_or("").empty()) return;
  std::fprintf(stderr, "--%s needs a file path\n", name);
  std::exit(2);
}

ImmResult run_driver(const std::string &driver, const CsrGraph &graph,
                     const ImmOptions &options, double ris_budget_scale) {
  const DiffusionModel model = options.model;
  const std::uint64_t seed = options.seed;
  if (driver == "seq") return imm_sequential(graph, options);
  if (driver == "baseline") return imm_baseline_hypergraph(graph, options);
  if (driver == "mt") return imm_multithreaded(graph, options);
  if (driver == "dist") return imm_distributed(graph, options);
  if (driver == "dist-part") return imm_distributed_partitioned(graph, options);
  if (driver == "tim") {
    TimOptions tim;
    tim.epsilon = options.epsilon;
    tim.k = options.k;
    tim.model = model;
    tim.seed = seed;
    return tim_plus(graph, tim);
  }
  if (driver == "ris") {
    RisOptions ris;
    ris.epsilon = options.epsilon;
    ris.k = options.k;
    ris.model = model;
    ris.seed = seed;
    ris.budget_scale = ris_budget_scale;
    return ris_threshold(graph, ris);
  }
  std::fprintf(stderr, "unknown --driver '%s' "
                       "(seq|baseline|mt|dist|dist-part|tim|ris)\n",
               driver.c_str());
  std::exit(2);
}

void write_json(const std::string &path, const std::string &driver,
                const ImmResult &result, const InfluenceEstimate &influence,
                const GraphStats &stats) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  out << "{\n"
      << "  \"driver\": \"" << driver << "\",\n"
      << "  \"graph\": {\"vertices\": " << stats.num_vertices
      << ", \"edges\": " << stats.num_edges << "},\n"
      << "  \"theta\": " << result.theta << ",\n"
      << "  \"samples\": " << result.num_samples << ",\n"
      << "  \"coverage_fraction\": " << result.coverage_fraction << ",\n"
      << "  \"phases_seconds\": {"
      << "\"estimate_theta\": " << result.timers.total(Phase::EstimateTheta)
      << ", \"sample\": " << result.timers.total(Phase::Sample)
      << ", \"select_seeds\": " << result.timers.total(Phase::SelectSeeds)
      << ", \"other\": " << result.timers.total(Phase::Other) << "},\n"
      << "  \"rrr_peak_bytes\": " << result.rrr_peak_bytes << ",\n";
  if (influence.trials > 0)
    out << "  \"estimated_influence\": {\"mean\": " << influence.mean
        << ", \"std_error\": " << influence.std_error
        << ", \"trials\": " << influence.trials << "},\n";
  out << "  \"seeds\": [";
  for (std::size_t i = 0; i < result.seeds.size(); ++i)
    out << (i ? ", " : "") << result.seeds[i];
  out << "]\n}\n";
}

} // namespace

int main(int argc, char **argv) {
  using namespace ripples;
  CommandLine cli(argc, argv);
  if (cli.has_flag("help")) {
    std::puts("see the header comment of examples/imm_cli.cpp for usage");
    return 0;
  }

  const auto seed =
      static_cast<std::uint64_t>(cli.get_bounded("seed", 2019, 0, INT64_MAX));
  const DiffusionModel model = parse_model(cli.get("model", std::string("IC")));
  const std::string driver = cli.get("driver", std::string("mt"));
  const std::string report_path = cli.get("json-report", std::string());
  const std::string trace_path = cli.get("trace", std::string());
  const bool profile_mem =
      cli.has_flag("profile-mem") || cli.value_of("profile-mem-hz");
  const auto profile_mem_hz = static_cast<double>(
      cli.get_bounded("profile-mem-hz", 10.0, 0.1, 1000.0));
  const GraphSource source = graph_source_from_cli(cli);
  const ImmOptions options = options_from_cli(cli, model, seed);
  const double ris_budget_scale = cli.get("ris-budget-scale", 0.05);
  const auto trials = static_cast<std::uint32_t>(
      cli.get_bounded("evaluate-trials", 0, 0, UINT32_MAX));
  const std::optional<std::string> json_path = cli.value_of("json");
  // Every accepted option has been read: refuse typos and retired options
  // before any work starts, then combinations that would silently idle.
  cli.reject_unknown();
  for (const char *name : {"json-report", "trace", "json"})
    refuse_missing_path(cli, name);
  refuse_idle_scrub(options, driver);
  refuse_idle_budget(options, driver);
  refuse_steal_under_budget(options, driver);

  // Enable metrics before the run so the report captures communication
  // volume and registry counters (RIPPLES_METRICS=1 works too).  The report
  // log flushes at exit, carrying the registry alongside the run report.
  if (!report_path.empty()) metrics::write_reports_at_exit(report_path);
  // Span tracing is independent of metrics: RIPPLES_TRACE=1 (or =path)
  // works too; --trace <path> both enables it and names the output.
  if (!trace_path.empty()) trace::set_enabled(true);
  // Background resource sampler: memory timeline in the report, counter
  // tracks in the trace.  Stopped before either artifact is written.
  if (profile_mem) ResourceSampler::instance().start(profile_mem_hz);
  // Graceful shutdown: Ctrl-C or a scheduler's TERM writes any pending
  // checkpoint and flushes the report log and trace buffers before exiting
  // 128+signum, leaving the same resumable state a round boundary would.
  checkpoint::install_signal_flush();

  CsrGraph graph = [&] {
    try {
      return load_graph(source, seed, model);
    } catch (const std::exception &error) {
      std::fprintf(stderr, "input rejected: %s\n", error.what());
      std::exit(2);
    }
  }();
  GraphStats stats = compute_stats(graph);
  std::printf("graph: %u vertices, %llu arcs | driver=%s model=%s\n",
              stats.num_vertices,
              static_cast<unsigned long long>(stats.num_edges), driver.c_str(),
              to_string(model));

  ImmResult result;
  try {
    result = run_driver(driver, graph, options, ris_budget_scale);
  } catch (const std::exception &error) {
    // A failed run must still leave its diagnostics behind: a marked
    // partial report and whatever the trace ring buffers held when the
    // exception unwound the driver.
    std::fprintf(stderr, "run failed: %s\n", error.what());
    ResourceSampler::instance().stop(); // quiesce before the flushes below
    if (!report_path.empty()) {
      metrics::mark_run_failed(driver, error.what());
      if (metrics::flush_reports_now())
        std::fprintf(stderr, "[partial run report written to %s]\n",
                     report_path.c_str());
    }
    if (!trace_path.empty() && trace::write_json_file(trace_path))
      std::fprintf(stderr, "[partial trace written to %s]\n",
                   trace_path.c_str());
    return 1;
  }
  // The run is over: make the sampler quiescent so the explicit trace write
  // below sees a stable buffer (the report already snapshotted its timeline
  // at finalize).
  ResourceSampler::instance().stop();
  std::printf("theta=%llu samples=%llu coverage=%.3f\n",
              static_cast<unsigned long long>(result.theta),
              static_cast<unsigned long long>(result.num_samples),
              result.coverage_fraction);
  std::printf("phases: %s\n", result.timers.summary().c_str());
  std::printf("rrr storage peak: %s\n",
              format_bytes(result.rrr_peak_bytes).c_str());
  if (result.degraded)
    std::printf("degraded: memory budget reached; certified epsilon %.4f "
                "(requested %.4f)\n",
                result.epsilon_achieved, options.epsilon);

  InfluenceEstimate influence;
  if (trials > 0) {
    influence = estimate_influence(graph, result.seeds, model, trials, seed + 9);
    std::printf("estimated influence: %.1f +/- %.1f over %u trials\n",
                influence.mean, influence.std_error, influence.trials);
  }

  std::printf("seeds:");
  for (vertex_t s : result.seeds) std::printf(" %u", s);
  std::printf("\n");

  if (json_path) {
    write_json(*json_path, driver, result, influence, stats);
    std::printf("[json written to %s]\n", json_path->c_str());
  }
  if (!report_path.empty())
    std::printf("[run report will be written to %s]\n", report_path.c_str());
  if (!trace_path.empty()) {
    // Explicit write (the mpsim ranks have joined, so buffers are
    // quiescent) with a confirmation line; no atexit hook was armed.
    if (trace::write_json_file(trace_path))
      std::printf("[trace written to %s]\n", trace_path.c_str());
    else
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
  }
  return 0;
}
