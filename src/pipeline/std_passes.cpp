#include "std_passes.hpp"

#include <charconv>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "analysis/analysis.hpp"
#include "analysis/shipped.hpp"
#include "assurance/assurance.hpp"
#include "findings_io.hpp"
#include "obs/exporters.hpp"
#include "sim/hash.hpp"
#include "sim/parallel.hpp"
#include "ward/ward_engine.hpp"

namespace mcps::pipeline {

namespace {

std::string run_prefix(const std::string& id) { return "run/" + id + "/"; }

std::string bool_char(bool b) { return b ? "1" : "0"; }

std::string join(const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& p : parts) {
        if (!out.empty()) out += ',';
        out += p;
    }
    return out;
}

}  // namespace

// ---- scenario execution ----------------------------------------------

void add_scenario_pass(PipelineGraph& g, const std::string& id,
                       const scenario::ScenarioSpec& spec) {
    const std::string spec_name = "spec/" + id;
    g.provide(spec_name, Artifact{"spec", spec.to_text()});

    // Only a scenario that records an event log gets an events output;
    // a hospital-family run would emit an empty one. An unknown name
    // keeps it, and the run fails on the name.
    const scenario::ScenarioInfo* info = scenario::registry().find(spec.name);
    const bool events_out = info == nullptr || info->records_event_log();

    Pass p;
    p.name = "run:" + id;
    p.inputs = {spec_name};
    p.outputs = {run_prefix(id) + "artifacts"};
    if (events_out) p.outputs.push_back(run_prefix(id) + "events");
    p.outputs.push_back(run_prefix(id) + "fingerprint");
    // The body re-parses the spec from the input artifact instead of
    // capturing it: the run is a function of the artifact bytes, so a
    // knob edit invalidates through the content hash.
    p.run = [id, spec_name, events_out](PassContext& ctx) {
        const scenario::ScenarioSpec run_spec =
            scenario::parse_spec(ctx.input(spec_name).payload);
        obs::EventLog events;
        scenario::RunOptions opts;
        if (events_out) opts.events = &events;
        const scenario::RunArtifacts art =
            scenario::registry().run(run_spec, opts);

        std::ostringstream run_json;
        art.write_json(run_json);
        ctx.emit(run_prefix(id) + "artifacts",
                 Artifact{"run-json", run_json.str()});
        if (events_out) {
            ctx.emit_events(run_prefix(id) + "events", std::move(events));
        }
        ctx.emit(run_prefix(id) + "fingerprint",
                 Artifact{"fingerprint", art.fingerprint_hex() + "\n"});
    };
    g.add(std::move(p));
}

void add_trace_export_pass(PipelineGraph& g, const std::string& id) {
    Pass p;
    p.name = "trace:" + id;
    p.inputs = {run_prefix(id) + "events"};
    p.outputs = {"trace/" + id + "/chrome"};
    p.run = [id](PassContext& ctx) {
        std::string chrome;
        obs::write_chrome_trace(ctx.events(run_prefix(id) + "events"),
                                chrome);
        ctx.emit("trace/" + id + "/chrome",
                 Artifact{"chrome-trace", std::move(chrome)});
    };
    g.add(std::move(p));
}

// ---- analysis ---------------------------------------------------------

std::string AnalysisPassOptions::params() const {
    std::string out = "suppress=" + suppress;
    out += ";models=" + bool_char(models);
    out += ";assemblies=" + bool_char(assemblies);
    out += ";hazards=" + bool_char(hazards);
    out += ";deadlines=" + bool_char(deadlines);
    out += ";cross_check=" + bool_char(cross_check);
    out += ";src_root=" + src_root;
    out += ";scenario_roots=" + join(scenario_roots);
    out += ";conc_roots=" + join(conc_roots);
    return out;
}

namespace {

/// One analysis stage as a pass: fresh Analyzer, run \p body, emit the
/// report as a findings artifact. Each stage carries only the params
/// that change its bytes, so invalidation stays exact.
void add_analysis_stage(
    PipelineGraph& g, const std::string& stage, std::string params,
    bool cacheable, const analysis::SuppressionSet& suppressions,
    std::function<void(analysis::Analyzer&)> body) {
    Pass p;
    p.name = "analyze:" + stage;
    p.params = std::move(params);
    p.outputs = {"analysis/" + stage};
    p.cacheable = cacheable;
    p.run = [stage, suppressions, body = std::move(body)](PassContext& ctx) {
        analysis::Analyzer analyzer{suppressions};
        body(analyzer);
        ctx.emit("analysis/" + stage,
                 Artifact{"findings", write_findings(analyzer.report())});
    };
    g.add(std::move(p));
}

}  // namespace

void add_analysis_passes(PipelineGraph& g, const AnalysisPassOptions& opts) {
    analysis::SuppressionSet suppressions;
    if (!opts.suppress.empty() && !suppressions.parse_list(opts.suppress)) {
        throw PipelineError{"analysis passes: unknown rule in suppress list '" +
                            opts.suppress + "'"};
    }
    const std::string sup = "suppress=" + opts.suppress;

    // Stage registration order mirrors `mcps analyze` so the merged
    // report's finding order — hence its JSON/SARIF bytes — matches the
    // classic CLI exactly.
    std::vector<std::string> stages;
    if (opts.models) {
        stages.push_back("models");
        add_analysis_stage(g, "models", sup, true, suppressions,
                           [](analysis::Analyzer& a) {
                               analysis::add_shipped_ta_models(a);
                           });
    }
    if (opts.assemblies) {
        stages.push_back("assemblies");
        add_analysis_stage(g, "assemblies", sup, true, suppressions,
                           [](analysis::Analyzer& a) {
                               analysis::add_shipped_assemblies(a);
                           });
    }
    if (opts.hazards) {
        stages.push_back("hazards");
        add_analysis_stage(g, "hazards", sup, true, suppressions,
                           [](analysis::Analyzer& a) {
                               const auto log =
                                   assurance::build_gpca_hazard_log();
                               const auto gsn =
                                   assurance::build_gpca_case_skeleton();
                               a.check_hazards(log, &gsn);
                           });
    }
    if (opts.deadlines) {
        stages.push_back("deadlines");
        add_analysis_stage(
            g, "deadlines",
            sup + ";cross_check=" + bool_char(opts.cross_check), true,
            suppressions, [cross = opts.cross_check](analysis::Analyzer& a) {
                a.check_deadlines({}, cross);
            });
    }
    if (!opts.src_root.empty()) {
        stages.push_back("scan");
        add_analysis_stage(g, "scan", sup + ";root=" + opts.src_root,
                           /*cacheable=*/false, suppressions,
                           [root = opts.src_root](analysis::Analyzer& a) {
                               a.scan_sources(root);
                           });
    }
    if (!opts.scenario_roots.empty()) {
        stages.push_back("scenario-scan");
        add_analysis_stage(g, "scenario-scan",
                           sup + ";roots=" + join(opts.scenario_roots),
                           /*cacheable=*/false, suppressions,
                           [roots = opts.scenario_roots](
                               analysis::Analyzer& a) {
                               for (const std::string& root : roots) {
                                   a.scan_scenario_assembly(root);
                               }
                           });
    }
    if (!opts.conc_roots.empty()) {
        stages.push_back("conc");
        add_analysis_stage(
            g, "conc", sup + ";roots=" + join(opts.conc_roots),
            /*cacheable=*/false, suppressions,
            [roots = opts.conc_roots](analysis::Analyzer& a) {
                std::vector<std::filesystem::path> paths{roots.begin(),
                                                         roots.end()};
                a.scan_concurrency(paths);
            });
    }

    Pass merge;
    merge.name = "analyze:merge";
    for (const std::string& stage : stages) {
        merge.inputs.push_back("analysis/" + stage);
    }
    merge.outputs = {"analysis/report", "analysis/sarif"};
    merge.run = [stages](PassContext& ctx) {
        analysis::AnalysisReport report;
        for (const std::string& stage : stages) {
            merge_findings(report,
                           read_findings(ctx.input("analysis/" + stage)
                                             .payload));
        }
        std::ostringstream json;
        report.write_json(json);
        std::ostringstream sarif;
        analysis::write_sarif(report, sarif);
        ctx.emit("analysis/report", Artifact{"report-json", json.str()});
        ctx.emit("analysis/sarif", Artifact{"sarif", sarif.str()});
    };
    g.add(std::move(merge));
}

// ---- ward campaigns ---------------------------------------------------

std::string ward_config_to_text(const ward::WardConfig& cfg) {
    std::ostringstream os;
    os << "seed=" << cfg.seed << " patients=" << cfg.patients
       << " jobs=" << cfg.jobs << " shards=" << cfg.shards
       << " mix=" << to_string(cfg.mix)
       << " intensity=" << cfg.fault_intensity;
    return os.str();
}

namespace {

[[noreturn]] void bad_ward_config(const std::string& what) {
    throw ward::WardConfigError{"ward config: " + what};
}

std::uint64_t parse_ward_u64(std::string_view key, std::string_view v) {
    std::uint64_t out = 0;
    const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || p != v.data() + v.size()) {
        bad_ward_config("bad " + std::string{key} + " '" + std::string{v} +
                        "'");
    }
    return out;
}

double parse_ward_double(std::string_view key, std::string_view v) {
    const std::string s{v};
    char* end = nullptr;
    const double out = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || s.empty()) {
        bad_ward_config("bad " + std::string{key} + " '" + s + "'");
    }
    return out;
}

}  // namespace

ward::WardConfig parse_ward_config(std::string_view text) {
    ward::WardConfig cfg;
    std::size_t pos = 0;
    while (pos < text.size()) {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n')) {
            ++pos;
        }
        if (pos >= text.size()) break;
        std::size_t end = text.find_first_of(" \n", pos);
        if (end == std::string_view::npos) end = text.size();
        const std::string_view token = text.substr(pos, end - pos);
        pos = end;

        const std::size_t eq = token.find('=');
        if (eq == std::string_view::npos) {
            bad_ward_config("expected key=value, got '" + std::string{token} +
                            "'");
        }
        const std::string_view key = token.substr(0, eq);
        const std::string_view value = token.substr(eq + 1);
        if (key == "seed") {
            cfg.seed = parse_ward_u64(key, value);
        } else if (key == "patients") {
            cfg.patients =
                static_cast<std::size_t>(parse_ward_u64(key, value));
        } else if (key == "jobs") {
            const std::uint64_t jobs = parse_ward_u64(key, value);
            if (jobs > sim::kMaxJobs) {
                bad_ward_config("jobs " + std::string{value} +
                                " is above the maximum " +
                                std::to_string(sim::kMaxJobs));
            }
            cfg.jobs = static_cast<unsigned>(jobs);
        } else if (key == "shards") {
            cfg.shards = static_cast<std::size_t>(parse_ward_u64(key, value));
        } else if (key == "mix") {
            cfg.mix = ward::parse_mix(value);
        } else if (key == "intensity") {
            cfg.fault_intensity = parse_ward_double(key, value);
        } else {
            bad_ward_config("unknown key '" + std::string{key} + "'");
        }
    }
    return cfg;
}

void add_ward_pass(PipelineGraph& g, const std::string& id,
                   const ward::WardConfig& cfg) {
    cfg.validate();
    const std::string config_name = "ward/" + id + "/config";
    g.provide(config_name,
              Artifact{"ward-config", ward_config_to_text(cfg) + "\n"});

    Pass p;
    p.name = "ward:" + id;
    p.inputs = {config_name};
    p.outputs = {"ward/" + id + "/report", "ward/" + id + "/fingerprint"};
    p.run = [id, config_name](PassContext& ctx) {
        const ward::WardConfig run_cfg =
            parse_ward_config(ctx.input(config_name).payload);
        const ward::WardEngine engine{run_cfg};
        ward::WardReport report = engine.run();
        // The throughput fields are the report's only run-varying bytes;
        // artifacts must be byte-identical across runs, so zero them.
        report.wall_seconds = 0.0;
        report.scenarios_per_sec = 0.0;

        std::ostringstream os;
        report.write_json(os);
        ctx.emit("ward/" + id + "/report", Artifact{"ward-json", os.str()});
        ctx.emit("ward/" + id + "/fingerprint",
                 Artifact{"fingerprint", sim::hex64(report.fingerprint) + "\n"});
    };
    g.add(std::move(p));
}

void add_ward_merge_pass(PipelineGraph& g,
                         const std::vector<std::string>& ids) {
    Pass p;
    p.name = "ward:merge";
    for (const std::string& id : ids) {
        p.inputs.push_back("ward/" + id + "/fingerprint");
    }
    p.outputs = {"ward/summary"};
    p.run = [ids](PassContext& ctx) {
        std::string out;
        std::uint64_t combined = sim::kFnvOffset;
        for (const std::string& id : ids) {
            std::string fp = ctx.input("ward/" + id + "/fingerprint").payload;
            while (!fp.empty() && fp.back() == '\n') fp.pop_back();
            out += id;
            out += '\t';
            out += fp;
            out += '\n';
            combined = sim::fnv1a64(combined, fp);
        }
        out += "combined\t" + sim::hex64(combined) + "\n";
        ctx.emit("ward/summary", Artifact{"ward-summary", std::move(out)});
    };
    g.add(std::move(p));
}

}  // namespace mcps::pipeline
