#include "graph.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "obs/exporters.hpp"
#include "sim/guarded.hpp"
#include "sim/parallel.hpp"

namespace mcps::pipeline {

namespace {

/// One event log shared by a run's consumers: the producer's live log,
/// or the artifact's bytes decoded by the first consumer that asks.
struct EventMemo {
    std::once_flag filled;
    obs::EventLog log;
};

/// PassContext over a pass's resolved inputs; collects outputs locally
/// so pass bodies never touch shared state.
class LocalContext final : public PassContext {
public:
    /// \p inputs holds one artifact per declared input, in declaration
    /// order; \p memos the matching event-log memo, null for an input
    /// that is not an event log.
    LocalContext(const Pass& pass, const std::vector<const Artifact*>& inputs,
                 const std::vector<EventMemo*>& memos)
        : pass_{pass}, inputs_{inputs}, memos_{memos} {}

    [[nodiscard]] const Artifact& input(
        const std::string& name) const override {
        return *inputs_[index_of(name)];
    }

    [[nodiscard]] const obs::EventLog& events(
        const std::string& name) const override {
        const std::size_t i = index_of(name);
        EventMemo* memo = memos_[i];
        if (memo == nullptr) {
            throw PipelineError{"pass '" + pass_.name + "' reads input '" +
                                name + "' of kind '" + inputs_[i]->kind +
                                "' as an event log"};
        }
        std::call_once(memo->filled, [&] {
            memo->log = obs::read_jsonl(inputs_[i]->payload);
        });
        return memo->log;
    }

    void emit(const std::string& name, Artifact artifact) override {
        const bool declared =
            std::find(pass_.outputs.begin(), pass_.outputs.end(), name) !=
            pass_.outputs.end();
        if (!declared) {
            throw PipelineError{"pass '" + pass_.name +
                                "' emits undeclared output '" + name + "'"};
        }
        if (!outputs_.emplace(name, std::move(artifact)).second) {
            throw PipelineError{"pass '" + pass_.name + "' emitted '" + name +
                                "' twice"};
        }
    }

    void emit_events(const std::string& name, obs::EventLog log) override {
        std::string jsonl;
        obs::write_jsonl(log, jsonl);
        emit(name, Artifact{std::string{kEventsKind}, std::move(jsonl)});
        logs_.emplace(name, std::move(log));
    }

    /// All outputs; verifies every declared output was emitted.
    std::map<std::string, Artifact> take_outputs() {
        for (const auto& name : pass_.outputs) {
            if (outputs_.find(name) == outputs_.end()) {
                throw PipelineError{"pass '" + pass_.name +
                                    "' did not emit declared output '" +
                                    name + "'"};
            }
        }
        return std::move(outputs_);
    }

    /// The live logs behind the emit_events() outputs.
    std::map<std::string, obs::EventLog> take_logs() {
        return std::move(logs_);
    }

private:
    /// Position of \p name among the declared inputs. \throws
    /// PipelineError when it is not one.
    [[nodiscard]] std::size_t index_of(const std::string& name) const {
        const auto it =
            std::find(pass_.inputs.begin(), pass_.inputs.end(), name);
        if (it == pass_.inputs.end()) {
            throw PipelineError{"pass '" + pass_.name +
                                "' reads undeclared input '" + name + "'"};
        }
        return static_cast<std::size_t>(it - pass_.inputs.begin());
    }

    const Pass& pass_;
    const std::vector<const Artifact*>& inputs_;
    const std::vector<EventMemo*>& memos_;
    std::map<std::string, Artifact> outputs_;
    std::map<std::string, obs::EventLog> logs_;
};

/// The result of executing (or replaying) one pass.
struct ExecOutcome {
    std::map<std::string, Artifact> outputs;
    /// Live logs behind event-log outputs (an executed body only).
    std::map<std::string, obs::EventLog> logs;
    std::map<std::string, std::string> keys;  ///< output -> cache key
    bool from_cache = false;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    double wall_us = 0.0;
};

/// Run one pass as a pure function of \p inputs (one per declared
/// input, in declaration order). Against a cache, tries a full replay
/// first (all outputs present under their content keys); on any miss
/// executes the body and stores the outputs. Without one, no input is
/// digested and no key is built: keys exist only to address the cache.
ExecOutcome execute_pass(const Pass& pass,
                         const std::vector<const Artifact*>& inputs,
                         const std::vector<EventMemo*>& memos,
                         ArtifactCache* cache) {
    ExecOutcome out;
    const bool cached_run = cache != nullptr && pass.cacheable;
    if (cached_run) {
        std::vector<std::uint64_t> digests;
        digests.reserve(inputs.size());
        for (const Artifact* in : inputs) digests.push_back(in->digest());
        for (const auto& name : pass.outputs) {
            out.keys.emplace(
                name, artifact_key(pass.name, pass.params, digests, name));
        }

        std::map<std::string, Artifact> cached;
        for (const auto& [name, key] : out.keys) {
            auto hit = cache->lookup(key);
            if (!hit) break;
            cached.emplace(name, std::move(*hit));
        }
        if (cached.size() == pass.outputs.size()) {
            out.outputs = std::move(cached);
            out.from_cache = true;
            out.hits = pass.outputs.size();
            return out;
        }
        // Partial hits (a bounded cache dropped some entries) count as
        // a miss for the whole pass: the body re-executes.
        out.misses = pass.outputs.size();
    }

    // mcps-analyze: allow(SIM1): wall-clock perf metric only
    const auto t0 = std::chrono::steady_clock::now();
    LocalContext ctx{pass, inputs, memos};
    try {
        pass.run(ctx);
    } catch (const PipelineError&) {
        throw;
    } catch (const std::exception& e) {
        throw PipelineError{"pass '" + pass.name + "' failed: " + e.what()};
    }
    out.outputs = ctx.take_outputs();
    out.logs = ctx.take_logs();
    // mcps-analyze: allow(SIM1): wall-clock perf metric only (see above).
    const auto t1 = std::chrono::steady_clock::now();
    out.wall_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();

    if (cached_run) {
        for (const auto& [name, art] : out.outputs) {
            cache->insert(out.keys.at(name), art);
        }
    }
    return out;
}

/// Dependency-counting executor. Worker loops take the lowest-index
/// ready pass, run its body outside the lock on pointers into the
/// artifact map (std::map nodes never move), then publish its outputs
/// and release its dependents. With one worker the ready set therefore
/// drains in exactly topo_order(). The first pass failure stops every
/// worker from taking more work.
///
/// Event logs live in memos beside the artifact map: a producer's live
/// log seeds one when it publishes (and is dropped at once if no pass
/// reads it), a consumer's first events() call fills an unseeded one,
/// and the memo goes when the last pass declaring that input finishes.
class Executor {
public:
    Executor(const std::vector<Pass>& passes,
             std::vector<std::vector<std::size_t>> dependents,
             std::map<std::string, Artifact> sources, ArtifactCache* cache)
        : passes_{passes},
          dependents_{std::move(dependents)},
          cache_{cache} {
        std::lock_guard lk{mu_};
        artifacts_ = std::move(sources);
        outcomes_.resize(passes.size());
        remaining_ = passes.size();
        missing_.assign(passes.size(), 0);
        for (const auto& ds : dependents_) {
            for (const std::size_t d : ds) ++missing_[d];
        }
        for (std::size_t i = 0; i < passes.size(); ++i) {
            if (missing_[i] == 0) ready_.insert(i);
            for (const auto& in : passes[i].inputs) ++readers_[in];
        }
    }

    /// Run every pass on \p workers threads (the caller's among them).
    void run(unsigned workers) {
        (void)sim::parallel_map(workers, workers, [this](std::size_t) {
            work();
            return 0;
        });
    }

    /// The accumulated state, pass outcomes in \p order. Rethrows the
    /// first pass failure.
    PipelineResult finish(const std::vector<std::size_t>& order) {
        std::lock_guard lk{mu_};
        if (error_) std::rethrow_exception(error_);
        PipelineResult result;
        result.artifacts = std::move(artifacts_);
        result.keys = std::move(keys_);
        result.cache_hits = hits_;
        result.cache_misses = misses_;
        result.passes.reserve(order.size());
        for (const std::size_t i : order) {
            result.passes.push_back(std::move(outcomes_[i]));
        }
        return result;
    }

private:
    /// The memo of event-log artifact \p name, made on first use. Its
    /// address holds until the memo is erased.
    EventMemo& memo(const std::string& name) MCPS_REQUIRES(mu_) {
        std::unique_ptr<EventMemo>& m = memos_[name];
        if (!m) m = std::make_unique<EventMemo>();
        return *m;
    }

    void work() {
        std::unique_lock lk{mu_};
        for (;;) {
            cv_.wait(lk, [this] {
                return error_ || remaining_ == 0 || !ready_.empty();
            });
            if (error_ || remaining_ == 0) return;
            const std::size_t i = *ready_.begin();
            ready_.erase(ready_.begin());
            const Pass& pass = passes_[i];
            std::vector<const Artifact*> inputs;
            std::vector<EventMemo*> memos;
            inputs.reserve(pass.inputs.size());
            memos.reserve(pass.inputs.size());
            for (const auto& name : pass.inputs) {
                const Artifact& in = artifacts_.at(name);
                inputs.push_back(&in);
                memos.push_back(in.kind == kEventsKind ? &memo(name)
                                                       : nullptr);
            }
            lk.unlock();
            ExecOutcome exec;
            try {
                exec = execute_pass(pass, inputs, memos, cache_);
            } catch (...) {
                lk.lock();
                if (!error_) error_ = std::current_exception();
                cv_.notify_all();
                return;
            }
            lk.lock();
            outcomes_[i] = PassOutcome{pass.name, exec.from_cache,
                                       exec.wall_us};
            hits_ += exec.hits;
            misses_ += exec.misses;
            for (auto& [name, key] : exec.keys) {
                keys_.emplace(name, std::move(key));
            }
            for (auto& [name, art] : exec.outputs) {
                artifacts_.emplace(name, std::move(art));
            }
            for (auto& [name, log] : exec.logs) {
                if (readers_[name] == 0) continue;
                EventMemo& m = memo(name);
                std::call_once(m.filled, [&] { m.log = std::move(log); });
            }
            for (const auto& name : pass.inputs) {
                if (--readers_.at(name) == 0) memos_.erase(name);
            }
            for (const std::size_t dep : dependents_[i]) {
                if (--missing_[dep] == 0) ready_.insert(dep);
            }
            --remaining_;
            cv_.notify_all();
        }
    }

    const std::vector<Pass>& passes_;
    const std::vector<std::vector<std::size_t>> dependents_;
    ArtifactCache* const cache_;

    std::mutex mu_;
    std::condition_variable cv_;  ///< a pass finished or failed
    std::map<std::string, Artifact> artifacts_ MCPS_GUARDED_BY(mu_);
    /// Artifact name -> passes declaring it as input that have not
    /// finished yet.
    std::map<std::string, std::size_t> readers_ MCPS_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<EventMemo>> memos_
        MCPS_GUARDED_BY(mu_);
    std::vector<std::size_t> missing_ MCPS_GUARDED_BY(mu_);
    /// Passes whose inputs all exist, lowest registration index first.
    std::set<std::size_t> ready_ MCPS_GUARDED_BY(mu_);
    std::size_t remaining_ MCPS_GUARDED_BY(mu_) = 0;  ///< not yet finished
    std::vector<PassOutcome> outcomes_ MCPS_GUARDED_BY(mu_);
    std::map<std::string, std::string> keys_ MCPS_GUARDED_BY(mu_);
    std::uint64_t hits_ MCPS_GUARDED_BY(mu_) = 0;
    std::uint64_t misses_ MCPS_GUARDED_BY(mu_) = 0;
    std::exception_ptr error_ MCPS_GUARDED_BY(mu_);
};

}  // namespace

// ---- PipelineResult ---------------------------------------------------

const Artifact& PipelineResult::at(const std::string& name) const {
    const auto it = artifacts.find(name);
    if (it == artifacts.end()) {
        throw PipelineError{"no artifact named '" + name + "'"};
    }
    return it->second;
}

std::string PipelineResult::manifest() const {
    std::string out;
    for (const auto& [name, art] : artifacts) {
        out += name;
        out += '\t';
        out += art.kind;
        out += '\t';
        out += art.digest_hex();
        out += '\n';
    }
    return out;
}

std::uint64_t PipelineResult::digest() const {
    return Artifact{"manifest", manifest()}.digest();
}

// ---- PipelineGraph ----------------------------------------------------

void PipelineGraph::provide(const std::string& name, Artifact artifact) {
    if (!sources_.emplace(name, std::move(artifact)).second) {
        throw PipelineError{"duplicate source artifact '" + name + "'"};
    }
}

void PipelineGraph::add(Pass pass) {
    if (!pass.run) {
        throw PipelineError{"pass '" + pass.name + "' has no body"};
    }
    for (const Pass& existing : passes_) {
        if (existing.name == pass.name) {
            throw PipelineError{"duplicate pass '" + pass.name + "'"};
        }
    }
    for (const auto& out : pass.outputs) {
        if (sources_.count(out) != 0) {
            throw PipelineError{"pass '" + pass.name + "' output '" + out +
                                "' collides with a source artifact"};
        }
        for (const Pass& existing : passes_) {
            for (const auto& other : existing.outputs) {
                if (other == out) {
                    throw PipelineError{
                        "output '" + out + "' produced by both '" +
                        existing.name + "' and '" + pass.name + "'"};
                }
            }
        }
    }
    passes_.push_back(std::move(pass));
}

std::vector<std::size_t> PipelineGraph::plan(std::vector<Node>& nodes) const {
    // Map each artifact to its producing pass.
    std::map<std::string, std::size_t> producer;
    nodes.assign(passes_.size(), Node{});
    for (std::size_t i = 0; i < passes_.size(); ++i) {
        for (const auto& out : passes_[i].outputs) {
            producer.emplace(out, i);
        }
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        for (const auto& in : passes_[i].inputs) {
            const auto p = producer.find(in);
            if (p != producer.end()) {
                nodes[i].deps.push_back(p->second);
                nodes[p->second].dependents.push_back(i);
            } else if (sources_.find(in) == sources_.end()) {
                throw PipelineError{"pass '" + passes_[i].name +
                                    "' input '" + in +
                                    "' is neither a source nor any "
                                    "pass's output"};
            }
        }
    }

    // Kahn's algorithm; among ready passes the lowest registration
    // index goes first, so the serial order is deterministic.
    std::vector<std::size_t> missing(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        missing[i] = nodes[i].deps.size();
    }
    std::vector<std::size_t> order;
    order.reserve(nodes.size());
    std::vector<bool> done(nodes.size(), false);
    for (std::size_t step = 0; step < nodes.size(); ++step) {
        std::size_t pick = nodes.size();
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (!done[i] && missing[i] == 0) {
                pick = i;
                break;
            }
        }
        if (pick == nodes.size()) {
            std::string cycle;
            for (std::size_t i = 0; i < nodes.size(); ++i) {
                if (!done[i]) {
                    if (!cycle.empty()) cycle += ", ";
                    cycle += passes_[i].name;
                }
            }
            throw PipelineError{"dependency cycle among passes: " + cycle};
        }
        done[pick] = true;
        order.push_back(pick);
        for (const std::size_t dep : nodes[pick].dependents) {
            --missing[dep];
        }
    }
    return order;
}

std::vector<std::string> PipelineGraph::topo_order() const {
    std::vector<Node> nodes;
    const auto order = plan(nodes);
    std::vector<std::string> names;
    names.reserve(order.size());
    for (const std::size_t i : order) names.push_back(passes_[i].name);
    return names;
}

std::vector<std::string> PipelineGraph::dependents_of(
    const std::string& name) const {
    std::vector<Node> nodes;
    const auto order = plan(nodes);

    std::vector<bool> hit(nodes.size(), false);
    // Seed: passes that consume the artifact directly.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        for (const auto& in : passes_[i].inputs) {
            if (in == name) hit[i] = true;
        }
    }
    // Walking in topological order propagates the taint in one sweep.
    for (const std::size_t i : order) {
        if (!hit[i]) continue;
        for (const std::size_t dep : nodes[i].dependents) hit[dep] = true;
    }
    std::vector<std::string> out;
    for (const std::size_t i : order) {
        if (hit[i]) out.push_back(passes_[i].name);
    }
    return out;
}

PipelineResult PipelineGraph::run(const PipelineOptions& opts) const {
    std::vector<Node> nodes;
    const auto order = plan(nodes);

    std::vector<std::vector<std::size_t>> dependents;
    dependents.reserve(nodes.size());
    for (Node& n : nodes) dependents.push_back(std::move(n.dependents));
    const unsigned workers = static_cast<unsigned>(std::clamp<std::size_t>(
        nodes.size(), 1, std::max(1u, opts.jobs)));
    Executor executor{passes_, std::move(dependents), sources_, opts.cache};
    executor.run(workers);

    PipelineResult result = executor.finish(order);
    if (opts.metrics != nullptr) record_metrics(result, *opts.metrics);
    return result;
}

void record_metrics(const PipelineResult& result,
                    obs::MetricsRegistry& metrics) {
    metrics.counter("pipeline/runs").add(1);
    metrics.counter("pipeline/cache/hits").add(result.cache_hits);
    metrics.counter("pipeline/cache/misses").add(result.cache_misses);
    for (const PassOutcome& p : result.passes) {
        const std::string base = "pipeline/pass/" + p.name;
        metrics.gauge(base + "/wall_us").set(p.wall_us);
        metrics.counter(p.from_cache ? base + "/replays" : base + "/runs")
            .add(1);
    }
}

}  // namespace mcps::pipeline
