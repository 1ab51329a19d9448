// Shared pieces of the end-to-end benchmark harness: the clock, a small
// JSON writer, the in-memory span recorder, seeded input derivation, and
// the set-up helpers every workload uses.
//
// The harness only calls the public API of the cast libraries. It times
// each layer from outside, around the call into that layer, and prints
// one JSON document with raw samples; e2ebench/run.py turns it into
// metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/plan.hpp"
#include "core/castpp.hpp"
#include "model/profiler.hpp"
#include "obs/trace.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Milliseconds since the harness started (one origin for every span).
[[nodiscard]] double now_ms();
[[nodiscard]] double to_ms(Clock::time_point t);
[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);

/// Deterministic per-purpose seed: the same (seed, stream, index) always
/// gives the same value, and distinct streams never collide in practice.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                               std::uint64_t index) {
    cast::SplitMix64 sm(seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                        (index * 0xc2b2ae3d27d4eb4fULL));
    sm.next();
    return sm.next();
}

/// Minimal streaming JSON writer: objects, arrays, numbers, strings.
/// Doubles are written with 17 significant digits so exact values survive
/// the round trip to run.py.
class Json {
public:
    Json& begin_object();
    Json& end_object();
    Json& begin_array();
    Json& end_array();
    Json& key(const std::string& k);
    Json& value(double v);
    Json& value(std::int64_t v);
    Json& value(std::uint64_t v);
    Json& value(int v) { return value(static_cast<std::int64_t>(v)); }
    Json& value(bool v);
    Json& value(const std::string& v);
    Json& value(const char* v) { return value(std::string(v)); }
    Json& number_array(const std::vector<double>& values);

    template <typename T>
    Json& field(const std::string& k, const T& v) {
        key(k);
        return value(v);
    }
    Json& field(const std::string& k, const std::vector<double>& values) {
        key(k);
        return number_array(values);
    }

    [[nodiscard]] std::string str() const { return out_.str(); }

private:
    void separate();
    void write_string(const std::string& v);
    std::ostringstream out_;
    std::vector<bool> first_;  ///< per open container: no element written yet
    bool after_key_ = false;
};

/// One recorded span: a layer call timed from outside.
struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;  ///< index into the same recorder, -1 for a root
    std::uint64_t op = 0;
};

/// In-memory span recorder for one thread. Disabled recorders cost one
/// branch per call and record nothing.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Open a span as a child of the innermost open span.
    int begin(const char* name, std::uint64_t op);
    void end(int index);
    /// Record a finished span with explicit times (service-side stamps).
    void add(const std::string& name, double start_ms, double end_ms, int parent,
             std::uint64_t op);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    void write(Json& json) const;

private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// RAII span: begins on construction, ends on destruction.
class Scoped {
public:
    Scoped(Tracer& tracer, const char* name, std::uint64_t op)
        : tracer_(tracer), index_(tracer.begin(name, op)) {}
    ~Scoped() { tracer_.end(index_); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

private:
    Tracer& tracer_;
    int index_;
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// The profiled model set plus how long each set-up step took.
struct SetupTimes {
    std::vector<double> setup_s;       ///< whole set-up, one entry per round
    std::vector<double> profile_s;     ///< Profiler::profile alone
    std::vector<double> snapshot_ms;   ///< snapshot build (serve workloads)
};

/// Profile the paper's 400-core cluster (independent configurations run
/// on `pool`).
[[nodiscard]] cast::model::PerfModelSet profile_models(cast::ThreadPool* pool);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Plan decisions flattened to numbers (tier index, over-provision factor).
struct PlanNumbers {
    std::vector<std::uint8_t> tiers;
    std::vector<double> factors;
};
[[nodiscard]] PlanNumbers plan_numbers(const std::vector<cast::core::PlacementDecision>& d);
[[nodiscard]] std::vector<cast::core::PlacementDecision> decisions_of(const PlanNumbers& p);
[[nodiscard]] bool same_plan(const PlanNumbers& a, const PlanNumbers& b);

/// Utility and cost of the greedy plan (paper Algorithm 1, what
/// plan_cast_greedy returns) over the same job set. Returned plans are
/// reported relative to it: the ratio measures what the search adds on top
/// of the greedy start, and takes the job set's scale and mix out of the
/// plan-quality metrics.
struct Reference {
    double utility = 0.0;
    double cost = 0.0;
};
[[nodiscard]] Reference greedy_reference(const cast::model::PerfModelSet& models,
                                         const cast::workload::Workload& workload,
                                         const cast::core::CastOptions& options,
                                         bool reuse_aware);

/// Output-check tally shared by every workload. A mismatch is recorded
/// with a message and counts against ok_share.
struct Check {
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t direct_compared = 0;
    std::vector<double> reference_ms;
    std::vector<std::string> messages;

    void fail(const std::string& message) {
        ++mismatches;
        if (messages.size() < 20) messages.push_back(message);
    }
    void write(Json& json) const;
};

/// Turn the service's trace-ring stamps (admit, dequeue, solve, respond)
/// into child spans of the harness's root span with the same op id:
/// "serve.queue" (admit to dequeue), `solve_name` (dequeue to solve) and
/// "serve.respond" (solve to respond). `ring_offset_ms` maps ring time to
/// now_ms() time.
void add_service_spans(const std::vector<cast::obs::TraceSpan>& service_spans,
                       double ring_offset_ms, const char* solve_name, Tracer& tracer);

void write_cache_stats(Json& json, const cast::core::EvalCacheStats& stats);

/// Open the result document with the fields every workload shares: the
/// run's arguments, host cores, thread counts (name -> threads; a "total"
/// is added), set-up times and input generation. The workload then adds
/// its passes and calls end_document().
void begin_document(Json& json, const Args& args,
                    const std::vector<std::pair<std::string, std::uint64_t>>& threads,
                    const SetupTimes& times, double gen_ms, std::uint64_t inputs);
/// Write the output-check tally and peak memory, and close the document.
void end_document(Json& json, const Check& check);

/// Each workload writes its whole result document into `json`.
void run_serve_open(const Args& args, Json& json);
void run_amend_stream(const Args& args, Json& json);
void run_plan_deploy_paper(const Args& args, Json& json);

}  // namespace e2e
