// Entry point of the end-to-end benchmark harness.
//
//   e2e_harness --workload serve_open|amend_stream|plan_deploy_paper
//               --seed N --seconds S --trace 0|1
//
// Prints one JSON document with the raw samples of the run (per-operation
// records, set-up times, spans in trace mode, output-check tally) on
// stdout. e2ebench/run.py builds this binary, runs it and reduces the
// document to metrics; running the binary by hand is only for debugging.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>

#include "cloud/cluster.hpp"
#include "cloud/storage.hpp"
#include "common.hpp"

namespace e2e {

namespace {
const Clock::time_point kOrigin = Clock::now();
}  // namespace

double now_ms() { return to_ms(Clock::now()); }

double to_ms(Clock::time_point t) { return ms_between(kOrigin, t); }

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

void Json::separate() {
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!first_.empty()) {
        if (!first_.back()) out_ << ',';
        first_.back() = false;
    }
}

Json& Json::begin_object() {
    separate();
    out_ << '{';
    first_.push_back(true);
    return *this;
}

Json& Json::end_object() {
    first_.pop_back();
    out_ << '}';
    return *this;
}

Json& Json::begin_array() {
    separate();
    out_ << '[';
    first_.push_back(true);
    return *this;
}

Json& Json::end_array() {
    first_.pop_back();
    out_ << ']';
    return *this;
}

Json& Json::key(const std::string& k) {
    separate();
    write_string(k);
    out_ << ':';
    after_key_ = true;
    return *this;
}

Json& Json::value(double v) {
    separate();
    if (std::isfinite(v)) {
        out_ << std::setprecision(17) << v;
    } else {
        out_ << "null";
    }
    return *this;
}

Json& Json::value(std::int64_t v) {
    separate();
    out_ << v;
    return *this;
}

Json& Json::value(std::uint64_t v) {
    separate();
    out_ << v;
    return *this;
}

Json& Json::value(bool v) {
    separate();
    out_ << (v ? "true" : "false");
    return *this;
}

Json& Json::value(const std::string& v) {
    separate();
    write_string(v);
    return *this;
}

void Json::write_string(const std::string& v) {
    out_ << '"';
    for (const char c : v) {
        switch (c) {
            case '"': out_ << "\\\""; break;
            case '\\': out_ << "\\\\"; break;
            case '\n': out_ << "\\n"; break;
            case '\t': out_ << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out_ << ' ';
                } else {
                    out_ << c;
                }
        }
    }
    out_ << '"';
}

Json& Json::number_array(const std::vector<double>& values) {
    begin_array();
    for (const double v : values) value(v);
    return end_array();
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

int Tracer::begin(const char* name, std::uint64_t op) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now_ms(), 0.0, parent, op});
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void Tracer::end(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ms = now_ms();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add(const std::string& name, double start_ms, double end_ms, int parent,
                 std::uint64_t op) {
    if (!enabled_) return;
    spans_.push_back(Span{name, start_ms, end_ms, parent, op});
}

void Tracer::write(Json& json) const {
    // Columnar: one array per field keeps the document small.
    json.begin_object();
    json.key("name").begin_array();
    for (const Span& s : spans_) json.value(s.name);
    json.end_array();
    json.key("start_ms").begin_array();
    for (const Span& s : spans_) json.value(s.start_ms);
    json.end_array();
    json.key("end_ms").begin_array();
    for (const Span& s : spans_) json.value(s.end_ms);
    json.end_array();
    json.key("parent").begin_array();
    for (const Span& s : spans_) json.value(s.parent);
    json.end_array();
    json.key("op").begin_array();
    for (const Span& s : spans_) json.value(s.op);
    json.end_array();
    json.end_object();
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

cast::model::PerfModelSet profile_models(cast::ThreadPool* pool) {
    const cast::model::Profiler profiler(cast::cloud::ClusterSpec::paper_400_core(),
                                         cast::cloud::StorageCatalog::google_cloud());
    return profiler.profile(pool);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

PlanNumbers plan_numbers(const std::vector<cast::core::PlacementDecision>& d) {
    PlanNumbers p;
    p.tiers.reserve(d.size());
    p.factors.reserve(d.size());
    for (const auto& x : d) {
        p.tiers.push_back(static_cast<std::uint8_t>(cast::cloud::tier_index(x.tier)));
        p.factors.push_back(x.overprovision);
    }
    return p;
}

std::vector<cast::core::PlacementDecision> decisions_of(const PlanNumbers& p) {
    std::vector<cast::core::PlacementDecision> d;
    d.reserve(p.tiers.size());
    for (std::size_t i = 0; i < p.tiers.size(); ++i) {
        d.push_back({cast::cloud::kAllTiers[p.tiers[i]], p.factors[i]});
    }
    return d;
}

Reference greedy_reference(const cast::model::PerfModelSet& models,
                           const cast::workload::Workload& workload,
                           const cast::core::CastOptions& options, bool reuse_aware) {
    const cast::core::CastResult greedy =
        cast::core::plan_cast_greedy(models, workload, options, reuse_aware);
    return {greedy.evaluation.utility, greedy.evaluation.total_cost().value()};
}

bool same_plan(const PlanNumbers& a, const PlanNumbers& b) {
    return a.tiers == b.tiers && a.factors == b.factors;
}

void add_service_spans(const std::vector<cast::obs::TraceSpan>& service_spans,
                       double ring_offset_ms, const char* solve_name, Tracer& tracer) {
    std::unordered_map<std::uint64_t, int> root_of_op;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
        if (tracer.spans()[i].parent < 0) root_of_op[tracer.spans()[i].op] = static_cast<int>(i);
    }
    for (const cast::obs::TraceSpan& span : service_spans) {
        const auto root = root_of_op.find(span.id);
        if (root == root_of_op.end()) continue;  // set-up and warm-up requests
        double admit = -1.0, dequeue = -1.0, solve = -1.0, respond = -1.0;
        for (const cast::obs::TraceEvent& ev : span.events) {
            const double at = ev.at_ms + ring_offset_ms;
            if (ev.name == "admit") admit = at;
            if (ev.name == "dequeue") dequeue = at;
            if (ev.name == "solve") solve = at;
            if (ev.name == "respond") respond = at;
        }
        if (admit >= 0.0 && dequeue >= 0.0) {
            tracer.add("serve.queue", admit, dequeue, root->second, span.id);
        }
        if (dequeue >= 0.0 && solve >= 0.0) {
            tracer.add(solve_name, dequeue, solve, root->second, span.id);
        }
        if (solve >= 0.0 && respond >= 0.0) {
            tracer.add("serve.respond", solve, respond, root->second, span.id);
        }
    }
}

void write_cache_stats(Json& json, const cast::core::EvalCacheStats& stats) {
    json.begin_object()
        .field("hits", stats.hits)
        .field("misses", stats.misses)
        .field("inserts", stats.inserts)
        .end_object();
}

void Check::write(Json& json) const {
    json.begin_object()
        .field("checked", checked)
        .field("mismatches", mismatches)
        .field("direct_compared", direct_compared)
        .field("reference_ms", reference_ms);
    json.key("messages").begin_array();
    for (const auto& m : messages) json.value(m);
    json.end_array();
    json.end_object();
}

void begin_document(Json& json, const Args& args,
                    const std::vector<std::pair<std::string, std::uint64_t>>& threads,
                    const SetupTimes& times, double gen_ms, std::uint64_t inputs) {
    json.begin_object()
        .field("workload", args.workload)
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("host_cores", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    json.key("threads").begin_object();
    std::uint64_t total = 0;
    for (const auto& [name, count] : threads) {
        json.field(name, count);
        total += count;
    }
    json.field("total", total).end_object();
    json.field("setup_s", times.setup_s)
        .field("profile_s", times.profile_s)
        .field("snapshot_build_ms", times.snapshot_ms)
        .field("workload_gen_ms", gen_ms)
        .field("inputs", inputs);
}

void end_document(Json& json, const Check& check) {
    json.key("check");
    check.write(json);
    json.field("peak_rss_mb", peak_rss_mb());
    json.end_object();
}

}  // namespace e2e

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& why) {
    std::cerr << "e2e_harness: " << why << "\nusage: " << argv0
              << " --workload serve_open|amend_stream|plan_deploy_paper --seed N"
                 " --seconds S --trace 0|1\n";
    std::exit(2);
}

e2e::Args parse_args(int argc, char** argv) {
    e2e::Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(argv[0], "missing value for " + flag);
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0') usage(argv[0], "bad --seed");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0) ||
                args.seconds > 600.0) {
                usage(argv[0], "bad --seconds");
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage(argv[0], "--trace takes 0 or 1");
            args.trace = value == "1";
        } else {
            usage(argv[0], "unknown flag " + flag);
        }
    }
    if (!have_workload) usage(argv[0], "--workload is required");
    return args;
}

}  // namespace

int main(int argc, char** argv) {
    const e2e::Args args = parse_args(argc, argv);
    try {
        e2e::Json json;
        if (args.workload == "serve_open") {
            e2e::run_serve_open(args, json);
        } else if (args.workload == "amend_stream") {
            e2e::run_amend_stream(args, json);
        } else if (args.workload == "plan_deploy_paper") {
            e2e::run_plan_deploy_paper(args, json);
        } else {
            usage(argv[0], "unknown workload '" + args.workload + "'");
        }
        std::cout << json.str() << '\n';
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "e2e_harness: " << e.what() << '\n';
        return 1;
    }
}
