#include "model/serialize.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "common/fnv1a.hpp"

namespace cast::model {

namespace {

constexpr std::string_view kMagic = "cast-model-set";
constexpr std::string_view kVersion = "v1";

void write_machine(std::ostream& os, std::string_view key, const cloud::MachineType& m) {
    os << key << ' ' << m.name << ' ' << m.vcpus << ' ' << m.memory_gb << ' ' << m.map_slots
       << ' ' << m.reduce_slots << ' ' << m.price_per_hour.value() << ' '
       << m.shuffle_network_bw.value() << '\n';
}

cloud::MachineType read_machine(std::istringstream& line) {
    cloud::MachineType m;
    double price = 0.0;
    double network = 0.0;
    line >> m.name >> m.vcpus >> m.memory_gb >> m.map_slots >> m.reduce_slots >> price >>
        network;
    if (!line) throw ValidationError("model set: malformed machine line");
    m.price_per_hour = Dollars{price};
    m.shuffle_network_bw = MBytesPerSec{network};
    m.validate();
    return m;
}

[[noreturn]] void fail(const std::string& what) {
    throw ValidationError("model set: " + what);
}

}  // namespace

void save_model_set(const PerfModelSet& models, std::ostream& os) {
    os << kMagic << ' ' << kVersion << '\n';
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "catalog " << models.catalog().name() << '\n';
    const auto& cluster = models.cluster();
    os << "workers " << cluster.worker_count << '\n';
    write_machine(os, "worker", cluster.worker);
    write_machine(os, "master", cluster.master);
    for (workload::AppKind app : workload::kAllApps) {
        for (cloud::StorageTier tier : cloud::kAllTiers) {
            if (!models.has_tier_model(app, tier)) {
                fail("incomplete model set: missing " +
                     std::string(workload::app_name(app)) + "/" +
                     std::string(cloud::tier_name(tier)));
            }
            const TierModel& m = models.tier_model(app, tier);
            os << "model " << workload::app_name(app) << ' ' << cloud::tier_name(tier) << ' '
               << m.bandwidths.map.value() << ' ' << m.bandwidths.shuffle.value() << ' '
               << m.bandwidths.reduce.value() << ' ' << m.reference_capacity_per_vm.value()
               << ' ' << (m.scales_with_intermediate_volume ? 1 : 0) << ' '
               << m.runtime_scale.size();
            for (double x : m.runtime_scale.knots_x()) os << ' ' << x;
            for (double y : m.runtime_scale.knots_y()) os << ' ' << y;
            os << '\n';
        }
    }
    os << "end\n";
    if (!os) fail("write failure");
}

PerfModelSet load_model_set(std::istream& is) {
    std::string line;
    if (!std::getline(is, line)) fail("empty input");
    {
        std::istringstream header(line);
        std::string magic;
        std::string version;
        header >> magic >> version;
        if (magic != kMagic) fail("bad magic '" + magic + "'");
        if (version != kVersion) fail("unsupported version '" + version + "'");
    }

    std::string catalog_name;
    cloud::ClusterSpec cluster;
    bool have_catalog = false;
    bool have_workers = false;
    bool have_worker = false;
    bool have_master = false;

    struct PendingModel {
        workload::AppKind app;
        cloud::StorageTier tier;
        TierModel model;
    };
    std::vector<PendingModel> pending;

    while (std::getline(is, line)) {
        if (line.empty()) continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "end") break;
        if (key == "catalog") {
            ls >> catalog_name;
            have_catalog = true;
        } else if (key == "workers") {
            ls >> cluster.worker_count;
            if (!ls || cluster.worker_count < 1) fail("bad worker count");
            have_workers = true;
        } else if (key == "worker") {
            cluster.worker = read_machine(ls);
            have_worker = true;
        } else if (key == "master") {
            cluster.master = read_machine(ls);
            have_master = true;
        } else if (key == "model") {
            std::string app_name;
            std::string tier_name;
            double map = 0.0;
            double shuffle = 0.0;
            double reduce = 0.0;
            double ref = 0.0;
            int inter_flag = 0;
            std::size_t knots = 0;
            ls >> app_name >> tier_name >> map >> shuffle >> reduce >> ref >> inter_flag >>
                knots;
            if (!ls) fail("malformed model line: " + line);
            const auto app = workload::app_from_name(app_name);
            if (!app) fail("unknown app '" + app_name + "'");
            const auto tier = cloud::tier_from_name(tier_name);
            if (!tier) fail("unknown tier '" + tier_name + "'");
            TierModel m;
            m.bandwidths = PhaseBandwidths{MBytesPerSec{map}, MBytesPerSec{shuffle},
                                           MBytesPerSec{reduce}};
            m.reference_capacity_per_vm = GigaBytes{ref};
            m.scales_with_intermediate_volume = inter_flag != 0;
            if (knots > 0) {
                std::vector<double> xs(knots);
                std::vector<double> ys(knots);
                for (auto& x : xs) ls >> x;
                for (auto& y : ys) ls >> y;
                if (!ls) fail("truncated spline knots: " + line);
                if (knots < 2) fail("spline needs at least 2 knots: " + line);
                m.runtime_scale = CubicHermiteSpline(xs, ys);
            }
            pending.push_back(PendingModel{*app, *tier, std::move(m)});
        } else {
            fail("unknown key '" + key + "'");
        }
    }
    if (!have_catalog || !have_workers || !have_worker || !have_master) {
        fail("missing header section");
    }
    PerfModelSet models(cluster, cloud::StorageCatalog::by_name(catalog_name));
    for (auto& p : pending) models.set_tier_model(p.app, p.tier, std::move(p.model));
    for (workload::AppKind app : workload::kAllApps) {
        for (cloud::StorageTier tier : cloud::kAllTiers) {
            if (!models.has_tier_model(app, tier)) {
                fail("incomplete model set after load: missing " +
                     std::string(workload::app_name(app)) + "/" +
                     std::string(cloud::tier_name(tier)));
            }
        }
    }
    return models;
}

void save_model_set_file(const PerfModelSet& models, const std::string& path) {
    std::ofstream file(path);
    if (!file) throw ValidationError("cannot open for writing: " + path);
    save_model_set(models, file);
}

PerfModelSet load_model_set_file(const std::string& path) {
    std::ifstream file(path);
    if (!file) throw ValidationError("cannot open for reading: " + path);
    return load_model_set(file);
}

std::uint64_t fingerprint(const PerfModelSet& models) {
    Fnv1a h;
    for (workload::AppKind app : workload::kAllApps) {
        for (cloud::StorageTier tier : cloud::kAllTiers) {
            const TierModel& m = models.tier_model(app, tier);
            h.mix(m.bandwidths.map.value());
            h.mix(m.bandwidths.shuffle.value());
            h.mix(m.bandwidths.reduce.value());
            h.mix(m.reference_capacity_per_vm.value());
            h.mix(static_cast<std::uint64_t>(m.scales_with_intermediate_volume));
            h.mix(static_cast<std::uint64_t>(m.runtime_scale.size()));
            for (double x : m.runtime_scale.knots_x()) h.mix(x);
            for (double y : m.runtime_scale.knots_y()) h.mix(y);
        }
    }
    return h.value();
}

}  // namespace cast::model
