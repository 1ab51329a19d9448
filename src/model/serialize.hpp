// Persistence for profiled model sets.
//
// Offline profiling is the expensive step of the CAST pipeline (hundreds
// of calibration runs); a tenant profiles once per cluster shape and plans
// many times. This module saves/loads a PerfModelSet as a line-oriented,
// versioned, human-diffable text format (no external dependencies):
//
//   cast-model-set v1
//   catalog google-cloud
//   cluster <workers> <name> <vcpus> <mem> <mslots> <rslots> <price> <net>
//   master  <name> <vcpus> <mem> <mslots> <rslots> <price> <net>
//   model <app> <tier> <map> <shuffle> <reduce> <refcap> <interflag> <k> x... y...
//   end
//
// Numbers are printed with max_digits10 so round-trips are bit-exact.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "model/profiler.hpp"

namespace cast::model {

/// Serialize `models` to a stream. Throws ValidationError if any (app,
/// tier) model is missing (partial sets are not a valid interchange state).
void save_model_set(const PerfModelSet& models, std::ostream& os);

/// Parse a model set from a stream. Throws ValidationError on syntax
/// errors, version mismatch, unknown catalog/app/tier names, or missing
/// models.
[[nodiscard]] PerfModelSet load_model_set(std::istream& is);

/// File convenience wrappers. Throw ValidationError when the file cannot
/// be opened.
void save_model_set_file(const PerfModelSet& models, const std::string& path);
[[nodiscard]] PerfModelSet load_model_set_file(const std::string& path);

/// FNV-1a over every tier model's bandwidths, reference capacity and REG
/// spline knots, bit for bit: equal fingerprints mean the planners see the
/// same numbers. Throws like tier_model() if a model is missing.
[[nodiscard]] std::uint64_t fingerprint(const PerfModelSet& models);

}  // namespace cast::model
