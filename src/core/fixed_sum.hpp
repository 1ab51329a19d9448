// Exact, order-free sums for the Eq. 3-6 aggregates.
//
// Every sum the batch objective is built from — the Eq. 3 block-tier
// aggregates, the objStore aggregate and the Eq. 4 runtime total — is a
// sum of non-negative doubles. Summed in floating point, its last bits
// depend on the order of the additions, so an incremental evaluator that
// adjusts a sum by ±term would drift from one that re-sums it. Here each
// term is quantized ONCE to an integer number of units of 2^-20 (GB or
// seconds) and the units are added exactly, so the sum has the same bits
// in any order, and adding then subtracting a term restores it exactly.
//
// Quantizing: x · 2^20 is exact (a power-of-two scaling), and rounding it
// to the nearest integer, ties to even, moves the term by at most 2^-21,
// about half a microsecond or half a kilobyte.
//
// Range: a sum is exact, and converts back to a double exactly, while it
// stays below kFixedLimit = 2^53 units (2^33 GB, or 2^33 s, about 272
// years). A term at or beyond 2^33, negative, or not a number quantizes
// to kFixedLimit itself, so any sum that holds it is out of range. The
// accumulator is 128 bits wide: it holds fewer than 2^32 terms (jobs are
// indexed by 32-bit integers) of at most 2^53 units each, so no sequence
// of additions and subtractions of such terms can wrap it. A sum out of
// range makes the plan infeasible in every evaluator; it is never used
// inexactly.
#pragma once

#include <cstdint>

namespace cast::core {

/// The fixed-point unit: 2^-20 GB, or 2^-20 s.
inline constexpr double kFixedUnit = 0x1p-20;
/// The exact range of a sum, in units: [0, 2^53).
inline constexpr std::int64_t kFixedLimit = std::int64_t{1} << 53;

/// One term in units: x / kFixedUnit rounded to the nearest integer (ties
/// to even); kFixedLimit when x is outside [0, 2^33) or NaN.
[[nodiscard]] inline std::int64_t fixed_units(double x) {
    const double scaled = x * 0x1p20;
    if (!(scaled >= 0.0 && scaled < 0x1p53)) return kFixedLimit;
    // Below 2^52, adding and removing 2^52 rounds at the units place (the
    // default rounding mode, to nearest even); from 2^52 on every double is
    // an integer already.
    const double rounded = scaled < 0x1p52 ? (scaled + 0x1p52) - 0x1p52 : scaled;
    return static_cast<std::int64_t>(rounded);
}

/// An exact sum of quantized terms.
class FixedSum {
public:
    /// Adds the term `x` (GB or s).
    void add(double x) { units_ += fixed_units(x); }
    /// Adds or removes a term already in units.
    void add_units(std::int64_t units) { units_ += units; }
    void sub_units(std::int64_t units) { units_ -= units; }

    /// Whether the sum lies in [0, kFixedLimit), where value() is exact.
    [[nodiscard]] bool in_range() const { return units_ >= 0 && units_ < kFixedLimit; }

    /// The sum in GB or s; call only when in_range().
    [[nodiscard]] double value() const {
        return static_cast<double>(static_cast<std::int64_t>(units_)) * kFixedUnit;
    }

    friend bool operator==(const FixedSum&, const FixedSum&) = default;

private:
    __extension__ typedef __int128 Units;
    Units units_ = 0;
};

}  // namespace cast::core
