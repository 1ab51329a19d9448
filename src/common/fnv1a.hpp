// FNV-1a fingerprint over 64-bit words.
//
// Golden pins (tests, bench self-checks) fold a simulation's doubles into
// one 64-bit value by their exact bit patterns, so a pin holds only while
// every result stays bit-identical.
#pragma once

#include <bit>
#include <cstdint>

namespace cast {

class Fnv1a {
public:
    void mix(std::uint64_t v) {
        hash_ ^= v;
        hash_ *= 1099511628211ULL;
    }
    void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }

    [[nodiscard]] std::uint64_t value() const { return hash_; }

private:
    std::uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace cast
