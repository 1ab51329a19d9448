// Fixture: C011 covers the fixed-point sums too; a std::multiset of
// terms would allocate per term where one integer accumulator does.
#include <cstdint>
#include <set>

namespace fixture {
inline std::int64_t units = 0;                       // flat accumulator: no finding
inline std::multiset<std::int64_t> terms;            // line 8: std::multiset
}  // namespace fixture
