// Fixture: C011 covers the workflow solver's file too — its replicas run
// the shared anneal loop, so a node-based container there sits on the
// per-iteration path. Prose naming std::map (comments are stripped) and
// flat vectors must stay silent.
#include <map>
#include <set>
#include <vector>

namespace fixture {
// A std::map of plans per score would allocate a node per insert.
inline std::multimap<int, double> by_cost;        // line 11: std::multimap
inline std::unordered_set<int> seen_plans;        // line 12: std::unordered_set
inline std::vector<double> scores;                // flat vector: no finding
}  // namespace fixture
