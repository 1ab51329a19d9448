// Fixture: C011 covers the SoA core's header, where every replica's state
// (the DAG's predecessor and successor lists included) lives. Prose naming
// std::set (comments are stripped) and flat vectors must stay silent.
#include <map>
#include <set>
#include <vector>

namespace fixture {
inline std::map<int, std::vector<int>> successors;   // line 9: std::map
inline std::set<int> dirty_jobs;                      // line 10: std::set
inline std::vector<std::vector<int>> preds;          // flat vectors: no finding
}  // namespace fixture
