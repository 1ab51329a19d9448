// Fixture: C008 must fire on an ad-hoc std::thread outside the pool.
#include <thread>

namespace fixture {
void spawn() {
    std::thread worker([] {});  // line 6: ad-hoc thread
    worker.join();
}
}  // namespace fixture
