// Fixture: the planner service gets no C008 exemption — its serve loops
// are ThreadPool tasks, so a std::thread here fires like anywhere else.
#include <thread>

namespace fixture {
void start_dispatcher() {
    std::thread dispatcher([] {});  // line 7: ad-hoc thread
    dispatcher.join();
}
}  // namespace fixture
