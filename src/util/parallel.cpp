#include "util/parallel.hpp"

#include <thread>

namespace ecs {

unsigned default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace ecs
