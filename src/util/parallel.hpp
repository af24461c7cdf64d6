// parallel.hpp - The default worker-thread count.
//
// Replications run on sim/batch.hpp's BatchEngine, which starts its own
// worker threads per run(); this header only says how many to use when a
// caller asks for the default (threads = 0).
#pragma once

namespace ecs {

/// Number of worker threads to use by default: hardware concurrency,
/// at least 1.
[[nodiscard]] unsigned default_thread_count();

}  // namespace ecs
