#ifndef SES_TESTS_EXECUTOR_TEST_PEER_H_
#define SES_TESTS_EXECUTOR_TEST_PEER_H_

#include <span>

#include "core/executor.h"

namespace ses {

/// Read-only view of a SesExecutor's Ω for tests.
class SesExecutorTestPeer {
 public:
  static constexpr Timestamp kNoPending = SesExecutor::kNoPending;

  /// The live instances, in Ω order.
  static std::span<const AutomatonInstance> Omega(
      const SesExecutor& executor) {
    return std::span<const AutomatonInstance>(executor.instances_)
        .subspan(executor.head_);
  }

  /// The earliest first-binding time the executor expires against.
  static Timestamp PendingFloor(const SesExecutor& executor) {
    return executor.PendingFloor();
  }
};

}  // namespace ses

#endif  // SES_TESTS_EXECUTOR_TEST_PEER_H_
