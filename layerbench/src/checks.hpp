// Output checks of the benchmark. Every answer the device or the fleet
// produces is compared against a reference computed apart from the
// device and serving paths (the float MemN2N, or the float ITH predictor),
// and every check counts failed operations instead of aborting, so the
// benchmark can report `attempted` and `failed`. tests/checks_test.cpp
// feeds each check known-bad input to prove it can trip.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "accel/accelerator.hpp"
#include "cluster/cluster.hpp"
#include "runtime/measurement.hpp"

namespace layerbench {

/// Float logits closer than this are a near-tie: the Q16.16 datapath may
/// legitimately break it the other way, so either class is accepted
/// (ITH off only; counted apart from passes and failures).
inline constexpr float kNearTieLogit = 1.0e-3F;

/// The reference answer for one story.
struct Reference {
  std::int32_t prediction = -1;
  /// Runner-up class when it is a near-tie with `prediction`, else -1.
  std::int32_t near_tie = -1;
  /// Output-layer probes the reference made (|vocab| for the argmax,
  /// the thresholded probe count for ITH).
  std::uint32_t probes = 0;
};

/// references[task][story], story = index into the task's test split.
using References = std::vector<std::vector<Reference>>;

/// Float MemN2N argmax over every class — the ITH-off reference.
[[nodiscard]] References reference_argmax(
    const std::vector<mann::runtime::TaskArtifacts>& suite);

/// core::InferenceThresholding::predict — the ITH-on reference.
[[nodiscard]] References reference_ith(
    const std::vector<mann::runtime::TaskArtifacts>& suite);

struct CheckCount {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t near_ties = 0;  ///< accepted near-tie answers

  CheckCount& operator+=(const CheckCount& other) noexcept {
    attempted += other.attempted;
    failed += other.failed;
    near_ties += other.near_ties;
    return *this;
  }
};

/// One device run over a task's whole test split (`reference` holds one
/// entry per story). A story fails when it is missing, its prediction
/// differs from the reference (near-ties excepted with ITH off), or its
/// probe count breaks the rule: exactly |vocab| with ITH off, at most
/// |vocab| with ITH on.
[[nodiscard]] CheckCount check_device_run(
    const mann::accel::RunResult& run, std::span<const Reference> reference,
    std::size_t vocab, bool ith);

/// One fleet arrival as the benchmark submitted it.
struct Arrival {
  mann::serve::RequestId id = 0;
  std::size_t task = 0;
  std::size_t story = 0;  ///< index into the task's test split
  mann::sim::Cycle at = 0;
  bool routed = false;  ///< false when the router refused it
};

/// One fleet pass. An arrival fails unless it was routed, resolved
/// exactly once, completed (not shed) within its deadline, with
/// enqueue == arrival <= dispatch <= completion, and answered with the
/// reference prediction of the story it carried. A completion whose id
/// matches no arrival also counts as a failure.
[[nodiscard]] CheckCount check_fleet_pass(
    std::span<const Arrival> arrivals,
    std::span<const mann::cluster::ClusterCompletion> completions,
    const References& reference);

}  // namespace layerbench
