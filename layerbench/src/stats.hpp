// Small order statistics shared by the benchmark and its checks.
#pragma once

#include <vector>

namespace layerbench {

/// Nearest-rank percentile (q in [0, 1]) — the convention of
/// mann::cluster's merged-stream summaries. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

[[nodiscard]] double median(std::vector<double> values);

}  // namespace layerbench
