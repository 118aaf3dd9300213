#include "checks.hpp"

#include <algorithm>
#include <unordered_map>

namespace layerbench {

using namespace mann;

References reference_argmax(
    const std::vector<runtime::TaskArtifacts>& suite) {
  References out(suite.size());
  for (std::size_t t = 0; t < suite.size(); ++t) {
    const runtime::TaskArtifacts& art = suite[t];
    for (const data::EncodedStory& story : art.dataset.test) {
      const std::vector<float> logits = art.model.forward(story).logits;
      Reference ref;
      ref.probes = static_cast<std::uint32_t>(logits.size());
      float best = 0.0F;
      float second = 0.0F;
      std::int32_t runner_up = -1;
      for (std::size_t c = 0; c < logits.size(); ++c) {
        const auto cls = static_cast<std::int32_t>(c);
        if (ref.prediction < 0 || logits[c] > best) {
          second = best;
          runner_up = ref.prediction;
          best = logits[c];
          ref.prediction = cls;
        } else if (runner_up < 0 || logits[c] > second) {
          second = logits[c];
          runner_up = cls;
        }
      }
      if (runner_up >= 0 && best - second < kNearTieLogit) {
        ref.near_tie = runner_up;
      }
      out[t].push_back(ref);
    }
  }
  return out;
}

References reference_ith(const std::vector<runtime::TaskArtifacts>& suite) {
  References out(suite.size());
  for (std::size_t t = 0; t < suite.size(); ++t) {
    const runtime::TaskArtifacts& art = suite[t];
    for (const data::EncodedStory& story : art.dataset.test) {
      const core::ThresholdedResult r = art.ith.predict(art.model, story);
      Reference ref;
      ref.prediction = static_cast<std::int32_t>(r.prediction);
      ref.probes = static_cast<std::uint32_t>(r.comparisons);
      out[t].push_back(ref);
    }
  }
  return out;
}

CheckCount check_device_run(const accel::RunResult& run,
                            std::span<const Reference> reference,
                            std::size_t vocab, bool ith) {
  CheckCount count;
  count.attempted = reference.size();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (i >= run.stories.size()) {
      ++count.failed;
      continue;
    }
    const accel::StoryOutcome& out = run.stories[i];
    const Reference& ref = reference[i];
    const bool probes_ok =
        ith ? out.output_probes <= vocab : out.output_probes == vocab;
    const bool near_tie =
        !ith && ref.near_tie >= 0 && out.prediction == ref.near_tie;
    if (!probes_ok || (out.prediction != ref.prediction && !near_tie)) {
      ++count.failed;
    } else if (near_tie) {
      ++count.near_ties;
    }
  }
  return count;
}

CheckCount check_fleet_pass(
    std::span<const Arrival> arrivals,
    std::span<const cluster::ClusterCompletion> completions,
    const References& reference) {
  std::unordered_map<serve::RequestId, std::size_t> index;
  index.reserve(arrivals.size());
  std::vector<std::uint32_t> resolved(arrivals.size(), 0);
  std::vector<bool> bad(arrivals.size(), false);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (!arrivals[i].routed || !index.emplace(arrivals[i].id, i).second) {
      bad[i] = true;
    }
  }
  std::size_t stray = 0;
  for (const cluster::ClusterCompletion& c : completions) {
    const serve::InferenceResponse& r = c.completion.response;
    const auto it = index.find(r.id);
    if (it == index.end()) {
      ++stray;
      continue;
    }
    const std::size_t i = it->second;
    const Arrival& a = arrivals[i];
    const bool answer_ok =
        a.task < reference.size() && a.story < reference[a.task].size() &&
        r.prediction == reference[a.task][a.story].prediction;
    const bool ok =
        ++resolved[i] == 1 && c.completion.outcome == serve::RequestOutcome::kOk &&
        (!r.has_deadline() || r.deadline_met()) && r.task == a.task &&
        r.enqueue_cycle == a.at && r.enqueue_cycle <= r.dispatch_cycle &&
        r.dispatch_cycle <= r.complete_cycle &&
        c.completion.cycle == r.complete_cycle && answer_ok;
    if (!ok) {
      bad[i] = true;
    }
  }
  CheckCount count;
  count.attempted = arrivals.size();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (resolved[i] == 0) {
      bad[i] = true;
    }
    count.failed += bad[i] ? 1 : 0;
  }
  count.failed = std::min(count.attempted, count.failed + stray);
  return count;
}

}  // namespace layerbench
