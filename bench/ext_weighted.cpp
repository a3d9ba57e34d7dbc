// Extension A14: access-weighted PAMAD. When clients hit some deadline
// groups far more than others, the general prob_access of Section 4.1
// (rather than the paper's uniform special case) should steer bandwidth.
#include <iostream>

#include "core/channel_bound.hpp"
#include "core/delay_model.hpp"
#include "core/pamad.hpp"
#include "util/table.hpp"
#include "workload/distributions.hpp"

using namespace tcsa;

int main() {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  // Group-skewed access: tight-deadline content is also the hot content
  // (weight halves per group).
  std::vector<double> weights(static_cast<std::size_t>(w.group_count()));
  double value = 1.0;
  for (auto& weight : weights) {
    weight = value;
    value *= 0.5;
  }

  std::cout << "# Extension A14 — access-weighted PAMAD (uniform sizes, "
               "group weight halves per group)\n"
            << "# weighted AvgD: expectation under the skewed access law\n\n";

  Table table({"channels", "weighted AvgD (plain PAMAD)",
               "weighted AvgD (weighted PAMAD)", "improvement %",
               "S1 plain", "S1 weighted"});
  const SlotCount bound = min_channels(w);
  for (const SlotCount divisor : {20, 10, 5, 3, 2}) {
    const SlotCount channels = std::max<SlotCount>(1, bound / divisor);
    const PamadFrequencies plain = pamad_frequencies(w, channels);
    const PamadFrequencies weighted =
        pamad_frequencies_weighted(w, channels, weights);
    const double plain_score =
        analytic_group_weighted_delay(w, plain.S, channels, weights);
    const double weighted_score =
        analytic_group_weighted_delay(w, weighted.S, channels, weights);
    table.begin_row()
        .add(channels)
        .add(plain_score)
        .add(weighted_score)
        .add(plain_score > 0
                 ? 100.0 * (plain_score - weighted_score) / plain_score
                 : 0.0,
             2)
        .add(plain.S.front())
        .add(weighted.S.front());
  }
  std::cout << table.to_string()
            << "\n# expected shape: weighted PAMAD shifts copies toward hot "
               "tight groups and\n# wins on the weighted metric at scarce "
               "channels.\n";
  return 0;
}
