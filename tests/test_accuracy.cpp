// Paper-output accuracy on the canonical bench study (bench/common.hpp):
// the Lasso slice of the tables. Fig. 4's selected-count curve and Table
// I's selected set are checked exactly; Table I's weights and Table II's
// Lasso rows to a stated relative tolerance, because the solver's
// floating-point order may change without changing what it computes.
// Golden values are the outputs of bench/table1_lasso_weights and
// bench/table2_smae printed to 17 significant digits.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench/common.hpp"

namespace f2pm {
namespace {

/// Table I weights moved by at most 3.3e-8 relative when the Lasso solver
/// switched from residual to covariance updates (same steps, different
/// rounding); the bound allows 30x that.
constexpr double kWeightRelTolerance = 1e-6;
/// Table II Lasso S-MAEs moved by at most 1e-14 relative in that switch.
constexpr double kSmaeRelTolerance = 1e-9;

struct Weight {
  const char* name;
  double value;
};

void expect_weights(double lambda, const std::vector<Weight>& golden) {
  SCOPED_TRACE("lambda=" + std::to_string(lambda));
  const core::SelectionEntry& entry =
      bench::study().selection.at_lambda(lambda);
  ASSERT_EQ(entry.names.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(entry.names[i], golden[i].name);
    EXPECT_NEAR(entry.weights[i], golden[i].value,
                kWeightRelTolerance * std::abs(golden[i].value))
        << golden[i].name;
  }
}

TEST(PaperLasso, Fig4SelectedCountsPerLambda) {
  const auto& entries = bench::study().selection.entries;
  const std::vector<std::size_t> golden{25, 25, 25, 22, 17, 14, 12, 11, 10, 7};
  ASSERT_EQ(entries.size(), golden.size());
  for (std::size_t k = 0; k < golden.size(); ++k) {
    EXPECT_EQ(entries[k].lambda, std::pow(10.0, static_cast<double>(k)));
    EXPECT_EQ(entries[k].selected.size(), golden[k]) << "lambda=1e" << k;
  }
}

TEST(PaperLasso, Table1WeightsAtTheTopOfTheGrid) {
  expect_weights(1e9, {{"mem_used", -0.001126809397817436},
                       {"mem_free", 1.5278005072638345e-06},
                       {"mem_buffers", 0.0081229582403496304},
                       {"mem_cached", -0.00041517799444592608},
                       {"swap_used", -0.0013301756835755276},
                       {"mem_used_slope", -0.38501377790529168},
                       {"swap_used_slope", -0.024567820450792709}});
  expect_weights(1e8, {{"mem_used", -0.0014737397211545841},
                       {"mem_free", 1.8271871897460031e-07},
                       {"mem_buffers", 0.0091200111904674412},
                       {"mem_cached", -0.00018769036004807728},
                       {"swap_used", -0.001223924937384883},
                       {"mem_used_slope", -0.54178597315408528},
                       {"mem_free_slope", 0.26101645263712897},
                       {"mem_buffers_slope", -0.044225717852301595},
                       {"mem_cached_slope", 5.7438915732646803e-05},
                       {"swap_used_slope", -0.072964227679638602}});
}

TEST(PaperLasso, Table2LassoRows) {
  const bench::Study& s = bench::study();
  // λ = 1e0 .. 1e9; all-parameters column, then the Lasso-selected one.
  const std::vector<double> golden_all{
      231.25378668270383, 231.25318665482393, 231.24738428893119,
      230.14961448469805, 233.2180541145681,  236.46329852746612,
      236.82961896447486, 252.26096759024199, 283.93553674303831,
      378.96380727227324};
  const std::vector<double> golden_selected{
      318.38266464845213, 318.38266445545452, 318.38266253165358,
      318.38264323191089, 318.38245023447161, 318.3805202600883,
      318.36122051625188, 318.18473637265203, 309.3379563687015,
      378.96380727227358};
  const auto all = core::evaluate_models(s.train, s.validation, {"lasso"},
                                         bench::lasso_row_lambdas(),
                                         s.soft_threshold, util::Config{});
  const auto selected = core::evaluate_models(
      s.train_selected, s.validation_selected, {"lasso"},
      bench::lasso_row_lambdas(), s.soft_threshold, util::Config{});
  ASSERT_EQ(all.size(), golden_all.size());
  ASSERT_EQ(selected.size(), golden_selected.size());
  for (std::size_t k = 0; k < golden_all.size(); ++k) {
    EXPECT_NEAR(all[k].report.soft_mae, golden_all[k],
                kSmaeRelTolerance * golden_all[k])
        << all[k].display_name;
    EXPECT_NEAR(selected[k].report.soft_mae, golden_selected[k],
                kSmaeRelTolerance * golden_selected[k])
        << selected[k].display_name;
  }
}

/// The selection path stops on the tolerance only for λ >= 1e6; below,
/// every fit runs the full 1000-sweep cap, so those rows depend on it.
TEST(PaperLasso, SelectionPathConvergence) {
  const bench::Study& s = bench::study();
  const auto path =
      ml::lasso_path(s.train.x, s.train.y, core::paper_lambda_grid());
  for (const ml::LassoPathEntry& entry : path) {
    SCOPED_TRACE("lambda=" + std::to_string(entry.lambda));
    EXPECT_EQ(entry.converged, entry.lambda >= 1e6);
    if (!entry.converged) {
      EXPECT_EQ(entry.sweeps, 1000u);
    }
  }
}

}  // namespace
}  // namespace f2pm
