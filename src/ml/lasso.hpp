// Lasso (L1-regularized least squares), paper Eq. (2), in both of its F2PM
// roles:
//   * Lasso Regularization (§III-C): run over a grid of λ values; the
//     features whose β weight stays non-zero form the reduced training set
//     (Fig. 4 and Table I of the paper);
//   * Lasso as a Predictor (§III-D): the fitted β used directly as a
//     closed-form linear model.
//
// The solver is cyclic coordinate descent with soft-thresholding, run on
// RAW (unstandardized) features — this is what makes the paper's λ grid of
// 10^0..10^9 meaningful, since system features live on scales from
// fractions of a percent to millions of KiB. It works in covariance mode:
// the centered Gram matrix XcᵀXc is formed once per fit, so a coordinate
// update costs O(p) rather than O(n). The objective is the
// total-squared-error form ||y - Xβ||² + λ||β||₁ (Eq. 2 times n, i.e. λ is
// rescaled by the dataset size relative to the mean-error form); see the
// note in lasso.cpp. An unpenalized intercept is handled by centering.
#pragma once

#include <vector>

#include "ml/model.hpp"
#include "util/rng.hpp"

namespace f2pm::ml {

/// Solver knobs shared by the predictor and the regularization path.
struct LassoOptions {
  double lambda = 1.0;         ///< L1 strength (λ of Eq. 2).
  std::size_t max_iterations = 1000;  ///< Full coordinate sweeps.
  double tolerance = 1e-7;     ///< Stop when max coefficient step, scaled by
                               ///< the column norm, drops below this.
  /// Coefficients with |β_j| below this (after convergence) are snapped to
  /// exactly zero so "selected features" is well defined.
  double zero_threshold = 1e-12;
};

/// Lasso as a predictor (one fixed λ).
class Lasso final : public Regressor {
 public:
  explicit Lasso(LassoOptions options = {});

  void fit(const linalg::Matrix& x, std::span<const double> y) override;
  [[nodiscard]] double predict_row(std::span<const double> row) const override;
  [[nodiscard]] std::string name() const override { return "lasso"; }
  [[nodiscard]] bool is_fitted() const override { return fitted_; }
  [[nodiscard]] std::size_t num_inputs() const override {
    return coefficients_.size();
  }
  void save(util::BinaryWriter& writer) const override;
  static std::unique_ptr<Lasso> load(util::BinaryReader& reader);

  [[nodiscard]] const LassoOptions& options() const { return options_; }
  [[nodiscard]] const std::vector<double>& coefficients() const {
    return coefficients_;
  }
  [[nodiscard]] double intercept() const { return intercept_; }

  /// Indices of features with non-zero weight.
  [[nodiscard]] std::vector<std::size_t> selected_features() const;

  /// Coordinate sweeps the last fit() ran (at most max_iterations), and
  /// whether it stopped on the tolerance rather than at that cap. A model
  /// read back by load() reports 0 and false.
  [[nodiscard]] std::size_t sweeps() const { return sweeps_; }
  [[nodiscard]] bool converged() const { return converged_; }

  /// Warm-starts the next fit() from the given coefficients (used by the
  /// regularization path, which sweeps λ from large to small).
  void warm_start(std::vector<double> coefficients);

 private:
  LassoOptions options_;
  std::vector<double> coefficients_;
  std::vector<double> warm_;
  double intercept_ = 0.0;
  std::size_t sweeps_ = 0;
  bool converged_ = false;
  bool fitted_ = false;
};

/// One entry of the regularization path.
struct LassoPathEntry {
  double lambda = 0.0;
  std::vector<double> coefficients;      ///< β on the raw feature scale.
  double intercept = 0.0;
  std::vector<std::size_t> selected;     ///< Non-zero coefficient indices.
  std::size_t sweeps = 0;                ///< Lasso::sweeps() of this fit.
  bool converged = false;                ///< Lasso::converged() of this fit.
};

/// Fits the Lasso for every λ in `lambdas` (any order; internally solved
/// from the largest λ down with warm starts, which is both faster and more
/// stable). Entries are returned in the order of `lambdas`.
std::vector<LassoPathEntry> lasso_path(const linalg::Matrix& x,
                                       std::span<const double> y,
                                       const std::vector<double>& lambdas,
                                       const LassoOptions& base = {});

/// λ above which the Lasso solution is all-zeros (max |x_jᵀ(y - ȳ)| * 2/n).
double lasso_lambda_max(const linalg::Matrix& x, std::span<const double> y);

}  // namespace f2pm::ml
