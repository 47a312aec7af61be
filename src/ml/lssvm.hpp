// Least-Squares SVM regression (paper §III-D "SVM2"), after Suykens &
// Vandewalle: the inequality constraints of Vapnik's formulation (Eq. 4)
// are replaced by equality constraints with squared slack, so training
// reduces to one dense linear system
//
//   [ 0   1ᵀ          ] [ b ]   [ 0 ]
//   [ 1   K + I/γ     ] [ α ] = [ y ]
//
// That system is symmetric but indefinite. Eliminating b by its Schur
// complement (Suykens et al., "Least Squares Support Vector Machines",
// 2002) leaves two solves in H = K + I/γ, which is positive definite
// whenever K is positive semi-definite: H η = 1, H ν = y, then
// b = 1ᵀν / 1ᵀη and α = ν − b η. H is factored once by Cholesky. Every
// training point becomes a support vector — the price LS-SVM pays for its
// closed form.
#pragma once

#include <vector>

#include "data/standardizer.hpp"
#include "ml/kernels.hpp"
#include "ml/model.hpp"

namespace f2pm::ml {

/// LS-SVM hyperparameters. Kernel defaults match the SVR's WEKA-like RBF.
struct LsSvmOptions {
  KernelParams kernel{.type = KernelType::kRbf, .gamma = 0.01};
  double gamma = 2.0;   ///< Regularization (larger = closer fit).
};

/// Least-squares SVM regressor.
class LsSvm final : public Regressor {
 public:
  /// Throws std::invalid_argument for gamma <= 0, and for a polynomial
  /// kernel with coef0 < 0 or degree < 1, whose K need not be positive
  /// semi-definite.
  explicit LsSvm(LsSvmOptions options = {});

  void fit(const linalg::Matrix& x, std::span<const double> y) override;
  [[nodiscard]] double predict_row(std::span<const double> row) const override;
  /// Batched prediction via one cross-kernel matrix + gemv.
  [[nodiscard]] std::vector<double> predict(
      const linalg::Matrix& x) const override;
  [[nodiscard]] std::string name() const override { return "svm2"; }
  [[nodiscard]] bool is_fitted() const override { return fitted_; }
  [[nodiscard]] std::size_t num_inputs() const override { return num_inputs_; }
  void save(util::BinaryWriter& writer) const override;
  static std::unique_ptr<LsSvm> load(util::BinaryReader& reader);

  [[nodiscard]] const LsSvmOptions& options() const { return options_; }
  /// Bias b and dual weights α, in standardized target units.
  [[nodiscard]] double bias() const { return bias_; }
  [[nodiscard]] const std::vector<double>& alphas() const { return alphas_; }

 private:
  LsSvmOptions options_;
  KernelParams fitted_kernel_;
  linalg::Matrix support_;           ///< All standardized training rows.
  std::vector<double> alphas_;
  double bias_ = 0.0;
  data::Standardizer input_scaler_;
  data::TargetScaler target_scaler_;
  std::size_t num_inputs_ = 0;
  bool fitted_ = false;
};

}  // namespace f2pm::ml
