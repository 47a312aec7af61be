#include "core/pipeline.hpp"

#include <stdexcept>

#include "linalg/stats.hpp"
#include "ml/lasso.hpp"
#include "ml/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace f2pm::core {

namespace {

/// Expands "lasso" into one λ-tagged entry per λ; other names pass through.
struct ModelSpec {
  std::string registry_name;
  std::string display_name;
  util::Config params;
};

std::vector<ModelSpec> expand_models(const std::vector<std::string>& models,
                                     const std::vector<double>& lasso_lambdas,
                                     const util::Config& base_params) {
  std::vector<ModelSpec> specs;
  for (const auto& name : models) {
    if (name == "lasso") {
      for (double lambda : lasso_lambdas) {
        ModelSpec spec;
        spec.registry_name = "lasso";
        spec.display_name =
            "lasso-lambda-" + util::format_double(lambda, 0);
        spec.params = base_params;
        spec.params.set("lasso.lambda", util::format_double(lambda, 9));
        specs.push_back(std::move(spec));
      }
    } else {
      specs.push_back({name, name, base_params});
    }
  }
  return specs;
}

ModelOutcome evaluate_one(const ModelSpec& spec, const data::Dataset& train,
                          const data::Dataset& validation,
                          double soft_threshold) {
  auto model = ml::make_model(spec.registry_name, spec.params);
  ModelOutcome outcome;
  outcome.display_name = spec.display_name;
  outcome.report =
      ml::evaluate_model(*model, train.x, train.y, validation.x, validation.y,
                         soft_threshold, &outcome.predicted);
  outcome.report.model_name = spec.display_name;
  return outcome;
}

}  // namespace

std::vector<ModelOutcome> evaluate_models(
    const data::Dataset& train, const data::Dataset& validation,
    const std::vector<std::string>& models,
    const std::vector<double>& lasso_lambdas, double soft_threshold,
    const util::Config& model_params, bool parallel,
    std::size_t parallel_threads) {
  const auto specs = expand_models(models, lasso_lambdas, model_params);
  std::vector<ModelOutcome> outcomes(specs.size());
  if (!parallel) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      outcomes[i] = evaluate_one(specs[i], train, validation, soft_threshold);
    }
    return outcomes;
  }
  // Model-level parallelism runs on a dedicated pool; the inner numeric
  // loops use the global pool, so there is no nested-wait deadlock.
  parallel::ThreadPool pool(parallel_threads);
  std::vector<std::future<void>> futures;
  futures.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    futures.push_back(pool.submit([&, i] {
      outcomes[i] = evaluate_one(specs[i], train, validation, soft_threshold);
    }));
  }
  for (auto& future : futures) future.get();
  return outcomes;
}

PipelineResult run_pipeline(const data::DataHistory& history,
                            const PipelineOptions& options) {
  PipelineResult result;

  // Phase 1-2 (Fig. 1): aggregation + added metrics + RTTF labeling.
  const auto aggregated = data::aggregate(history, options.aggregation);
  if (aggregated.empty()) {
    throw std::invalid_argument(
        "run_pipeline: the history produced no labeled datapoints "
        "(no failed runs, or windows larger than the runs)");
  }
  result.dataset = data::build_dataset(aggregated);
  F2PM_LOG(kInfo, "pipeline")
      << "aggregated " << history.num_samples() << " raw samples into "
      << result.dataset.num_rows() << " datapoints ("
      << result.dataset.num_features() << " input features)";

  util::Rng rng(options.seed);
  auto split = options.split_by_run
                   ? data::split_dataset_by_run(result.dataset,
                                                options.train_fraction, rng)
                   : data::split_dataset(result.dataset,
                                         options.train_fraction, rng);
  result.train = std::move(split.train);
  result.validation = std::move(split.validation);
  if (result.train.num_rows() == 0 || result.validation.num_rows() == 0) {
    throw std::invalid_argument(
        "run_pipeline: train/validation split left one side empty");
  }

  result.soft_threshold =
      options.soft_mae_fraction * linalg::max_value(result.dataset.y);

  const std::vector<double> lasso_lambdas =
      options.lasso_predictor_lambdas.empty() ? paper_lambda_grid()
                                              : options.lasso_predictor_lambdas;

  // Phase 3 (Fig. 1, optional): Lasso feature selection on the train side.
  if (options.run_feature_selection) {
    const std::vector<double> grid = options.selection_lambdas.empty()
                                         ? paper_lambda_grid()
                                         : options.selection_lambdas;
    result.selection = select_features(result.train, grid);
    result.selected_columns =
        result.selection->at_lambda(options.selection_lambda).selected;
    F2PM_LOG(kInfo, "pipeline")
        << "lasso selection at lambda=" << options.selection_lambda
        << " kept " << result.selected_columns.size() << " of "
        << result.train.num_features() << " features";
  }

  // Phase 4 (Fig. 1): model generation & validation.
  result.using_all_features = evaluate_models(
      result.train, result.validation, options.models, lasso_lambdas,
      result.soft_threshold, options.model_params, options.parallel_training,
      options.parallel_threads);

  if (options.run_feature_selection && !result.selected_columns.empty()) {
    const data::Dataset train_sel =
        result.train.select_features(result.selected_columns);
    const data::Dataset validation_sel =
        result.validation.select_features(result.selected_columns);
    result.using_selected_features = evaluate_models(
        train_sel, validation_sel, options.models, lasso_lambdas,
        result.soft_threshold, options.model_params,
        options.parallel_training, options.parallel_threads);
  }
  return result;
}

}  // namespace f2pm::core
