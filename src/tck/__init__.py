"""Time series cluster kernels for multivariate time series with missing data.

The library builds positive semi-definite similarity matrices between
incompletely observed multivariate time series by fitting an ensemble of
Bayesian mixture models and accumulating inner products of their normalized
component posteriors.  Base models are either Gaussian-only or mixed-mode
(Gaussian times Bernoulli over the observation mask, so informative
missingness contributes to the similarity), and posteriors can be mapped to
class posteriors with full or partial label information before kernel
accumulation.
"""

from .data import (Dataset, FormatError, StandardizationStats, concat_mask,
                   labels_to_onehot, load_dataset, save_dataset, standardize,
                   zero_impute)
from .mixture import (GAUSSIAN_ONLY, MIXED_MODE, FitReport, HyperParams,
                      MixtureParams, e_step, fit_map_em)
from .ensemble import (BaseModelSpec, EnsembleConfig, KernelMatrix,
                       TrainedEnsemble, apply_posterior_transform, kernel_test,
                       load_ensemble, load_kernel, sample_configs,
                       save_ensemble, save_kernel, train_ensemble)
from .transform import (TransformMatrix, apply_transform,
                        make_semisupervised_factory, make_supervised_factory,
                        semisupervised_transform, supervised_transform)
from .evaluation import (Embedding, KernelProjector, KFoldResult, Metrics,
                         classification_metrics, kfold_evaluate, knn_predict,
                         kpca, select_k)
from .synth import (InjectionReport, Var1ClassParams, Var1Params,
                    default_var1_params, gen_var1, inject_rate_mar,
                    inject_rate_mnar, inject_var1_mnar, simulate_var1_chain,
                    tune_informativeness)

__version__ = "0.1.0"
