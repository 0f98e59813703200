"""Empirical-Bayes small-area prediction for positive, skewed quantities.

The observed log response of each area combines a linear signal in
log-scale covariates, an area effect, and sampling noise; the covariates
themselves may be measured with a known per-area error covariance.  The
package fits the model by moment iteration, predicts each area's
raw-scale quantity, attaches leave-one-out and parametric-bootstrap MSPE
estimates, and ships the Monte-Carlo studies used to validate them.
"""

import importlib

from .dataio import (
    DatasetSchema,
    RunManifest,
    load_arrays,
    load_dataset,
    save_dataset,
)
from .errors import (
    DataError,
    DegenerateVariance,
    InsufficientAreas,
    LogsaeError,
    NonPositiveValue,
    NonPsdSigma,
    NumericalError,
    ParseError,
    PredictionOverflow,
    SingularMomentMatrix,
)
from .estimation import FitConfig, ModelFit, estimate_sigma2, fit, solve_beta
from .model import (
    AreaObservation,
    Dataset,
    EbPrediction,
    ModelParams,
    PosteriorMoments,
    eb_predict,
    m1_term,
    posterior_moments,
    predict_areas,
    shrinkage_gamma,
)

# name -> the module it comes from, imported on first use (PEP 562), so
# that `fit` and `predict` load neither the resamplers nor the studies
_LAZY = {
    "mspe": "mspe",
    "BootstrapMspe": "mspe",
    "JackknifeMspe": "mspe",
    "bootstrap_mspe": "mspe",
    "jackknife_mspe": "mspe",
    "simulation": "simulation",
    "SimulationConfig": "simulation",
    "SimulationReport": "simulation",
    "misspecification_study": "simulation",
    "run_emse_study": "simulation",
    "run_mspe_study": "simulation",
    "zero_proportion_study": "simulation",
}

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LogsaeError",
    "DataError",
    "NumericalError",
    "ParseError",
    "NonPositiveValue",
    "NonPsdSigma",
    "InsufficientAreas",
    "DegenerateVariance",
    "SingularMomentMatrix",
    "PredictionOverflow",
    # model
    "AreaObservation",
    "Dataset",
    "ModelParams",
    "PosteriorMoments",
    "EbPrediction",
    "shrinkage_gamma",
    "posterior_moments",
    "eb_predict",
    "m1_term",
    "predict_areas",
    # estimation
    "FitConfig",
    "ModelFit",
    "fit",
    "solve_beta",
    "estimate_sigma2",
    # mspe
    "JackknifeMspe",
    "BootstrapMspe",
    "jackknife_mspe",
    "bootstrap_mspe",
    # simulation
    "SimulationConfig",
    "SimulationReport",
    "run_emse_study",
    "run_mspe_study",
    "zero_proportion_study",
    "misspecification_study",
    # dataio
    "DatasetSchema",
    "RunManifest",
    "load_arrays",
    "load_dataset",
    "save_dataset",
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    if name != _LAZY[name]:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
