"""Transvariation-based one-class classification.

Score how much a new observation resembles a single known "target" class,
calibrate acceptance thresholds at a chosen minimum sensitivity, and compare
against standard one-class baselines on synthetic scenarios or the bundled
forensic glass study.
"""

__version__ = "0.1.0"

from .numcore import (ConvergenceError, DataMatrix, PcaResult, RngStream,
                      concat, correlation_matrix, empirical_quantile, pca,
                      spatial_median)
from .transvariation import (TpScore, multivariate_tp, multivariate_tp_density,
                             univariate_tp, univariate_tp_density)
from .density import (MixtureDensity, OrthantIntegrator, fit_gmm,
                      orthant_probability)
from .classifier import (PamResult, PredictionResult, ToccModel,
                         fit_pam_tocc_df, fit_tocc_db, fit_tocc_df, pam,
                         predict)
from .featsel import (PcaReducer, ProjectionEnsemble, VipRanking, compute_vip,
                      fit_rp_ensemble, kappa_vip_select, pca_reduce,
                      predict_ensemble, rp_select)
from .baselines import BaselineModel, fit_baseline, predict_baseline
from .simgen import SCENARIOS, SamplePair, ScenarioSpec, generate
from .evaluation import (BenchmarkResult, EvalReport, Method, RocCurve,
                         confusion_metrics, evaluate_method, make_method,
                         roc_curve, run_benchmark)
from .glass import GlassReproResult, load_glass, run_glass_repro
from .io_utils import ingest_csv, load_model, save_model

__all__ = [
    "__version__",
    "ConvergenceError", "DataMatrix", "PcaResult", "RngStream", "concat",
    "correlation_matrix", "empirical_quantile", "pca", "spatial_median",
    "TpScore", "multivariate_tp", "multivariate_tp_density", "univariate_tp",
    "univariate_tp_density",
    "MixtureDensity", "OrthantIntegrator", "fit_gmm", "orthant_probability",
    "PamResult", "PredictionResult", "ToccModel", "fit_pam_tocc_df",
    "fit_tocc_db", "fit_tocc_df", "pam", "predict",
    "PcaReducer", "ProjectionEnsemble", "VipRanking", "compute_vip",
    "fit_rp_ensemble", "kappa_vip_select", "pca_reduce", "predict_ensemble",
    "rp_select",
    "BaselineModel", "fit_baseline", "predict_baseline",
    "SCENARIOS", "SamplePair", "ScenarioSpec", "generate",
    "BenchmarkResult", "EvalReport", "Method", "RocCurve",
    "confusion_metrics", "evaluate_method", "make_method", "roc_curve",
    "run_benchmark",
    "GlassReproResult", "load_glass", "run_glass_repro",
    "ingest_csv", "load_model", "save_model",
]
