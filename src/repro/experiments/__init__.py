"""Experiment runners regenerating every table and figure of the paper."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".crossval": [
            "CV_EXPERIMENT_DATASETS", "CVVariantResult", "build_cv_evaluator", "run_cv_experiment",
        ],
        ".hpo": [
            "TABLE4_METHODS", "MethodRunStats", "format_table4_rows", "run_config_scaling",
            "run_hpo_methods",
        ],
        ".report": ["format_series", "format_table", "mean_std"],
        ".reliability": ["format_win_rate_matrix", "win_rate", "win_rate_matrix"],
        ".run_all": ["run_all"],
        ".significance": ["PairedComparison", "holm_correction", "paired_t_test", "wilcoxon_test"],
        ".trajectory": ["AnytimeCurve", "align_curves", "anytime_curve", "area_under_curve"],
        ".spaces": [
            "PAPER_HYPERPARAMETERS", "cv_experiment_space", "model_complexity_space",
            "paper_search_space", "search_space_table",
        ],
    },
)

__all__ = [
    "AnytimeCurve",
    "CV_EXPERIMENT_DATASETS",
    "CVVariantResult",
    "align_curves",
    "anytime_curve",
    "area_under_curve",
    "MethodRunStats",
    "PAPER_HYPERPARAMETERS",
    "PairedComparison",
    "holm_correction",
    "paired_t_test",
    "wilcoxon_test",
    "TABLE4_METHODS",
    "build_cv_evaluator",
    "cv_experiment_space",
    "format_series",
    "format_table",
    "format_table4_rows",
    "format_win_rate_matrix",
    "win_rate",
    "win_rate_matrix",
    "mean_std",
    "model_complexity_space",
    "paper_search_space",
    "run_all",
    "run_config_scaling",
    "run_cv_experiment",
    "run_hpo_methods",
    "search_space_table",
]
