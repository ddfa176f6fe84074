"""From-scratch learner substrate (scikit-learn equivalents).

Provides the estimators the paper's experiments train: a numpy MLP
classifier / regressor covering the full Table III hyperparameter space,
plus the preprocessing helpers they depend on.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".activations": ["ACTIVATIONS", "get_activation", "logistic", "relu", "softmax", "tanh"],
        ".base": ["BaseEstimator", "check_array", "check_X_y", "clone"],
        ".batched": [
            "BatchedFitStats", "MegaBatchStats", "batchable_model", "fit_mlp_folds",
            "fit_mlp_trials",
        ],
        ".forest": ["RandomForestClassifier", "RandomForestRegressor"],
        ".linear": ["LogisticRegression", "Ridge"],
        ".losses": ["binary_log_loss", "log_loss", "squared_loss"],
        ".mlp": [
            "MLPClassifier", "MLPRegressor", "resolve_initial_parameters", "warm_start_matches",
        ],
        ".preprocessing": ["LabelEncoder", "StandardScaler", "one_hot"],
        ".solvers": ["AdamOptimizer", "SGDOptimizer", "make_optimizer"],
        ".tree": ["DecisionTreeClassifier", "DecisionTreeRegressor"],
    },
)

__all__ = [
    "ACTIVATIONS",
    "AdamOptimizer",
    "BaseEstimator",
    "BatchedFitStats",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "LabelEncoder",
    "LogisticRegression",
    "MLPClassifier",
    "MLPRegressor",
    "MegaBatchStats",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "Ridge",
    "SGDOptimizer",
    "StandardScaler",
    "batchable_model",
    "binary_log_loss",
    "check_X_y",
    "check_array",
    "clone",
    "fit_mlp_folds",
    "fit_mlp_trials",
    "get_activation",
    "log_loss",
    "logistic",
    "make_optimizer",
    "one_hot",
    "relu",
    "resolve_initial_parameters",
    "softmax",
    "squared_loss",
    "tanh",
    "warm_start_matches",
]
