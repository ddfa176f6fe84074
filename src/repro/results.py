"""Persistence of search results.

A production HPO library must make runs inspectable after the process
exits; this module serialises :class:`~repro.bandit.SearchResult` objects
(with every trial) to plain JSON and back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from .bandit.base import SearchResult, Trial
from .engine.protocol import EvaluationResult
from .space import config_from_jsonable, config_to_jsonable

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
]


def result_to_dict(result: SearchResult) -> Dict[str, Any]:
    """Serialise a search result (including all trials) to a plain dict."""
    return {
        "method": result.method,
        "best_config": config_to_jsonable(result.best_config),
        "best_score": result.best_score,
        "wall_time": result.wall_time,
        "trials": [
            {
                "config": config_to_jsonable(trial.config),
                "budget_fraction": trial.budget_fraction,
                "iteration": trial.iteration,
                "bracket": trial.bracket,
                "result": trial.result.to_dict(),
            }
            for trial in result.trials
        ],
    }


def result_from_dict(data: Dict[str, Any]) -> SearchResult:
    """Inverse of :func:`result_to_dict`."""
    try:
        trials = [
            Trial(
                config=config_from_jsonable(raw["config"]),
                budget_fraction=raw["budget_fraction"],
                iteration=raw.get("iteration", 0),
                bracket=raw.get("bracket", 0),
                result=EvaluationResult.from_dict(raw["result"]),
            )
            for raw in data.get("trials", [])
        ]
        return SearchResult(
            best_config=config_from_jsonable(data["best_config"]),
            best_score=data["best_score"],
            trials=trials,
            wall_time=data.get("wall_time", 0.0),
            method=data.get("method", ""),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"Malformed search-result payload: {exc}") from exc


def save_result(result: SearchResult, path: Union[str, Path]) -> None:
    """Write a search result to ``path`` as JSON."""
    path = Path(path)
    with path.open("w") as handle:
        json.dump(result_to_dict(result), handle, indent=2)


def load_result(path: Union[str, Path]) -> SearchResult:
    """Read a search result previously written by :func:`save_result`."""
    path = Path(path)
    with path.open() as handle:
        return result_from_dict(json.load(handle))
