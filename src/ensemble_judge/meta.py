"""The trained aggregator: standardization + L2 logistic regression.

The loss is (1/(2C)) * ||w||^2 + sum_i log(1 + exp(-margin_i)) with
margin_i = (2 y_i - 1) (w . x_i + b); the intercept is unpenalized. The
objective is strictly convex and coercive whenever both classes are present,
so the optimum is unique; a damped Newton iteration from zero initialization
finds it deterministically, stopping when the gradient infinity-norm drops
below the tolerance.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import finite_number, finite_numbers, write_text
from .domain import FEAT_CONFS, FEAT_GAP, FEATURE_DIM
from .evaluation import ConfusionMatrix, metrics

# Continuous features (the three confidences and the confidence gap) are the
# only standardized positions; labels, counts, and indicators stay raw.
STANDARDIZED_POSITIONS: tuple[int, ...] = FEAT_CONFS + (FEAT_GAP,)
_MASK = tuple(i in STANDARDIZED_POSITIONS for i in range(FEATURE_DIM))


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, report: "OptimizerReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class OptimizerReport:
    iterations: int
    final_gradient_norm: float
    tolerance: float


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine transform fitted on training rows only.

    Only ``STANDARDIZED_POSITIONS`` are fitted; the other columns carry
    mean 0 / std 1, so applying the transform is a uniform vectorized
    expression and those positions pass through unchanged.
    """

    means: tuple[float, ...]
    stds: tuple[float, ...]

    def __post_init__(self) -> None:
        if not len(self.means) == len(self.stds) == FEATURE_DIM:
            raise ValueError(f"means and stds must hold {FEATURE_DIM} numbers each")
        for i, (std, masked) in enumerate(zip(self.stds, _MASK)):
            if masked and std <= 0:
                raise ValueError(f"standardized column {i} has non-positive std {std}")

    def transform(self, X: np.ndarray) -> np.ndarray:
        means = np.asarray(self.means, dtype=np.float64)
        stds = np.asarray(self.stds, dtype=np.float64)
        return (np.asarray(X, dtype=np.float64) - means) / stds

    def to_dict(self) -> dict:
        return {"means": list(self.means), "stds": list(self.stds), "mask": list(_MASK)}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        """A saved standardizer, which must standardize exactly
        ``STANDARDIZED_POSITIONS`` and pass every other column through."""
        mask = d["mask"]
        if not (
            isinstance(mask, list)
            and all(type(masked) is bool for masked in mask)
            and tuple(mask) == _MASK
        ):
            raise ValueError(
                f"mask: expected {FEATURE_DIM} booleans marking positions "
                f"{STANDARDIZED_POSITIONS}, got {mask!r}"
            )
        means, stds = _feature_numbers(d, "means"), _feature_numbers(d, "stds")
        for i, (mean, std, masked) in enumerate(zip(means, stds, _MASK)):
            if not masked and (mean, std) != (0.0, 1.0):
                raise ValueError(f"column {i} is not standardized but has mean {mean}, std {std}")
        return cls(means=means, stds=stds)


def _feature_numbers(d: dict, key: str) -> tuple[float, ...]:
    """``d[key]`` as one finite number per feature position; else ``ValueError``."""
    try:
        numbers = finite_numbers(d[key])
        if len(numbers) != FEATURE_DIM:
            raise ValueError(f"expected {FEATURE_DIM} numbers, got {len(numbers)}")
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    return numbers


def _json_int(d: dict, key: str) -> int:
    """``d[key]``, which must be a JSON integer (not a boolean); else ``ValueError``."""
    if type(d[key]) is not int:
        raise ValueError(f"{key} must be an integer, got {d[key]!r}")
    return d[key]


def _json_str(d: dict, key: str) -> str:
    """``d[key]``, which must be a JSON string; else ``ValueError``."""
    if not isinstance(d[key], str):
        raise ValueError(f"{key} must be a string, got {d[key]!r}")
    return d[key]


def _reject_constant(name: str) -> float:
    """``json.loads`` hook for the ``NaN`` and ``Infinity`` tokens, which JSON lacks."""
    raise ValueError(f"non-finite number {name}")


def fit_standardizer(train_features: np.ndarray) -> Standardizer:
    """Training-split means and population stds of the standardized columns.

    A constant standardized column would divide by zero; its std is replaced
    by 1 (so it standardizes to all zeros) with a warning.
    """
    X = np.asarray(train_features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training feature matrix must be non-empty and 2-D")
    means = np.zeros(X.shape[1])
    stds = np.ones(X.shape[1])
    for i in STANDARDIZED_POSITIONS:
        means[i] = X[:, i].mean()
        std = X[:, i].std()  # population std
        if std == 0.0:
            warnings.warn(
                f"feature column {i} is constant on the training split; leaving it unscaled",
                RuntimeWarning,
                stacklevel=2,
            )
            std = 1.0
        stds[i] = std
    return Standardizer(means=tuple(means), stds=tuple(stds))


def _stable_sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    exp_t = np.exp(t[~pos])
    out[~pos] = exp_t / (1.0 + exp_t)
    return out


def logistic_loss_and_gradient(
    weights: np.ndarray,
    intercept: float,
    X: np.ndarray,
    y: np.ndarray,
    C: float,
) -> tuple[float, np.ndarray]:
    """Penalized negative log-likelihood and its exact gradient.

    Returns the loss and a (d+1)-vector: d weight components followed by the
    intercept component. The log terms go through logaddexp, so extreme
    margins cannot overflow.
    """
    w = np.asarray(weights, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    signs = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    margins = signs * (X @ w + intercept)
    loss = 0.5 / C * float(w @ w) + float(np.logaddexp(0.0, -margins).sum())
    coef = -signs * _stable_sigmoid(-margins)
    grad_w = X.T @ coef + w / C
    grad_b = float(coef.sum())
    return loss, np.concatenate([grad_w, [grad_b]])


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, OptimizerReport]:
    """Damped Newton minimization from zero initialization.

    Deterministic: identical inputs give bitwise-identical weights. Raises
    :class:`ConvergenceError` if the gradient infinity-norm has not reached
    ``tol`` within ``max_iter`` Newton steps, and ``ValueError`` when only
    one class is present (the optimum would run off to infinity).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X and y shapes disagree")
    classes = set(np.unique(y).tolist())
    if classes != {0, 1}:
        raise ValueError(f"need both classes 0 and 1 in y, got {sorted(classes)}")
    if not C > 0:
        raise ValueError("C must be positive")

    n, d = X.shape
    signs = 2.0 * y.astype(np.float64) - 1.0
    w = np.zeros(d)
    b = 0.0
    penalty_diag = np.concatenate([np.full(d, 1.0 / C), [0.0]])
    X_aug = np.hstack([X, np.ones((n, 1))])

    loss, grad = logistic_loss_and_gradient(w, b, X, y, C)
    iterations = 0
    for _ in range(max_iter):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= tol:
            return w, b, OptimizerReport(iterations, gnorm, tol)

        margins = signs * (X @ w + b)
        sig = _stable_sigmoid(margins)
        curv = sig * (1.0 - sig)
        hessian = (X_aug * curv[:, None]).T @ X_aug + np.diag(penalty_diag)
        try:
            step = np.linalg.solve(hessian, -grad)
        except np.linalg.LinAlgError:
            step = -grad

        # Backtracking line search (Armijo) keeps the damped iteration
        # globally convergent on this convex objective. Once the predicted
        # decrease falls below the loss's floating-point resolution the test
        # is pure noise, so the full Newton step is taken as-is; the gradient
        # (computed directly, not by differencing) still shrinks quadratically.
        slope = float(grad @ step)
        t = 1.0
        if -slope > 1e-9 * (1.0 + abs(loss)):
            for _ in range(60):
                cand_w = w + t * step[:d]
                cand_b = b + t * step[d]
                cand_loss = logistic_loss_and_gradient(cand_w, cand_b, X, y, C)[0]
                if cand_loss <= loss + 1e-4 * t * slope:
                    break
                t *= 0.5
        w = w + t * step[:d]
        b = b + t * step[d]
        iterations += 1
        loss, grad = logistic_loss_and_gradient(w, b, X, y, C)

    gnorm = float(np.max(np.abs(grad)))
    report = OptimizerReport(iterations, gnorm, tol)
    if gnorm <= tol:
        return w, b, report
    raise ConvergenceError(
        f"gradient norm {gnorm:.3e} above tolerance {tol:.1e} after {iterations} iterations",
        report,
    )


@dataclass(frozen=True)
class MetaModel:
    """Fitted aggregator: standardizer statistics plus logistic weights."""

    weights: tuple[float, ...]
    intercept: float
    inverse_reg_strength: float
    standardizer: Standardizer
    optimizer_report: OptimizerReport
    # Digest over the prompt hashes of the cached outputs the model was
    # trained on; a prompt or decoding change makes a stale model obvious.
    prompt_hash_digest: str
    n_outputs: int

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.standardizer.means):
            raise ValueError("weight vector and standardizer dimension disagree")
        if self.optimizer_report.final_gradient_norm > self.optimizer_report.tolerance:
            raise ValueError("optimizer report shows an unconverged fit")

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        Z = self.standardizer.transform(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        return Z @ np.asarray(self.weights) + self.intercept

    def predict_proba_batch(self, X: np.ndarray) -> np.ndarray:
        return _stable_sigmoid(self.decision_values(X))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        # Probability exactly 0.5 goes to the positive class.
        return (self.predict_proba_batch(X) >= 0.5).astype(int)

    def save(self, path: str | Path) -> None:
        payload = {
            "weights": list(self.weights),
            "intercept": self.intercept,
            "inverse_reg_strength": self.inverse_reg_strength,
            "standardizer": self.standardizer.to_dict(),
            "optimizer_report": {
                "iterations": self.optimizer_report.iterations,
                "final_gradient_norm": self.optimizer_report.final_gradient_norm,
                "tolerance": self.optimizer_report.tolerance,
            },
            "prompt_hash_digest": self.prompt_hash_digest,
            "n_outputs": self.n_outputs,
        }
        write_text(path, [json.dumps(payload, indent=2) + "\n"])

    @classmethod
    def load(cls, path: str | Path) -> "MetaModel":
        """The model in ``path``; raises ``KeyError`` for a missing key and
        ``ValueError`` for a weight, statistic, intercept, C, gradient norm or
        tolerance that is not a finite JSON number (``NaN``, ``Infinity``, a
        string, a boolean), an iteration or output count that is not a JSON
        integer, or a prompt digest that is not a string."""
        d = json.loads(Path(path).read_bytes().decode("utf-8"), parse_constant=_reject_constant)
        rep = d["optimizer_report"]
        return cls(
            weights=_feature_numbers(d, "weights"),
            intercept=finite_number(d["intercept"]),
            inverse_reg_strength=finite_number(d["inverse_reg_strength"]),
            standardizer=Standardizer.from_dict(d["standardizer"]),
            optimizer_report=OptimizerReport(
                iterations=_json_int(rep, "iterations"),
                final_gradient_norm=finite_number(rep["final_gradient_norm"]),
                tolerance=finite_number(rep["tolerance"]),
            ),
            prompt_hash_digest=_json_str(d, "prompt_hash_digest"),
            n_outputs=_json_int(d, "n_outputs"),
        )


def tune_C(
    train: tuple[np.ndarray, np.ndarray],
    dev: tuple[np.ndarray, np.ndarray],
    grid: Sequence[float],
    tol: float,
    max_iter: int,
) -> tuple[float, dict[float, float], tuple[np.ndarray, float, OptimizerReport]]:
    """Pick the inverse regularization strength by dev balanced accuracy.

    Returns the chosen C, the dev score of each C, and the chosen C's fit
    (weights, intercept, optimizer report). Exact score ties resolve to the
    smallest C (strongest regularization). Expects already-standardized
    feature matrices.
    """
    if not grid:
        raise ValueError("grid must be non-empty")
    X_train, y_train = train
    X_dev, y_dev = dev
    scores: dict[float, float] = {}
    fits: dict[float, tuple[np.ndarray, float, OptimizerReport]] = {}
    for C in sorted(grid):
        fits[C] = fit_logistic(X_train, y_train, C, tol, max_iter)
        w, b, _ = fits[C]
        margins = np.asarray(X_dev, dtype=np.float64) @ w + b
        preds = (margins >= 0).astype(int)
        scores[C] = metrics(ConfusionMatrix.from_arrays(np.asarray(y_dev), preds)).balanced_accuracy
    best_C = max(scores, key=scores.__getitem__)  # the first, so the smallest, of tied Cs
    return best_C, scores, fits[best_C]


def train_meta_model(
    train: tuple[np.ndarray, np.ndarray],
    dev: tuple[np.ndarray, np.ndarray],
    grid: Sequence[float],
    tol: float,
    max_iter: int,
    prompt_hash_digest: str,
    n_outputs: int,
) -> tuple[MetaModel, dict[float, float]]:
    """Standardize on training statistics, tune C on dev, keep the chosen C's fit."""
    X_train, y_train = train
    X_dev, y_dev = dev
    standardizer = fit_standardizer(X_train)
    Zt = standardizer.transform(X_train)
    Zd = standardizer.transform(X_dev)
    best_C, scores, (w, b, report) = tune_C((Zt, y_train), (Zd, y_dev), grid, tol, max_iter)
    model = MetaModel(
        weights=tuple(float(v) for v in w),
        intercept=float(b),
        inverse_reg_strength=best_C,
        standardizer=standardizer,
        optimizer_report=report,
        prompt_hash_digest=prompt_hash_digest,
        n_outputs=n_outputs,
    )
    return model, scores
