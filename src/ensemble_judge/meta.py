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
import math
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
DEFAULT_GRID: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 1000


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

    Masked-off columns carry mean 0 / std 1, so applying the transform is a
    uniform vectorized expression and those positions pass through unchanged.
    """

    means: tuple[float, ...]
    stds: tuple[float, ...]
    mask: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not len(self.means) == len(self.stds) == len(self.mask):
            raise ValueError("means, stds, and mask must have equal length")
        for i, (std, masked) in enumerate(zip(self.stds, self.mask)):
            if masked and std <= 0:
                raise ValueError(f"standardized column {i} has non-positive std {std}")

    def transform(self, X: np.ndarray) -> np.ndarray:
        means = np.asarray(self.means, dtype=np.float64)
        stds = np.asarray(self.stds, dtype=np.float64)
        return (np.asarray(X, dtype=np.float64) - means) / stds

    def to_dict(self) -> dict:
        return {"means": list(self.means), "stds": list(self.stds), "mask": list(self.mask)}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        return cls(
            means=_feature_numbers(d, "means"),
            stds=_feature_numbers(d, "stds"),
            mask=tuple(d["mask"]),
        )


def _feature_numbers(d: dict, key: str) -> tuple[float, ...]:
    """``d[key]`` as one finite number per feature position; else ``ValueError``."""
    try:
        numbers = finite_numbers(d[key])
        if len(numbers) != FEATURE_DIM:
            raise ValueError(f"expected {FEATURE_DIM} numbers, got {len(numbers)}")
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    return numbers


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
    dim = X.shape[1]
    mask = tuple(i in STANDARDIZED_POSITIONS for i in range(dim))

    means = np.zeros(dim)
    stds = np.ones(dim)
    for i in range(dim):
        if not mask[i]:
            continue
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
    return Standardizer(means=tuple(means), stds=tuple(stds), mask=mask)


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


def _loss_only(w: np.ndarray, b: float, X: np.ndarray, signs: np.ndarray, C: float) -> float:
    margins = signs * (X @ w + b)
    return 0.5 / C * float(w @ w) + float(np.logaddexp(0.0, -margins).sum())


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
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
                if _loss_only(cand_w, cand_b, X, signs, C) <= loss + 1e-4 * t * slope:
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
    prompt_hash_digest: str = ""
    n_outputs: int = 0

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
        ``ValueError`` for a weight, statistic, intercept or C that is not a
        finite JSON number (``NaN``, ``Infinity``, a string, a boolean)."""
        d = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
        rep = d["optimizer_report"]
        return cls(
            weights=_feature_numbers(d, "weights"),
            intercept=finite_number(d["intercept"]),
            inverse_reg_strength=finite_number(d["inverse_reg_strength"]),
            standardizer=Standardizer.from_dict(d["standardizer"]),
            optimizer_report=OptimizerReport(
                iterations=int(rep["iterations"]),
                final_gradient_norm=float(rep["final_gradient_norm"]),
                tolerance=float(rep["tolerance"]),
            ),
            prompt_hash_digest=d["prompt_hash_digest"],
            n_outputs=int(d["n_outputs"]),
        )


def tune_C(
    train: tuple[np.ndarray, np.ndarray],
    dev: tuple[np.ndarray, np.ndarray],
    grid: Sequence[float] = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, dict[float, float]]:
    """Pick the inverse regularization strength by dev balanced accuracy.

    Exact score ties resolve to the smallest C (strongest regularization).
    Expects already-standardized feature matrices.
    """
    if not grid:
        raise ValueError("grid must be non-empty")
    X_train, y_train = train
    X_dev, y_dev = dev
    scores: dict[float, float] = {}
    best_C: float | None = None
    best_score = -math.inf
    for C in sorted(grid):
        w, b, _ = fit_logistic(X_train, y_train, C, tol=tol, max_iter=max_iter)
        margins = np.asarray(X_dev, dtype=np.float64) @ w + b
        preds = (margins >= 0).astype(int)
        score = metrics(ConfusionMatrix.from_arrays(np.asarray(y_dev), preds)).balanced_accuracy
        scores[C] = score
        if score > best_score:
            best_score = score
            best_C = C
    assert best_C is not None
    return best_C, scores


def train_meta_model(
    train: tuple[np.ndarray, np.ndarray],
    dev: tuple[np.ndarray, np.ndarray],
    grid: Sequence[float] = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    prompt_hash_digest: str = "",
    n_outputs: int = 0,
) -> tuple[MetaModel, dict[float, float]]:
    """Standardize on training statistics, tune C on dev, fit the final model."""
    X_train, y_train = train
    X_dev, y_dev = dev
    standardizer = fit_standardizer(X_train)
    Zt = standardizer.transform(X_train)
    Zd = standardizer.transform(X_dev)
    best_C, scores = tune_C((Zt, y_train), (Zd, y_dev), grid=grid, tol=tol, max_iter=max_iter)
    w, b, report = fit_logistic(Zt, y_train, best_C, tol=tol, max_iter=max_iter)
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
