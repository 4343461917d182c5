import dataclasses
import json
import math

import numpy as np
import pytest

from ensemble_judge.config import TrainConfig
from ensemble_judge.domain import FEATURE_DIM
from ensemble_judge.meta import (
    ConvergenceError,
    MetaModel,
    OptimizerReport,
    STANDARDIZED_POSITIONS,
    Standardizer,
    _stable_sigmoid,
    fit_logistic,
    fit_standardizer,
    logistic_loss_and_gradient,
    train_meta_model,
    tune_C,
)

TRAIN = TrainConfig()


def predict_proba(model: MetaModel, X: np.ndarray) -> np.ndarray:
    """The model's probability of the positive class: the sigmoid of its
    decision values, which no stage reads."""
    return _stable_sigmoid(model.decision_values(X))


def toy_instance(n=40, d=15, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, scale, size=(n, d))
    w_true = rng.normal(0, 1, size=d)
    y = (X @ w_true + rng.normal(0, 1, size=n) > 0).astype(int)
    if y.min() == y.max():  # ensure both classes
        y[0] = 1 - y[0]
    return X, y


# Fixture matrices often leave other standardized columns constant at zero;
# the resulting pass-through warnings are expected, not failures under test.
pytestmark = pytest.mark.filterwarnings(
    "ignore:feature column .* is constant:RuntimeWarning"
)


class TestStandardizer:
    def test_binary_column_population_std(self):
        X = np.zeros((4, FEATURE_DIM))
        X[:, 3] = [0.0, 1.0, 0.0, 1.0]
        std = fit_standardizer(X)
        assert std.means[3] == 0.5 and std.stds[3] == 0.5
        Z = std.transform(X)
        assert list(Z[:, 3]) == [-1.0, 1.0, -1.0, 1.0]

    def test_constant_column_passes_through_with_warning(self):
        X = np.zeros((3, FEATURE_DIM))
        X[:, 4] = 0.5
        with pytest.warns(RuntimeWarning, match="constant"):
            std = fit_standardizer(X)
        assert std.stds[4] == 1.0
        assert list(std.transform(X)[:, 4]) == [0.0, 0.0, 0.0]

    def test_masked_off_label_column_unchanged(self):
        X = np.zeros((3, FEATURE_DIM))
        X[:, 0] = [-1.0, 0.0, 1.0]
        std = fit_standardizer(X)
        assert list(std.transform(X)[:, 0]) == [-1.0, 0.0, 1.0]

    def test_mask_covers_confidences_and_gap_only(self):
        assert STANDARDIZED_POSITIONS == (3, 4, 5, 11)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit_standardizer(np.zeros((0, FEATURE_DIM)))

    def test_dict_round_trip(self):
        X = np.random.default_rng(1).uniform(0, 1, size=(6, FEATURE_DIM))
        std = fit_standardizer(X)
        again = Standardizer.from_dict(std.to_dict())
        assert again == std


class TestLossAndGradient:
    def test_zero_weights_gives_n_log_two(self):
        X, y = toy_instance(n=30)
        loss, _ = logistic_loss_and_gradient(np.zeros(15), 0.0, X, y, C=1.0)
        assert loss == pytest.approx(30 * math.log(2), rel=1e-12)

    def test_gradient_matches_central_differences(self):
        # Oracle: central finite differences of the loss, 20 random 10x15
        # instances, relative error <= 1e-5.
        rng = np.random.default_rng(123)
        for trial in range(20):
            X = rng.normal(0, 1, size=(10, 15))
            y = rng.integers(0, 2, size=10)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            w = rng.normal(0, 0.5, size=15)
            b = float(rng.normal(0, 0.5))
            C = float(rng.uniform(0.05, 50))
            _, grad = logistic_loss_and_gradient(w, b, X, y, C)
            eps = 1e-6
            numeric = np.empty(16)
            for j in range(16):
                def at(delta, j=j):
                    wj = w.copy()
                    bj = b
                    if j < 15:
                        wj[j] += delta
                    else:
                        bj += delta
                    loss, _ = logistic_loss_and_gradient(wj, bj, X, y, C)
                    return loss
                numeric[j] = (at(eps) - at(-eps)) / (2 * eps)
            denom = np.maximum(np.abs(numeric), 1e-8)
            rel = np.max(np.abs(grad - numeric) / denom)
            assert rel <= 1e-5, f"trial {trial}: rel error {rel}"

    def test_doubling_c_halves_penalty_exactly(self):
        X, y = toy_instance(n=20)
        w = np.random.default_rng(5).normal(0, 1, size=15)
        data_loss, _ = logistic_loss_and_gradient(w, 0.3, X, y, C=math.inf)
        loss_1, _ = logistic_loss_and_gradient(w, 0.3, X, y, C=1.0)
        loss_2, _ = logistic_loss_and_gradient(w, 0.3, X, y, C=2.0)
        assert loss_1 - data_loss == 2 * (loss_2 - data_loss)

    def test_extreme_margins_do_not_overflow(self):
        X = np.array([[1000.0], [-1000.0]])
        y = np.array([0, 1])
        loss, grad = logistic_loss_and_gradient(np.array([5.0]), 0.0, X, y, C=1.0)
        assert math.isfinite(loss) and np.all(np.isfinite(grad))


class TestFitLogistic:
    def test_symmetric_separable_toy_boundary_at_zero(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        w, b, report = fit_logistic(X, y, C=1.0, tol=TRAIN.tol, max_iter=TRAIN.max_iter)
        proba = 1.0 / (1.0 + math.exp(-(0.0 * w[0] + b)))
        assert proba == pytest.approx(0.5, abs=1e-9)
        assert report.final_gradient_norm <= report.tolerance

    def test_stopping_contract(self):
        X, y = toy_instance(n=60, seed=9)
        _, _, report = fit_logistic(X, y, C=10.0, tol=1e-8, max_iter=TRAIN.max_iter)
        assert report.final_gradient_norm <= 1e-8

    def test_refit_is_bitwise_identical(self):
        X, y = toy_instance(n=80, seed=11)
        w1, b1, _ = fit_logistic(X, y, C=1.0, tol=TRAIN.tol, max_iter=TRAIN.max_iter)
        w2, b2, _ = fit_logistic(X, y, C=1.0, tol=TRAIN.tol, max_iter=TRAIN.max_iter)
        assert w1.tobytes() == w2.tobytes() and b1 == b2

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ValueError, match="both classes"):
            fit_logistic(X, np.ones(10, dtype=int), C=1.0, tol=TRAIN.tol, max_iter=TRAIN.max_iter)

    def test_non_convergence_carries_report(self):
        X, y = toy_instance(n=40, seed=2)
        with pytest.raises(ConvergenceError) as exc:
            fit_logistic(X, y, C=1.0, max_iter=0, tol=TRAIN.tol)
        assert exc.value.report.iterations == 0

    def test_loss_matches_refined_grid_oracle(self):
        # Symmetric two-feature instance: for every (x, y=1) there is a
        # (-x, y=0), so the optimal intercept is 0 and a 2-D grid over the
        # weights brackets the optimum.
        rng = np.random.default_rng(21)
        half = rng.normal(0, 1, size=(12, 2))
        X = np.vstack([half, -half])
        y = np.concatenate([np.ones(12, dtype=int), np.zeros(12, dtype=int)])
        C = 2.0
        w, b, _ = fit_logistic(X, y, C=C, tol=TRAIN.tol, max_iter=TRAIN.max_iter)
        assert abs(b) < 1e-6
        loss_fit, _ = logistic_loss_and_gradient(w, b, X, y, C)

        center = np.zeros(2)
        width = 4.0
        best = math.inf
        for _ in range(6):  # iterative refinement: 41^2 cells per stage
            grid = np.linspace(-width, width, 41)
            for w1 in center[0] + grid:
                for w2 in center[1] + grid:
                    loss, _ = logistic_loss_and_gradient(np.array([w1, w2]), 0.0, X, y, C)
                    if loss < best:
                        best = loss
                        best_w = (w1, w2)
            center = np.array(best_w)
            width = width / 10
        assert loss_fit <= best + 1e-12
        assert best - loss_fit <= 1e-8

    def test_convexity_along_random_chords(self):
        X, y = toy_instance(n=50, seed=33)
        rng = np.random.default_rng(44)
        for _ in range(5):
            theta_a = rng.normal(0, 1, size=16)
            theta_b = rng.normal(0, 1, size=16)
            loss_a, _ = logistic_loss_and_gradient(theta_a[:15], theta_a[15], X, y, 1.0)
            loss_b, _ = logistic_loss_and_gradient(theta_b[:15], theta_b[15], X, y, 1.0)
            for t in np.linspace(0.05, 0.95, 10):
                mid = (1 - t) * theta_a + t * theta_b
                loss_mid, _ = logistic_loss_and_gradient(mid[:15], mid[15], X, y, 1.0)
                assert loss_mid <= (1 - t) * loss_a + t * loss_b + 1e-9


class TestPredict:
    def _zero_model(self):
        dim = FEATURE_DIM
        return MetaModel(
            weights=(0.0,) * dim,
            intercept=0.0,
            inverse_reg_strength=1.0,
            standardizer=Standardizer(means=(0.0,) * dim, stds=(1.0,) * dim),
            optimizer_report=OptimizerReport(iterations=0, final_gradient_norm=0.0, tolerance=1e-8),
            prompt_hash_digest="",
            n_outputs=0,
        )

    def _row(self, confidence=0.5):
        """A one-row feature matrix."""
        values = [1.0, 1.0, 1.0, confidence, 0.5, 0.5, 1.0, 3.0, 0.0, 0.0, 3.0, 0.0, 1.0, 0.0, 0.0]
        return np.array([values])

    def test_zero_model_gives_half(self):
        model = self._zero_model()
        assert predict_proba(model, self._row())[0] == 0.5

    def test_boundary_goes_positive(self):
        assert self._zero_model().predict_batch(self._row())[0] == 1

    def test_a_tiny_negative_decision_value_goes_negative(self):
        """The sigmoid of -2e-17 rounds to exactly 0.5, but the rule is on the
        decision value, the one ``tune_C`` scores dev with."""
        model = dataclasses.replace(self._zero_model(), intercept=-2e-17)
        assert model.decision_values(self._row())[0] == -2e-17
        assert predict_proba(model, self._row())[0] == 0.5
        assert model.predict_batch(self._row())[0] == 0

    def test_monotone_in_positive_weight(self):
        model = self._zero_model()
        model = MetaModel(
            weights=tuple(1.0 if i == 3 else 0.0 for i in range(FEATURE_DIM)),
            intercept=0.0,
            inverse_reg_strength=1.0,
            standardizer=model.standardizer,
            optimizer_report=model.optimizer_report,
            prompt_hash_digest="",
            n_outputs=0,
        )
        high, low = (predict_proba(model, self._row(c))[0] for c in (0.9, 0.2))
        assert high > low

    def test_probability_strictly_inside_unit_interval(self):
        model = self._zero_model()
        strong = MetaModel(
            weights=(2.0,) * FEATURE_DIM,
            intercept=1.0,
            inverse_reg_strength=1.0,
            standardizer=model.standardizer,
            optimizer_report=model.optimizer_report,
            prompt_hash_digest="",
            n_outputs=0,
        )
        for sign in (1.0, -1.0):
            flipped = MetaModel(
                weights=tuple(sign * w for w in strong.weights),
                intercept=sign * strong.intercept,
                inverse_reg_strength=1.0,
                standardizer=model.standardizer,
                optimizer_report=model.optimizer_report,
                prompt_hash_digest="",
                n_outputs=0,
            )
            p = predict_proba(flipped, self._row())[0]
            assert 0.0 < p < 1.0

    def test_standardization_round_trip_changes_nothing(self):
        X, y = toy_instance(n=60, d=FEATURE_DIM, seed=3)
        for col in STANDARDIZED_POSITIONS:
            X[:, col] = np.abs(X[:, col])
        std = fit_standardizer(X)
        Z = std.transform(X)
        w, b, report = fit_logistic(Z, y, C=1.0, tol=TRAIN.tol, max_iter=TRAIN.max_iter)
        with_std = MetaModel(
            weights=tuple(w),
            intercept=b,
            inverse_reg_strength=1.0,
            standardizer=std,
            optimizer_report=report,
            prompt_hash_digest="",
            n_outputs=0,
        )
        identity = Standardizer(means=(0.0,) * FEATURE_DIM, stds=(1.0,) * FEATURE_DIM)
        without_std = MetaModel(
            weights=tuple(w),
            intercept=b,
            inverse_reg_strength=1.0,
            standardizer=identity,
            optimizer_report=report,
            prompt_hash_digest="",
            n_outputs=0,
        )
        p_direct = predict_proba(without_std, Z)
        p_via_std = predict_proba(with_std, X)
        assert np.max(np.abs(p_direct - p_via_std)) < 1e-12


class TestTuneC:
    def test_single_value_grid(self):
        X, y = toy_instance(n=40, seed=5)
        best, scores, _ = tune_C((X, y), (X, y), [0.5], TRAIN.tol, TRAIN.max_iter)
        assert best == 0.5 and set(scores) == {0.5}

    def test_exact_tie_prefers_smaller_c(self):
        # Perfectly separable instance: every C classifies dev identically.
        X = np.array([[-2.0], [-1.5], [1.5], [2.0]])
        y = np.array([0, 0, 1, 1])
        best, scores, _ = tune_C((X, y), (X, y), [10.0, 0.1, 1.0], TRAIN.tol, TRAIN.max_iter)
        assert len(set(scores.values())) == 1
        assert best == 0.1

    def test_fit_errors_propagate(self):
        X = np.ones((4, 2))
        with pytest.raises(ValueError):
            tune_C(
                (X, np.ones(4, dtype=int)), (X, np.ones(4, dtype=int)), [1.0], TRAIN.tol, TRAIN.max_iter
            )


class TestMetaModelFile:
    def test_save_load_round_trip(self, tmp_path):
        X, y = toy_instance(n=50, d=FEATURE_DIM, seed=8)
        model, _ = train_meta_model(
            (X, y), (X, y), [0.1, 1.0], TRAIN.tol, TRAIN.max_iter, prompt_hash_digest="ab", n_outputs=150
        )
        path = tmp_path / "model.json"
        model.save(path)
        loaded = MetaModel.load(path)
        assert loaded == model

    @pytest.mark.parametrize(
        "key, value", [("prompt_hash_digest", 5), ("prompt_hash_digest", None), ("n_outputs", 1.0)]
    )
    def test_digest_and_output_count_types_checked(self, tmp_path, key, value):
        X, y = toy_instance(n=50, d=FEATURE_DIM, seed=8)
        model, _ = train_meta_model(
            (X, y), (X, y), [1.0], TRAIN.tol, TRAIN.max_iter, prompt_hash_digest="ab", n_outputs=150
        )
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=key):
            MetaModel.load(path)

    def test_unconverged_report_rejected(self):
        with pytest.raises(ValueError, match="unconverged"):
            MetaModel(
                weights=(0.0,) * FEATURE_DIM,
                intercept=0.0,
                inverse_reg_strength=1.0,
                standardizer=Standardizer(means=(0.0,) * FEATURE_DIM, stds=(1.0,) * FEATURE_DIM),
                optimizer_report=OptimizerReport(
                    iterations=5, final_gradient_norm=1.0, tolerance=1e-8
                ),
                prompt_hash_digest="",
                n_outputs=0,
            )
