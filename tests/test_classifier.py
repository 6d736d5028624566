import tracemalloc

import numpy as np
import pytest

from rovercv.classifier import (
    model_from_dict,
    model_to_dict,
    svm_objective,
    svm_predict,
    svm_score,
    svm_train,
)


def separable_blobs(seed=0, n=200, margin=2.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    pos = rng.normal(0, 0.5, (half, 2)) + (margin / 2 + 1.0, 0.0)
    neg = rng.normal(0, 0.5, (half, 2)) - (margin / 2 + 1.0, 0.0)
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(half), -np.ones(half)])
    return X, y


class TestTraining:
    def test_separable_blobs_fully_learned(self):
        X, y = separable_blobs()
        model = svm_train(X, y, seed=7)
        preds = np.array([svm_predict(model, x) for x in X])
        assert (preds == y).all()

    def test_same_seed_bit_identical(self):
        X, y = separable_blobs(seed=1)
        a = svm_train(X, y, seed=5)
        b = svm_train(X, y, seed=5)
        assert (a.weights == b.weights).all()
        assert a.bias == b.bias

    def test_different_seed_differs(self):
        X, y = separable_blobs(seed=1)
        a = svm_train(X, y, seed=5)
        b = svm_train(X, y, seed=6)
        assert not (a.weights == b.weights).all()

    def test_single_class_rejected(self):
        X, _ = separable_blobs()
        with pytest.raises(ValueError, match="single-class"):
            svm_train(X, np.ones(len(X)))

    @pytest.mark.parametrize("edit, message", [
        (lambda X, y: (X, y * 2), "labels must be 0/1 or -1/+1"),
        (lambda X, y: (X, np.where(y > 0, 1, 2)), "labels must be 0/1 or -1/+1"),
        (lambda X, y: (X[0], y), "training rows must form a 2-D array"),
        (lambda X, y: (X[:, :, None], y), "training rows must form a 2-D array"),
        (lambda X, y: (X, y[:-1]), "row/label count mismatch"),
    ])
    def test_malformed_training_set_rejected(self, edit, message):
        with pytest.raises(ValueError) as exc:
            svm_train(*edit(*separable_blobs()))
        assert str(exc.value) == message

    def test_non_finite_rows_rejected(self):
        X, y = separable_blobs()
        X[[4, 17], [1, 0]] = [np.nan, -np.inf]
        with pytest.raises(ValueError, match=r"non-finite feature values in training rows "
                                             r"\[4, 17\]"):
            svm_train(X, y)

    def test_standardizes_without_copying_its_rows(self):
        # the rows of a 120-patch training set; their standardized copy is the
        # one array as large as them that training needs
        X = np.random.default_rng(3).standard_normal((120, 4932))
        y = np.arange(120) % 2
        tracemalloc.start()
        try:
            svm_train(X, y, epochs=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * X.nbytes, f"{peak / 1e6:.2f} MB for {X.nbytes / 1e6:.2f} MB of rows"

    def test_zero_one_labels_accepted(self):
        X, y = separable_blobs(seed=2)
        model = svm_train(X, (y > 0).astype(int), seed=3)
        assert svm_predict(model, X[0]) == 1

    def test_objective_non_increasing_after_first_epoch(self):
        X, y = separable_blobs(seed=3)
        model = svm_train(X, y, seed=11)
        hist = model.objective_history
        assert all(b <= a + 1e-3 for a, b in zip(hist[1:], hist[2:]))
        initial = svm_objective(np.zeros(X.shape[1]), 0.0,
                                (X - X.mean(0)) / np.where(X.std(0) == 0, 1, X.std(0)),
                                y, model.lambda_)
        assert hist[-1] <= initial


class TestScoring:
    def test_score_at_mean_is_bias(self):
        X, y = separable_blobs(seed=4)
        model = svm_train(X, y, seed=9)
        assert svm_score(model, model.feat_mean) == pytest.approx(model.bias, abs=1e-12)

    def test_high_margin_points_classified(self):
        X, y = separable_blobs(seed=5)
        model = svm_train(X, y, seed=9)
        scores = np.array([svm_score(model, x) for x in X])
        confident = np.abs(scores) > 1.0
        assert confident.any()
        assert (np.sign(scores[confident]) == y[confident]).all()

    def test_dimension_mismatch(self):
        X, y = separable_blobs(seed=6)
        model = svm_train(X, y, seed=9)
        with pytest.raises(ValueError, match="dimension"):
            svm_score(model, np.zeros(5))

    def test_power_of_two_feature_scaling_absorbed(self):
        # scaling every feature by 4 is exact in floats, so the standardized
        # training run is bit-identical and predictions cannot change
        X, y = separable_blobs(seed=7)
        a = svm_train(X, y, seed=13)
        b = svm_train(X * 4.0, y, seed=13)
        assert (a.weights == b.weights).all() and a.bias == b.bias
        for x in X[:20]:
            assert svm_predict(a, x) == svm_predict(b, x * 4.0)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        X, y = separable_blobs(seed=8)
        model = svm_train(X, y, seed=21, feature_layout={"hog": (0, 2)})
        import json

        again = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert (again.weights == model.weights).all()
        assert again.bias == model.bias
        assert (again.feat_mean == model.feat_mean).all()
        assert (again.feat_std == model.feat_std).all()
        assert (again.lambda_, again.epochs, again.seed) == (model.lambda_, model.epochs, model.seed)
