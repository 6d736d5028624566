"""Linear SVM (hinge loss, L2 penalty) trained by seeded stochastic subgradient
descent with the 1/(lambda*t) step schedule. Features are standardized inside
the model so descriptor spans with wildly different scales coexist.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    feat_mean: np.ndarray
    feat_std: np.ndarray
    lambda_: float
    epochs: int
    seed: int
    feature_layout: dict | None = None
    objective_history: list = field(default_factory=list, repr=False)


def svm_objective(w: np.ndarray, b: float, Z: np.ndarray, y: np.ndarray, lambda_: float) -> float:
    margins = y * (Z @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(0.5 * lambda_ * (w @ w) + hinge.mean())


def _as_signs(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64).ravel()
    vals = set(np.unique(y).tolist())
    if vals <= {0.0, 1.0}:
        y = np.where(y > 0, 1.0, -1.0)
    elif not vals <= {-1.0, 1.0}:
        raise ValueError("labels must be 0/1 or -1/+1")
    return y


def svm_train(X, y, lambda_: float = 1e-4, epochs: int = 30, seed: int = 42,
              feature_layout: dict | None = None) -> LinearModel:
    """Train car vs non-car weights; deterministic for a given seed.

    One pass per epoch over a seeded shuffle; step size 1/(lambda*t); the bias
    is an unregularized extra coordinate.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("training rows must form a 2-D array")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1)).tolist()
    if bad:
        more = f" and {len(bad) - 10} more" if len(bad) > 10 else ""
        raise ValueError(f"non-finite feature values in training rows {bad[:10]}{more} "
                         "(counted from 0)")
    y = _as_signs(y)
    if len(y) != len(X):
        raise ValueError("row/label count mismatch")
    if len(set(np.unique(y).tolist())) < 2:
        raise ValueError("single-class training set")
    if not 0 < lambda_ < np.inf:
        raise ValueError(f"lambda_ must be a finite positive number, got {lambda_!r}")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    Z = X - mean
    Z /= std

    rng = np.random.default_rng(seed)
    n, d = Z.shape
    w = np.zeros(d)
    b = 0.0
    t = 0
    history = []
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lambda_ * t)
            decay = 1.0 - eta * lambda_
            if y[i] * (Z[i] @ w + b) < 1.0:
                w = decay * w + (eta * y[i]) * Z[i]
                b = b + eta * y[i]
            else:
                w = decay * w
        history.append(svm_objective(w, b, Z, y, lambda_))

    return LinearModel(weights=w, bias=float(b), feat_mean=mean, feat_std=std,
                       lambda_=lambda_, epochs=epochs, seed=seed,
                       feature_layout=feature_layout, objective_history=history)


def svm_score_many(model: LinearModel, X) -> np.ndarray:
    """Signed margins of the feature vectors in the rows of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != model.weights.shape[0]:
        raise ValueError(
            f"feature dimension {X.shape[-1]} does not match model ({model.weights.shape[0]})")
    Z = (X - model.feat_mean) / model.feat_std
    return Z @ model.weights + model.bias


def model_to_dict(model: LinearModel) -> dict:
    return {
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "feat_mean": model.feat_mean.tolist(),
        "feat_std": model.feat_std.tolist(),
        "lambda": model.lambda_,
        "epochs": model.epochs,
        "seed": model.seed,
        "feature_layout": model.feature_layout,
    }


def model_from_dict(d: dict) -> LinearModel:
    return LinearModel(weights=np.asarray(d["weights"], dtype=np.float64),
                       bias=float(d["bias"]),
                       feat_mean=np.asarray(d["feat_mean"], dtype=np.float64),
                       feat_std=np.asarray(d["feat_std"], dtype=np.float64),
                       lambda_=float(d["lambda"]),
                       epochs=int(d["epochs"]),
                       seed=int(d["seed"]),
                       feature_layout=d.get("feature_layout"))
