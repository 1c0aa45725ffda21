"""Random forest regression on CART-style variance-reduction trees.

Trees split where the summed squared error of the two children is lowest;
leaves store the mean of their training targets, so every prediction is an
average of training-target means and stays inside the training range.
Determinism is total: per-tree streams come from the package RNG seeded by
``derive_seed(seed, tree_index)``, and split-gain ties (within 1e-12)
resolve to the lowest feature index, then the lowest threshold.

A tree is the nested dict its JSON is: a leaf is ``{"value": v}`` and an
internal node is ``{"feature": f, "threshold": t, "left": ..., "right":
...}``, where rows with ``x[f] <= t`` go left. Each node's split search
sorts its candidate columns in one block and scores every split of every
column at once from cumulative sums along the sorted rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NoData, ShapeMismatch
from ..rng import Xorshift64Star, derive_seed

_TIE_EPS = 1e-12


def _leaf_value(tree: dict, x: np.ndarray) -> float:
    while "value" not in tree:
        tree = tree["left"] if x[tree["feature"]] <= tree["threshold"] else tree["right"]
    return tree["value"]


@dataclass
class ForestModel:
    trees: list[dict]
    n_trees: int
    max_depth: int | None
    min_leaf: int
    max_features: int
    bootstrap: bool
    seed: int
    n_features: int
    train_y_min: float = 0.0
    train_y_max: float = 0.0

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        one_row = X.ndim == 1
        if one_row:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ShapeMismatch(f"model has {self.n_features} features, X has {X.shape[1]}")
        out = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            out[i] = sum(_leaf_value(t, X[i]) for t in self.trees) / len(self.trees)
        return float(out[0]) if one_row else out


def _best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray,
                features: list[int], min_leaf: int):
    """Lowest-SSE split over the candidate features, or None.

    Returns (feature, threshold, left_idx, right_idx). Each column's pick is
    its first split within the tie band of its lowest SSE; the picks are then
    taken in ascending feature order and a later one wins only by strict
    improvement, which gives the tie rule (lowest feature, then lowest
    threshold).
    """
    y_node = y[idx]
    m = y_node.size
    # rows on the left of each split; never empty, as m >= 2 * min_leaf here
    ks = np.arange(min_leaf, m - min_leaf + 1)
    block = X[np.ix_(idx, features)]
    order = np.argsort(block, axis=0, kind="stable")
    xs = np.take_along_axis(block, order, axis=0)
    ys = y_node[order]
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    left_sum = csum[ks - 1]
    left_sq = csq[ks - 1]
    right_sum = y_node.sum() - left_sum
    right_sq = csq[-1] - left_sq
    k_col = ks[:, None]
    sse = (left_sq - left_sum * left_sum / k_col) + \
          (right_sq - right_sum * right_sum / (m - k_col))
    # a threshold must separate distinct values
    sse[~(xs[ks - 1] < xs[ks])] = np.inf
    picks = np.argmax(sse <= sse.min(axis=0) + _TIE_EPS, axis=0)
    best = None
    best_sse = np.inf
    for j, pick in enumerate(picks):
        if sse[pick, j] < best_sse - _TIE_EPS:
            best_sse = sse[pick, j]
            best = j
    if best is None:
        return None
    k = int(ks[picks[best]])
    threshold = 0.5 * (xs[k - 1, best] + xs[k, best])
    return (features[best], float(threshold),
            idx[order[:k, best]], idx[order[k:, best]])


def _build_tree(X: np.ndarray, y: np.ndarray, idx: np.ndarray,
                depth: int, max_depth: int | None, min_leaf: int,
                max_features: int, rng: Xorshift64Star) -> dict:
    y_node = y[idx]
    if (idx.size < 2 * min_leaf
            or (max_depth is not None and depth >= max_depth)
            or np.all(y_node == y_node[0])):
        return {"value": float(y_node.mean())}
    p = X.shape[1]
    features = sorted(rng.sample_without_replacement(p, min(max_features, p)))
    split = _best_split(X, y, idx, features, min_leaf)
    if split is None:
        return {"value": float(y_node.mean())}
    f, threshold, left_idx, right_idx = split
    return {
        "feature": f, "threshold": threshold,
        "left": _build_tree(X, y, left_idx, depth + 1, max_depth, min_leaf,
                            max_features, rng),
        "right": _build_tree(X, y, right_idx, depth + 1, max_depth, min_leaf,
                             max_features, rng),
    }


def fit_forest(X, y, n_trees: int = 100, max_depth: int | None = None,
               min_leaf: int = 2, bootstrap: bool = True,
               max_features: int | None = None, seed: int = 0) -> ForestModel:
    """Grow ``n_trees`` deterministic CART trees; default feature subsample
    per split is ceil(p / 3).

    Needs ``n_trees >= 1``, ``min_leaf >= 1``, and ``max_features >= 1`` and
    ``max_depth >= 0`` where given; otherwise ``ValueError``.
    """
    for name, value, low in (("n_trees", n_trees, 1), ("min_leaf", min_leaf, 1),
                             ("max_features", max_features, 1),
                             ("max_depth", max_depth, 0)):
        if value is not None and value < low:
            raise ValueError(f"fit_forest needs {name} >= {low}, got {value}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, p = X.shape
    if n == 0:
        raise NoData("fit_forest needs at least one row")
    if max_features is None:
        max_features = max(1, math.ceil(p / 3)) if p else 1
    trees = []
    for t in range(n_trees):
        rng = Xorshift64Star(derive_seed(seed, t))
        if bootstrap:
            idx = np.array([rng.randint(n) for _ in range(n)], dtype=int)
        else:
            idx = np.arange(n)
        trees.append(_build_tree(X, y, idx, 0, max_depth, min_leaf,
                                 max_features, rng))
    return ForestModel(trees=trees, n_trees=n_trees, max_depth=max_depth,
                       min_leaf=min_leaf, max_features=max_features,
                       bootstrap=bootstrap, seed=seed, n_features=p,
                       train_y_min=float(y.min()), train_y_max=float(y.max()))
