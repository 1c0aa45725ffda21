"""Random forest regression on CART-style variance-reduction trees.

Trees split where the summed squared error of the two children is lowest;
leaves store the mean of their training targets, so every prediction is an
average of training-target means and stays inside the training range.
Determinism is total: per-tree streams come from the package RNG seeded by
``derive_seed(seed, tree_index)``, and split-gain ties (within 1e-12)
resolve to the lowest feature index, then the lowest threshold.

A tree is the nested dict its JSON is: a leaf is ``{"value": v}`` and an
internal node is ``{"feature": f, "threshold": t, "left": ..., "right":
...}``, where rows with ``x[f] <= t`` go left.

Trees are independent, so a fit cuts ``range(n_trees)`` into contiguous
chunks, one per CPU in the process's affinity mask but none of fewer than
``_MIN_CHUNK_TREES`` trees (below that, a fork costs more than it saves).
The rank keys are computed once; then ``parallel.run_chunks`` grows the
first chunk in the calling process and each other chunk in a forked child,
and joins the chunks in tree order, so the trees do not depend on the CPU
count. A fit that itself runs in a chunk of a ``run_chunks`` call (a
backtest split's, say) grows all its trees in one chunk.

A chunk's trees grow in lockstep, each exactly as the recursive builder
grows it alone: depth first, left child before right, drawing from its own
xorshift64* stream in that order (the bootstrap's n ``randint`` draws, then
each split node's partial Fisher-Yates draws of its feature subset). The
streams are one ``uint64`` array, stepped together (``rng.next_u64s``). Each
step takes the next node off every unfinished tree's stack. A node that is
too small, too deep or has all targets equal becomes a leaf; every other
node of the step draws its features and joins the step's split search.
Each node sums its targets on its own unpadded rows, so leaf means and split
scores use the pairwise sums of a node grown alone.

The split search sorts each node's rows along each candidate column by
per-fit sort keys: the value's dense rank within its column in the high bits
and the row's position in the node in the low bits (``uint16`` when
n < 256). Keys are unique, so any sort is the stable sort of the values, and
one sort gives both the row order and the ranks that tell distinct values
apart. Every split of every column is scored from cumulative sums along the
sorted rows. The step's nodes, taken by ascending size, fill blocks of
(node x column x row) keys, each node padded to the block's largest by a
sentinel row that sorts last. A block holds at most ``_BLOCK_ELEMENTS`` keys
(a lone node may hold more), which caps the search's working memory. That
memory is one workspace per process, allocated when its chunk starts: one
flat array per block temporary (gather index, keys, row order, targets,
their cumulative sums and sums of squares, right sums, SSE and the barred
mask), each with room for the largest block. Every block writes its
temporaries into views of them, so no step allocates, frees and faults in
that memory again. Thresholds are read from ``X``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .. import parallel
from ..rng import derive_seed, multiply_shift, next_u64s, stream_states
from .linear import fit_data, predict_rows

_TIE_EPS = 1e-12
_INF_BITS = np.int64(0x7FF0000000000000)  # bit pattern of +inf
_BLOCK_ELEMENTS = 1 << 14  # (node x column x row) rank keys scored at once
_MIN_CHUNK_TREES = 30  # fewer trees per child than this grow faster unforked


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

    def predict(self, X):
        X, one_row = predict_rows(X, self.n_features)
        out = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            out[i] = sum(_leaf_value(t, X[i]) for t in self.trees) / len(self.trees)
        return float(out[0]) if one_row else out


def _rank_keys(X: np.ndarray) -> tuple[np.ndarray, int]:
    """Sort keys of ``X``'s cells and the number of low bits they leave free.

    ``keys[j, i]`` is the dense rank of ``X[i, j]`` in column j, shifted left
    by the bit length of n; column n holds the padding sentinel, n shifted
    alike, above every rank. Equal values share a rank, so the keys of a
    node's rows, each or'ed with the row's position in the node, sort into
    the order a stable sort of the values gives, and adjacent sorted rows
    hold distinct values exactly when their ranks differ.
    """
    n, p = X.shape
    shift = n.bit_length()
    keys = np.empty((p, n + 1), dtype=np.min_scalar_type(((n + 1) << shift) - 1))
    for j in range(p):
        keys[j, :n] = np.unique(X[:, j], return_inverse=True)[1]
    keys[:, n] = n
    keys <<= shift
    return keys, shift


def _draw_features(states: np.ndarray, p: int, k: int) -> np.ndarray:
    """``k`` of ``p`` features per stream, ascending: the first k entries of
    a partial Fisher-Yates shuffle of range(p), drawn as
    ``Xorshift64Star.sample_without_replacement`` draws them."""
    picks = np.arange(k) + multiply_shift(next_u64s(states, k), p - np.arange(k))
    pool = np.tile(np.arange(p), (len(states), 1))
    at = np.arange(len(states))
    for i in range(k):
        j = picks[:, i]
        pool[:, i], pool[at, j] = pool[at, j], pool[:, i].copy()
    return np.sort(pool[:, :k], axis=1)


def _blocks(sizes: list[int], k: int):
    """Runs of node positions, by ascending size, that hold at most
    ``_BLOCK_ELEMENTS`` keys once padded to the run's largest size; a lone
    node may hold more."""
    run: list[int] = []
    for g in sorted(range(len(sizes)), key=sizes.__getitem__):
        m = sizes[g]
        if run and (len(run) + 1) * k * m > _BLOCK_ELEMENTS:
            yield run
            run = []
        run.append(g)
    if run:
        yield run


def _positions(starts: np.ndarray, sizes: np.ndarray, pad: np.ndarray | int):
    """Each node's slots ``starts[g]:starts[g] + sizes[g]``, padded to the
    largest size with ``pad``, and the mask of the real ones."""
    offsets = np.arange(int(sizes.max()))
    real = offsets < sizes[:, None]
    return np.where(real, starts[:, None] + offsets, pad), real


def _set_leaf(node: dict, total: np.float64, size: int) -> None:
    node["value"] = float(total / size)  # the node's y.mean(), from its y.sum()


def _all_equal(y_rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Whether each node's targets are all equal (every node has a row)."""
    node_y = y_rows[_positions(starts, sizes, starts[:, None])[0]]
    return node_y.max(axis=1) == node_y.min(axis=1)


def _workspace(size: int, key_dtype) -> dict[str, np.ndarray]:
    """One flat work array of ``size`` elements per temporary of the
    split search; each block's temporaries are views of their prefixes."""
    kinds = {"index": np.int64, "keys": key_dtype, "order": key_dtype, "ys": np.float64,
             "csum": np.float64, "csq": np.float64, "right": np.float64,
             "sse": np.float64, "barred": np.bool_}
    return {name: np.empty(size, dtype) for name, dtype in kinds.items()}


def _score_block(X, keys, shift, rows, y_rows, starts, sizes, totals, features,
                 min_leaf, work):
    """Best split of each node of a block, scored together.

    Node g holds slots ``starts[g]:starts[g] + sizes[g]`` of ``rows`` (its
    rows) and ``y_rows`` (their targets), with target sum ``totals[g]`` and
    candidate columns ``features[g]`` (ascending). Its slots are padded to
    the block's largest size with the last slot, row n with target 0, whose
    key sorts last, so the sorted order and the prefix sums of the real rows
    are those of the unpadded node. Each column's pick is its first split
    within the tie band of its lowest SSE; the picks are then taken in
    ascending feature order and a later one wins only by strict improvement,
    which gives the tie rule (lowest feature, then lowest threshold).

    Every (node, column, row) temporary is a view of the ``work`` arrays
    (``_workspace``), written with ``out=``.

    Returns the block positions of the nodes that split, with their feature,
    left child size and threshold, and writes each split node's slots back
    in the chosen column's sorted order, so that each child holds a
    contiguous run of them.
    """
    count, k = features.shape
    slots, real = _positions(starts, sizes, len(rows) - 1)
    width = slots.shape[1]
    # rows on the left of each split, as far as the largest node allows
    ks = np.arange(min_leaf, width - min_leaf + 1)
    full, cut = (count, k, width), (count, k, ks.size)

    def temp(name, shape):
        return work[name][:math.prod(shape)].reshape(shape)

    node_rows = rows[slots]
    node_y = y_rows[slots]
    index = temp("index", full)
    np.multiply(features[:, :, None], keys.shape[1], out=index)
    index += node_rows[:, None, :]
    block = np.take(keys.reshape(-1), index, mode="clip", out=temp("keys", full))
    block |= np.arange(width, dtype=block.dtype)  # (node, column, row)
    block.sort(axis=-1)  # keys are unique, so any sort is the stable one
    order = np.bitwise_and(block, (1 << shift) - 1, out=temp("order", full))
    block >>= shift      # now the ranks, in sorted order
    np.add(order, (np.arange(count) * width)[:, None, None], out=index)
    ys = np.take(node_y.reshape(-1), index, mode="clip", out=temp("ys", full))
    csum = np.cumsum(ys, axis=-1, out=temp("csum", full))
    ys *= ys
    csq = np.cumsum(ys, axis=-1, out=temp("csq", full))
    k_right = sizes[:, None, None] - ks
    left_sum = csum[..., min_leaf - 1:width - min_leaf]
    left_sq = csq[..., min_leaf - 1:width - min_leaf]
    right_sum = np.subtract(totals[:, None, None], left_sum, out=temp("right", cut))
    right_sq = np.subtract(csq[np.arange(count), :, sizes - 1][..., None], left_sq,
                           out=temp("ys", cut))  # ys is spent
    # (left_sq - left_sum^2 / ks) + (right_sq - right_sum^2 / k_right), in place
    # but in this order, so that each SSE rounds as a lone node's does
    sse = np.multiply(left_sum, left_sum, out=temp("sse", cut))
    sse /= ks
    np.subtract(left_sq, sse, out=sse)
    right_sum *= right_sum
    right_sum /= np.maximum(k_right, 1)  # splits past a node's end are barred below
    np.subtract(right_sq, right_sum, out=right_sum)
    sse += right_sum
    # a threshold must separate distinct values, and both sides keep
    # min_leaf rows; other splits get +inf, added as the bits of 0.0 or inf
    barred = np.equal(block[..., min_leaf - 1:width - min_leaf],
                      block[..., min_leaf:width - min_leaf + 1], out=temp("barred", cut))
    barred |= k_right < min_leaf
    inf_bits = np.multiply(barred.view(np.uint8), _INF_BITS,
                           out=temp("index", cut))  # the gathers are done
    sse += inf_bits.view(np.float64)
    near = np.less_equal(sse, sse.min(axis=-1, keepdims=True) + _TIE_EPS, out=barred)
    picks = np.argmax(near, axis=-1)
    pick_sse = sse.reshape(-1, ks.size)[np.arange(count * k), picks.reshape(-1)]
    split, cols = [], []
    for g, values in enumerate(pick_sse.reshape(count, k).tolist()):
        best, best_sse = -1, math.inf
        for j, value in enumerate(values):
            if value < best_sse - _TIE_EPS:
                best, best_sse = j, value
        if best >= 0:
            split.append(g)
            cols.append(best)
    split, cols = np.array(split, dtype=np.intp), np.array(cols, dtype=np.intp)
    n_left = ks[picks[split, cols]]
    moved = order[split, cols]
    chosen = node_rows[split[:, None], moved]
    f = features[split, cols]
    at = np.arange(split.size)
    threshold = 0.5 * (X[chosen[at, n_left - 1], f] + X[chosen[at, n_left], f])
    write = real[split]
    rows[slots[split][write]] = chosen[write]
    y_rows[slots[split][write]] = node_y[split[:, None], moved][write]
    return split, f, n_left, threshold


def _grow(X: np.ndarray, y: np.ndarray, keys: np.ndarray, shift: int, chunk: range,
          max_depth: int | None, min_leaf: int, bootstrap: bool, k: int,
          seed: int) -> list[dict]:
    """Trees ``chunk`` (a range of tree indices), grown in lockstep.

    The chunk's i-th tree has its rows in slots ``i * n:(i + 1) * n`` of
    ``rows``, and each node owns a contiguous run of its tree's slots;
    ``y_rows`` holds the slots' targets. The last slot is the padding row n.
    Each tree keeps its own depth-first stack of (node, start, end, depth).
    ``keys`` and ``shift`` are ``_rank_keys(X)``.
    """
    n, p = X.shape
    n_trees = len(chunk)
    work = _workspace(max(_BLOCK_ELEMENTS, k * (n + 1)), keys.dtype)
    states = stream_states([derive_seed(seed, t) for t in chunk])
    if bootstrap:
        rows = multiply_shift(next_u64s(states, n), n).reshape(-1)
    else:
        rows = np.tile(np.arange(n), n_trees)
    rows = np.append(rows, n)
    y_rows = np.append(y[rows[:-1]], 0.0)
    trees = [{} for _ in range(n_trees)]
    stacks = [[(tree, t * n, (t + 1) * n, 0)] for t, tree in enumerate(trees)]
    live = list(range(n_trees))
    while live:
        nodes = []  # (tree, node, start, end, depth, target sum) that may split
        for t in live:
            node, start, end, depth = stacks[t].pop()
            total = y_rows[start:end].sum()
            if end - start < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
                _set_leaf(node, total, end - start)
            else:
                nodes.append((t, node, start, end, depth, total))
        if nodes:
            starts = np.array([entry[2] for entry in nodes])
            sizes = np.array([entry[3] for entry in nodes]) - starts
            growing = ~_all_equal(y_rows, starts, sizes)
            for _, node, start, end, _, total in compress(nodes, ~growing):
                _set_leaf(node, total, end - start)
            nodes = list(compress(nodes, growing))
            starts, sizes = starts[growing], sizes[growing]
        if nodes:
            totals = np.array([entry[5] for entry in nodes])
            trees_of = np.array([entry[0] for entry in nodes])
            drawn = states[trees_of]
            features = _draw_features(drawn, p, k)
            states[trees_of] = drawn
            for run in _blocks(sizes.tolist(), k):
                run = np.array(run)
                split, f, n_left, threshold = _score_block(
                    X, keys, shift, rows, y_rows, starts[run], sizes[run], totals[run],
                    features[run], min_leaf, work)
                for g in np.delete(run, split).tolist():
                    _, node, start, end, _, total = nodes[g]
                    _set_leaf(node, total, end - start)
                for g, feature, left, thr in zip(run[split].tolist(), f.tolist(),
                                                  n_left.tolist(), threshold.tolist()):
                    t, node, start, end, depth, _ = nodes[g]
                    node.update(feature=feature, threshold=thr, left={}, right={})
                    stacks[t].append((node["right"], start + left, end, depth + 1))
                    stacks[t].append((node["left"], start, start + left, depth + 1))
        live = [t for t in live if stacks[t]]
    return trees


def fit_forest(X, y, n_trees: int = 100, max_depth: int | None = None,
               min_leaf: int = 2, bootstrap: bool = True,
               max_features: int | None = None, seed: int = 0) -> ForestModel:
    """Grow ``n_trees`` deterministic CART trees; default feature subsample
    per split is ceil(p / 3).

    Needs ``n_trees``, ``min_leaf`` and ``max_features`` >= 1 and ``max_depth``
    >= 0 where given, and 1+ rows that ``fit_data`` takes.
    """
    for name, value, low in (("n_trees", n_trees, 1), ("min_leaf", min_leaf, 1),
                             ("max_features", max_features, 1),
                             ("max_depth", max_depth, 0)):
        if value is not None and value < low:
            raise ValueError(f"fit_forest needs {name} >= {low}, got {value}")
    X, y = fit_data(X, y, "fit_forest", 1)
    p = X.shape[1]
    if max_features is None:
        max_features = max(1, math.ceil(p / 3)) if p else 1
    keys, shift = _rank_keys(X)
    k = min(max_features, p)
    trees = parallel.run_chunks(
        lambda chunk: _grow(X, y, keys, shift, chunk, max_depth, min_leaf, bootstrap, k, seed),
        parallel.chunks(n_trees, _MIN_CHUNK_TREES))
    return ForestModel(trees=trees, n_trees=n_trees, max_depth=max_depth,
                       min_leaf=min_leaf, max_features=max_features,
                       bootstrap=bootstrap, seed=seed, n_features=p)
