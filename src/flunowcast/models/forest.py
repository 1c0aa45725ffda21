"""Random forest regression on CART-style variance-reduction trees.

Trees split where the summed squared error of the two children is lowest;
leaves store the mean of their training targets, so every prediction is an
average of training-target means and stays inside the training range.
Determinism is total: per-tree streams come from the package RNG seeded by
``derive_seed(seed, tree_index)``.

A tree is the nested dict its JSON is: a leaf is ``{"value": v}`` and an
internal node is ``{"feature": f, "threshold": t, "left": ..., "right":
...}``, where rows with ``x[f] <= t`` go left.

A fit grows all its trees in the calling process and forks nothing: a
backtest runs its splits in parallel (``evaluation``), each split's fit on
one CPU.

Bootstrap weights. Each tree draws its bootstrap (Breiman 2001) as n
``randint`` draws from its own xorshift64* stream, and one ``bincount``
turns them into the tree's distinct rows, ascending, each weighted by the
number of times it was drawn (every row weighs 1 without a bootstrap). A
node holds distinct rows, and its weight W is the sum of theirs: a node
with W < 2 * ``min_leaf`` is a leaf, each side of a cut weighs at least
``min_leaf``, and a leaf's value is the node's sum of w·y over W. So every
option means what it means on the drawn rows with their repeats, and a tree
has the same candidate cuts: none separates a row from its repeats.

Level order. The trees grow in lockstep, one depth level of every tree per
step. A node searches for a split unless W < 2 * ``min_leaf``, it is at
``max_depth`` or its targets are all equal; a node whose search finds no
split is a leaf. A tree's i-th searching node in level order (by depth,
then left to right) takes the i-th feature subset of its stream after the
bootstrap, ``sample_without_replacement(p, k)`` sorted, whatever the tree's
shape. The subsets are drawn ahead in a table: whenever a level needs more
rows than the table holds for some tree, the next ``_TABLE_ROWS`` rows are
drawn for every tree, in one call (``rng.samples_without_replacement``). A
tree with no searching node at a level has none at any later one, so the
rows drawn for it then are never read, and every tree reads the same
subsets as if only the searching trees drew.

Scores and ties. Along a column, the cut after sorted row j has the left
sums L of w·y and w_L of w up to that row, and the right sums R and w_R:
the column's last cumulative sums less the left's. The node's SSE there
is its sum of w·y² less the score L²/w_L + R²/w_R, so the search maximises
the score. A cut is barred where the ranks are equal across it or where a
side weighs less than ``min_leaf``. A node splits at its first (feature,
threshold), in that order, whose score is at least its highest less
``_TIE_EPS`` times its sum of w·y², a band above the SSEs' rounding, so
ties resolve to the lowest feature, then the lowest threshold. It finds
no split where that band's edge is not finite: every cut barred, or sums
that overflowed.

Node sums. A node's (sum of w·y, W), for its leaf value and its split
scores, is a sequential cumulative sum: a root's over its slots in slot
order, a left child's at its parent's cut along the chosen column, and a
right child's that column's last cumulative sum less the left's. Its sum
of w·y² for the band is the last cumulative sum over its slots in slot
order. So no byte depends on how numpy orders a reduction. The all-equal
test reads each node's largest and smallest target with ``reduceat``.

The split search sorts each node's rows along each candidate column by
per-fit sort keys: the value's dense rank within its column in the high bits
and the row's position in the node in the low bits (``uint16`` when
n < 256). Keys are unique, so any sort is the stable sort of the values, and
one sort gives both the row order and the ranks that tell distinct values
apart. Every cut of every column is scored from cumulative sums along the
sorted rows: w·y and w, as the real and imaginary parts of complex
numbers, take one cumulative sum. A level's searching nodes, taken by
ascending size, fill blocks of (node x column x row) keys, each node padded
to its block's largest by a sentinel row that sorts last. A block holds at
most ``_BLOCK_ELEMENTS`` keys (a lone node may hold more), which caps the
search's working memory. That memory is one workspace per fit, allocated
when its trees start: one flat array per block temporary (gather index and
row order, keys, the (w·y, w) pairs, their cumulative sums, the scores and
the barred mask; the right sums reuse the pairs' room), each with room for
the largest block. Every block writes its temporaries into views of them,
so no step allocates, frees and faults in that memory again. Each split
node's slots are written back in the chosen column's sorted order, kept
from the search. Thresholds are read from ``X``.

The trees become nested dicts once the growth's arrays are freed, from
each level's records of its leaves and splits (``_trees``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..rng import (derive_seed, multiply_shift, next_u64s, samples_without_replacement,
                   stream_states)
from .linear import fit_data, predict_rows

# relative to a node's sum of w·y²: an SSE over m rows rounds by about
# m * 2**-53 of it, 1.8e-14 at m = 160, so the band holds about 50x that
# there and stays above it up to about 9000 rows
_TIE_EPS = 1e-12
_BLOCK_ELEMENTS = 1 << 14  # (node x column x row) rank keys scored at once
_TABLE_ROWS = 32  # feature subsets drawn ahead per tree at a time


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


def _blocks(sizes: list[int], k: int):
    """Runs ``a:b`` of nodes sorted by ascending size that hold at most
    ``_BLOCK_ELEMENTS`` keys once padded to the run's largest size; a lone
    node may hold more."""
    a = 0
    for b, m in enumerate(sizes):
        if b > a and (b - a + 1) * k * m > _BLOCK_ELEMENTS:
            yield a, b
            a = b
    if sizes:
        yield a, len(sizes)


def _positions(starts: np.ndarray, sizes: np.ndarray, pad: int):
    """Each node's slots ``starts[g]:starts[g] + sizes[g]``, padded to the
    largest size with ``pad``, and the mask of the real ones."""
    offsets = np.arange(sizes.max(initial=0))
    real = offsets < sizes[:, None]
    return np.where(real, starts[:, None] + offsets, pad), real


def _all_equal(y_rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Whether each node's targets are all equal, from the largest and the
    smallest of its slots (every node has a row, and the padding slot ends
    ``y_rows``). ``reduceat`` reduces each (start, end) pair of indices on
    its own, so the nodes need not be in slot order."""
    bounds = np.column_stack([starts, starts + sizes]).reshape(-1)
    return (np.maximum.reduceat(y_rows, bounds)[0::2]
            == np.minimum.reduceat(y_rows, bounds)[0::2])


def _workspace(size: int, key_dtype) -> dict[str, np.ndarray]:
    """One flat work array of ``size`` elements per temporary of the
    split search; each block's temporaries are views of their prefixes."""
    kinds = {"index": np.int64, "keys": key_dtype, "ys": np.complex128,
             "sums": np.complex128, "score": np.float64, "barred": np.bool_}
    work = {name: np.empty(size, dtype) for name, dtype in kinds.items()}
    # the right sums and weights take the gathered pairs' place
    work["right"], work["right_w"] = work["ys"].view(np.float64).reshape(2, size)
    return work


def _score_block(keys, shift, node_rows, node_ys, sizes, squares, features, min_leaf,
                 work):
    """Each node's split in a block of nodes, scored together.

    Node g's rows are ``node_rows[g, :sizes[g]]``, padded to the block's
    largest size with row n, whose key sorts last, so the sorted order of
    the real rows is that of the unpadded node. ``node_ys[g]`` holds their
    (w·y, w) pairs as complex numbers, padded with 0, and ``squares[g]``
    their sum of w·y². Its candidate columns are ``features[g]``, ascending.

    Every cut is scored, one per row position, on the block's full width:
    each (node, column, row) temporary is a view of the ``work`` arrays
    (``_workspace``), written with ``out=``, and the cuts that are barred
    (equal values across it, padding included, or a side lighter than
    ``min_leaf``) score -inf.

    Returns, per node, the pick's column position (-1 where the band's
    edge is not finite), the rows left of the pick less one, the (w·y, w)
    sums left of the pick and that column's last ones, and the positions
    in the node of its rows in that column's sorted order.
    """
    count, k = features.shape
    width = node_rows.shape[1]
    full = (count, k, width)

    def temp(name):
        return work[name][:count * k * width].reshape(full)

    index = np.add((features * keys.shape[1])[:, :, None], node_rows[:, None, :],
                   out=temp("index"))
    block = np.take(keys.reshape(-1), index, mode="clip", out=temp("keys"))
    block |= np.arange(width, dtype=block.dtype)  # (node, column, row)
    block.sort(axis=-1)  # keys are unique, so any sort is the stable one
    np.bitwise_and(block, (1 << shift) - 1, out=index)  # the row order
    block >>= shift      # now the ranks, in sorted order
    at = np.arange(0, count * width, width)
    index += at[:, None, None]
    # complex addition adds the parts apart, so one cumulative sum gives
    # the w·y's and the w's, bit for bit
    ys = np.take(node_ys.reshape(-1), index, mode="clip", out=temp("ys"))
    sums = np.cumsum(ys, axis=-1, out=temp("sums"))
    left, left_w = sums.real, sums.imag
    last = sums[np.arange(count), :, sizes - 1]  # (node, column)
    right = np.subtract(last.real[..., None], left, out=temp("right"))  # ys is spent
    right_w = np.subtract(last.imag[..., None], left_w, out=temp("right_w"))
    # equal ranks across the cut, compared on the flat block: the cut after
    # a node's last row is barred by its right weight whatever it reads
    barred = temp("barred")
    ranks = block.reshape(-1)
    np.equal(ranks[:-1], ranks[1:], out=barred.reshape(-1)[:-1])
    barred |= left_w < min_leaf
    barred |= right_w < min_leaf
    # L^2 / w_L + R^2 / w_R, in place but in this order
    score = np.multiply(left, left, out=temp("score"))
    score /= left_w  # a node's first row weighs 1 or more
    right *= right
    right /= np.maximum(right_w, 1, out=right_w)  # past a node's end; barred
    score += right
    np.copyto(score, -math.inf, where=barred)
    # each node's first (column, row) within the band of its highest score
    lines = score.reshape(count, k * width)
    edge = lines.max(axis=1) - _TIE_EPS * squares
    within = np.greater_equal(lines, edge[:, None], out=barred.reshape(count, -1))
    best = np.argmax(within, axis=1)
    nodes = np.arange(count)
    column, pick = np.divmod(best, width)
    return (np.where(np.isfinite(edge), column, -1), pick,
            sums.reshape(count, -1)[nodes, best], last[nodes, column],
            index[nodes, column] - at[:, None])


def _search(X, keys, shift, rows, y_rows, ys, starts, sizes, features, min_leaf, work):
    """Best split of each of a level's searching nodes.

    Node g holds slots ``starts[g]:starts[g] + sizes[g]`` of ``rows``,
    ``y_rows`` and ``ys`` (the rows' (w·y, w) pairs), with candidate
    columns ``features[g]`` (ascending). The nodes, taken by ascending size,
    are scored in blocks (``_blocks``, ``_score_block``), each padded to its
    own largest node; a node without a column does not search.

    Returns the positions of the nodes that split, ascending, with their
    feature, left child's row count, threshold and children's (w·y, w) sums
    (the cumulative sums at the cut along the chosen column, and that
    column's last less them), and writes each split node's slots back in
    the chosen column's sorted order, so that each child holds a contiguous
    run of them.
    """
    count, k = features.shape
    columns, n_left = np.full(count, -1), np.empty(count, np.intp)
    lefts, lasts = np.empty(count, np.complex128), np.empty(count, np.complex128)
    by_size = np.argsort(sizes, kind="stable")
    for a, b in _blocks(sizes[by_size].tolist() if k else [], k):
        nodes = by_size[a:b]
        first, size = starts[nodes], sizes[nodes]
        # each node's slots padded to the block's largest with the last
        # slot, row n with target and weight 0
        slots, real = _positions(first, size, len(rows) - 1)
        node_ys = ys[slots]
        squares = np.cumsum(node_ys.real * y_rows[slots], axis=1)[:, -1]
        column, pick, lefts[nodes], lasts[nodes], order = _score_block(
            keys, shift, rows[slots], node_ys, size, squares, features[nodes], min_leaf,
            work)
        columns[nodes], n_left[nodes] = column, pick + 1
        split = column >= 0
        moved = (first[split, None] + order[split])[real[split]]
        slots = slots[split][real[split]]
        for held in (rows, y_rows, ys):
            held[slots] = held[moved]
    split = np.flatnonzero(columns >= 0)
    f = features[split, columns[split]]
    cut = starts[split] + n_left[split]  # each right child's first slot
    threshold = 0.5 * (X[rows[cut - 1], f] + X[rows[cut], f])
    return (split, f, n_left[split], threshold, lefts[split],
            lasts[split] - lefts[split])


def _grow(X: np.ndarray, y: np.ndarray, n_trees: int, max_depth: int | None,
          min_leaf: int, bootstrap: bool, k: int, seed: int) -> tuple[list, list, int]:
    """``n_trees`` trees, grown in lockstep, one depth level per step.

    Each tree's distinct rows take a contiguous run of slots of ``rows``,
    ascending, and each node owns a contiguous run of its tree's slots;
    ``y_rows`` and ``ys`` hold the slots' targets and (w·y, w) pairs. The
    last slot is the padding row n, with target and weight 0. Nodes are
    numbered as they are made, the roots first. A level's nodes are held in
    level order, tree by tree, as (node, tree, start, size, sums), where
    sums is the node's (w·y, W) sum: a root's is its slots' last cumulative
    sum, and ``_search`` gives each split's children theirs. Returns each
    level's leaf and split records for ``_trees``, and the node count.
    """
    n, p = X.shape
    keys, shift = _rank_keys(X)
    work = _workspace(max(_BLOCK_ELEMENTS, k * (n + 1)), keys.dtype)
    states = stream_states([derive_seed(seed, t) for t in range(n_trees)])
    if bootstrap:
        draws = multiply_shift(next_u64s(states, n), n)
        draws += np.arange(0, n_trees * n, n)[:, None]
        weights = np.bincount(draws.reshape(-1), minlength=n_trees * n)
    else:
        weights = np.ones(n_trees * n, np.intp)
    slots = np.flatnonzero(weights)  # tree t's row i at t * n + i
    tree_of, rows = np.divmod(slots, n)
    rows = np.append(rows, n)
    y_rows = np.append(y[rows[:-1]], 0.0)
    ys = np.zeros(rows.size, np.complex128)
    ys.imag[:-1] = weights[slots]
    np.multiply(ys.imag, y_rows, out=ys.real)
    sizes = np.bincount(tree_of, minlength=n_trees)
    starts = np.cumsum(sizes) - sizes
    sums = np.cumsum(ys[_positions(starts, sizes, rows.size - 1)[0]], axis=1)[:, -1]
    nodes = tree_of = np.arange(n_trees)
    made = n_trees
    table, used = np.empty((n_trees, 0, k), np.uint8), np.zeros(n_trees, np.intp)
    leaves, splits = [], []  # (nodes, values); (nodes, features, thresholds, lefts, rights)
    for depth in itertools.count():
        leaf = sums.imag < 2 * min_leaf
        if max_depth is not None and depth >= max_depth:
            leaf[:] = True
        search = np.flatnonzero(~leaf)
        if search.size:
            leaf[search] = _all_equal(y_rows, starts[search], sizes[search])
            search = search[~leaf[search]]
        # a tree's searching nodes, in level order, take its next subsets
        trees = tree_of[search]
        nth = used[trees] + np.arange(search.size) - np.searchsorted(trees, trees)
        used += np.bincount(trees, minlength=n_trees)
        while table.shape[1] < used.max():
            rows_ahead = samples_without_replacement(states, p, k, _TABLE_ROWS)
            rows_ahead.sort(axis=-1)
            table = np.concatenate([table, rows_ahead], axis=1)
        split, f, n_left, threshold, left, right = _search(
            X, keys, shift, rows, y_rows, ys, starts[search], sizes[search],
            table[trees, nth].astype(np.intp), min_leaf, work)
        parents = search[split]
        leaf[search] = True
        leaf[parents] = False
        leaves.append((nodes[leaf], sums.real[leaf] / sums.imag[leaf]))
        children = np.arange(made, made + 2 * split.size)
        made += children.size
        if not split.size:
            return leaves, splits, made
        splits.append((nodes[parents], f, threshold, children[0::2], children[1::2]))
        first = starts[parents]
        nodes, tree_of = children, np.repeat(tree_of[parents], 2)
        starts = np.column_stack([first, first + n_left]).reshape(-1)
        sizes = np.column_stack([n_left, sizes[parents] - n_left]).reshape(-1)
        sums = np.column_stack([left, right]).reshape(-1)


def _trees(leaves, splits, n_nodes: int, n_trees: int) -> list[dict]:
    """The trees as nested dicts, from ``_grow``'s per-level records of its
    ``n_nodes`` nodes: (nodes, values) for the leaves and (nodes, features,
    thresholds, left children, right children) for the splits."""
    nodes = [None] * n_nodes
    for made, values in leaves:
        for node, value in zip(made.tolist(), values.tolist()):
            nodes[node] = {"value": value}
    # a level's children split, if at all, at later levels: so built last
    # level first, every split node finds its children made
    for made, *fields in reversed(splits):
        for node, feature, threshold, left, right in zip(made.tolist(), *(
                field.tolist() for field in fields)):
            nodes[node] = {"feature": feature, "threshold": threshold,
                           "left": nodes[left], "right": nodes[right]}
    return nodes[:n_trees]


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
    # the dicts are made once the growth's working arrays are freed
    trees = _trees(*_grow(X, y, n_trees, max_depth, min_leaf, bootstrap,
                          min(max_features, p), seed), n_trees)
    return ForestModel(trees=trees, n_trees=n_trees, max_depth=max_depth,
                       min_leaf=min_leaf, max_features=max_features,
                       bootstrap=bootstrap, seed=seed, n_features=p)
