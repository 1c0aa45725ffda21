"""Random forest regression on CART-style variance-reduction trees.

Trees split where the summed squared error of the two children is lowest;
leaves store the mean of their training targets, so every prediction is an
average of training-target means and stays inside the training range.
Determinism is total: per-tree streams come from the package RNG seeded by
``derive_seed(seed, tree_index)``. Split ties resolve to the lowest
feature index, then the lowest threshold: a node splits at its first
(feature, threshold) whose SSE is within ``_TIE_EPS`` times the node's sum
of squared targets of its lowest SSE, a band above the SSEs' rounding.

A tree is the nested dict its JSON is: a leaf is ``{"value": v}`` and an
internal node is ``{"feature": f, "threshold": t, "left": ..., "right":
...}``, where rows with ``x[f] <= t`` go left.

A fit grows all its trees in the calling process and forks nothing: a
backtest runs its splits in parallel (``evaluation``), each split's fit on
one CPU.

The trees grow in lockstep, each exactly as the recursive builder grows
it alone: depth first, left child before right, drawing from its own
xorshift64* stream in that order (the bootstrap's n ``randint`` draws, then
each searching node's partial Fisher-Yates draws of its feature subset). A
node searches for a split unless it is too small, too deep or has all
targets equal.

Draw tables. The i-th searching node of a tree, in depth-first order, uses
that tree's i-th subset, whatever the tree's shape, so the subsets are
drawn ahead: ``_TABLE_ROWS`` rows per tree at a time, for all unfinished
trees at once (``rng.samples_without_replacement``), and again for the
trees that outrun the table.

Leaves settled when they are made. The roots at the start, and the
children of each step's splits at the end of that step, are settled
together: a node that may not search becomes a leaf there, and the others
go on their tree's depth-first stack (one row per tree of the stack
arrays). Each step takes the top node off every unfinished tree's stack,
so every node of a step searches, and step i uses row i of the tables. A
node whose search finds no split becomes a leaf.

Node totals. A node's target sum, for its leaf mean and its split scores,
is a sequential cumulative sum: a root's over its bootstrap targets in slot
order, a left child's at its parent's cut along the chosen column, and a
right child's that column's last cumulative sum less the left's. So no
byte depends on how numpy orders a reduction. The all-equal test reads
each node's largest and smallest target with ``reduceat``.

The split search sorts each node's rows along each candidate column by
per-fit sort keys: the value's dense rank within its column in the high bits
and the row's position in the node in the low bits (``uint16`` when
n < 256). Keys are unique, so any sort is the stable sort of the values, and
one sort gives both the row order and the ranks that tell distinct values
apart. Every split of every column is scored from cumulative sums along the
sorted rows: the targets and their squares, as the real and imaginary parts
of complex numbers, take one cumulative sum. The step's nodes, taken by
ascending size, fill blocks of (node x column x row) keys, each node padded
to the block's largest by a sentinel row that sorts last. A block holds at
most ``_BLOCK_ELEMENTS`` keys (a lone node may hold more), which caps the
search's working memory. That memory is one workspace per fit, allocated
when its trees start: one flat array per block temporary (gather index,
keys, targets and squares, their cumulative sums, SSE and the barred mask;
the right sums reuse the targets' room), each with room for the largest
block. Every block writes its temporaries into views of them, so no step
allocates, frees and faults in that memory again. Each split node's rows
are sorted along its chosen column once more to write them back in that
order. Thresholds are read from ``X``.

The trees become nested dicts once the growth's arrays are freed, from
each step's records of its leaves and splits (``_trees``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..rng import (derive_seed, multiply_shift, next_u64s, samples_without_replacement,
                   stream_states)
from .linear import fit_data, predict_rows

# relative to a node's sum of squared targets: an SSE over m rows rounds by
# about m * 2**-53 of it, 1.8e-14 at m = 160, so the band holds about 50x
# that there and stays above it up to about 9000 rows
_TIE_EPS = 1e-12
_INF_BITS = np.int64(0x7FF0000000000000)  # bit pattern of +inf
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
    smallest of its slots, taken in slot order (every node has a row)."""
    by_start = np.argsort(starts)
    bounds = np.column_stack([starts, starts + sizes])[by_start].reshape(-1)
    equal = np.empty(starts.size, bool)
    equal[by_start] = (np.maximum.reduceat(y_rows, bounds)[0::2]
                       == np.minimum.reduceat(y_rows, bounds)[0::2])
    return equal


def _workspace(size: int, key_dtype) -> dict[str, np.ndarray]:
    """One flat work array of ``size`` elements per temporary of the
    split search; each block's temporaries are views of their prefixes."""
    kinds = {"index": np.int64, "keys": key_dtype, "ys": np.complex128,
             "sums": np.complex128, "sse": np.float64, "barred": np.bool_}
    work = {name: np.empty(size, dtype) for name, dtype in kinds.items()}
    # the right sums and sums of squares take the gathered targets' place
    work["right"], work["right_sq"] = work["ys"].view(np.float64).reshape(2, size)
    return work


def _score_block(keys, shift, node_rows, node_ys, at, sizes, features, min_leaf, work):
    """Each node's split in a block of nodes, scored together.

    Node g's rows are ``node_rows[g, :sizes[g]]``, padded to the block's
    largest size with row n, whose key sorts last, so the sorted order of
    the real rows is that of the unpadded node. Its targets, with their
    squares as the imaginary part, start at ``node_ys[at[g]]``, padded with
    0; their sums are the last of their cumulative sums. Its candidate
    columns are ``features[g]``, ascending.

    Every split is scored, one per row position, on the block's full width:
    each (node, column, row) temporary is a view of the ``work`` arrays
    (``_workspace``), written with ``out=``, and the positions that cannot
    split (too few rows on a side, or equal values across the cut, padding
    included) get +inf, added as the bits of 0.0 or inf.

    A node's pick is its first (column, row), in that order, whose SSE is
    within ``_TIE_EPS`` times its largest column sum of squares of its
    lowest SSE. Returns, per node, the pick's column position (-1 where the
    lowest SSE is not finite: no split, or overflowed squares), the rows
    left of the pick less one, the cumulative target sum at the pick and
    that column's last one.
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
    index += at[:, None, None]
    # complex addition adds the parts apart, so one cumulative sum gives
    # the targets' and their squares', bit for bit
    ys = np.take(node_ys, index, mode="clip", out=temp("ys"))
    sums = np.cumsum(ys, axis=-1, out=temp("sums"))
    csum, csq = sums.real, sums.imag
    left = np.arange(1.0, width + 1)  # rows left of each split
    right = sizes[:, None, None] - left
    last = sums[np.arange(count), :, sizes - 1]  # (node, column)
    right_sum = np.subtract(last.real[..., None], csum, out=temp("right"))  # ys is spent
    right_sq = np.subtract(last.imag[..., None], csq, out=temp("right_sq"))
    # (left_sq - left_sum^2 / left) + (right_sq - right_sum^2 / right), in
    # place but in this order, so that each SSE rounds as a lone node's does
    sse = np.multiply(csum, csum, out=temp("sse"))
    sse /= left
    np.subtract(csq, sse, out=sse)
    right_sum *= right_sum
    right_sum /= np.maximum(right, 1)  # past a node's end; barred below
    np.subtract(right_sq, right_sum, out=right_sum)
    sse += right_sum
    # equal ranks across the cut, compared on the flat block: the cut after
    # a row's last position is barred by its size whatever it reads
    barred = temp("barred")
    ranks = block.reshape(-1)
    np.equal(ranks[:-1], ranks[1:], out=barred.reshape(-1)[:-1])
    barred |= (left < min_leaf) | (right < min_leaf)
    inf_bits = np.multiply(barred.view(np.uint8), _INF_BITS,
                           out=temp("index"))  # the gathers are done
    sse += inf_bits.view(np.float64)
    # each node's first (column, row) within the band of its lowest SSE; a
    # NaN lowest (overflowed squares) fails the band and the finite test
    lines = sse.reshape(count, k * width)
    low = lines.min(axis=1)
    band = low + _TIE_EPS * last.imag.max(axis=1)
    within = np.less_equal(lines, band[:, None], out=barred.reshape(count, -1))
    best = np.argmax(within, axis=1)
    nodes = np.arange(count)
    column, pick = np.divmod(best, width)
    left_sum = sums.reshape(count, -1)[nodes, best].real
    return (np.where(low < math.inf, column, -1), pick, left_sum,
            last.real[nodes, column])


def _search(X, keys, shift, rows, y_rows, starts, sizes, features, min_leaf, work):
    """Best split of each of a step's nodes.

    Node g holds slots ``starts[g]:starts[g] + sizes[g]`` of ``rows`` and
    ``y_rows``, with candidate columns ``features[g]`` (ascending). The
    nodes, taken by ascending size, are scored in blocks (``_blocks``,
    ``_score_block``), each picking its own split by the tie rule (lowest
    feature, then lowest threshold, within the band); a node without a
    column does not search.

    Returns the positions of the nodes that split, with their feature, left
    child size, threshold and children's target sums (the cumulative sum at
    the cut along the chosen column, and that column's last less it), and
    writes each split node's slots back in the chosen column's sorted order,
    so that each child holds a contiguous run of them.
    """
    count, k = features.shape
    by_size = np.argsort(sizes, kind="stable")
    starts, sizes, features = (a[by_size] for a in (starts, sizes, features))
    # each node's slots padded to the largest with the last slot, row n
    # with target 0; each target with its square as the imaginary part
    slots, real = _positions(starts, sizes, len(rows) - 1)
    node_rows = rows[slots]
    node_ys = np.empty(slots.shape, np.complex128)
    node_ys.real = y_rows[slots]
    np.multiply(node_ys.real, node_ys.real, out=node_ys.imag)
    width = slots.shape[1]
    columns, picks = np.full(count, -1), np.empty(count, np.intp)
    left_sums, last_sums = np.empty(count), np.empty(count)
    if k:  # with no column there is no split
        for a, b in _blocks(sizes.tolist(), k):
            columns[a:b], picks[a:b], left_sums[a:b], last_sums[a:b] = _score_block(
                keys, shift, node_rows[a:b, :sizes[b - 1]], node_ys.reshape(-1),
                np.arange(a, b) * width, sizes[a:b], features[a:b], min_leaf, work)
    split = np.flatnonzero(columns >= 0)
    n_left = picks[split] + 1
    f = features[split, columns[split]]
    left_total = left_sums[split]
    # the split nodes' rows sorted along the chosen column once more, and
    # their slots rewritten in that order
    first, real = starts[split, None], real[split]
    block = keys[f[:, None], node_rows[split]] | np.arange(width, dtype=keys.dtype)
    block.sort(axis=-1)
    moved = (first + (block & ((1 << shift) - 1)))[real]
    slots = (first + np.arange(width))[real]
    rows[slots], y_rows[slots] = rows[moved], y_rows[moved]
    cut = first[:, 0] + n_left  # each right child's first slot
    threshold = 0.5 * (X[rows[cut - 1], f] + X[rows[cut], f])
    return (by_size[split], f, n_left, threshold, left_total,
            last_sums[split] - left_total)


def _grow(X: np.ndarray, y: np.ndarray, n_trees: int, max_depth: int | None,
          min_leaf: int, bootstrap: bool, k: int, seed: int) -> tuple[list, list, int]:
    """``n_trees`` trees, grown in lockstep.

    The i-th tree has its rows in slots ``i * n:(i + 1) * n`` of
    ``rows``, and each node owns a contiguous run of its tree's slots;
    ``y_rows`` holds the slots' targets. The last slot is the padding row n.
    Nodes are numbered as they are made, the roots first. Each tree keeps
    its depth-first stack of searching nodes in its row of the stack
    arrays, as (node, start, size, depth, target sum), with its height in
    ``heights``; a root's target sum is its slots' last cumulative sum, and
    ``_search`` gives each split's children theirs. Returns each step's leaf
    and split records for ``_trees``, and the node count.
    """
    n, p = X.shape
    keys, shift = _rank_keys(X)
    work = _workspace(max(_BLOCK_ELEMENTS, k * (n + 1)), keys.dtype)
    states = stream_states([derive_seed(seed, t) for t in range(n_trees)])
    if bootstrap:
        rows = multiply_shift(next_u64s(states, n), n).reshape(-1)
    else:
        rows = np.tile(np.arange(n), n_trees)
    rows = np.append(rows, n)
    y_rows = np.append(y[rows[:-1]], 0.0)
    heights = np.zeros(n_trees, np.intp)
    # room for 16 levels, doubled whenever a stack outgrows it
    stack = [np.empty((n_trees, 16), dtype) for dtype in (np.intp,) * 4 + (np.float64,)]
    leaves, splits = [], []  # (nodes, values); (nodes, features, thresholds, rights, lefts)
    # the nodes made last, to settle: the roots, then each step's children,
    # right before left, so that left goes on top
    made = tree_of = np.arange(n_trees)
    made_next = n_trees
    starts, sizes, depths = tree_of * n, np.full(n_trees, n), np.zeros(n_trees, np.intp)
    totals = np.cumsum(y_rows[:-1].reshape(n_trees, n), axis=1)[:, -1]
    for step in itertools.count():
        leaf = sizes < 2 * min_leaf
        if max_depth is not None:
            leaf |= depths >= max_depth
        search = np.flatnonzero(~leaf)
        if search.size:
            leaf[search] = _all_equal(y_rows, starts[search], sizes[search])
        leaves.append((made[leaf], totals[leaf] / sizes[leaf]))
        push = ~leaf
        trees = tree_of[push]
        # a tree's second child on the stack this step goes above its first
        level = heights[trees] + np.append(0, trees[1:] == trees[:-1])
        while level.size and level.max() >= stack[0].shape[1]:
            stack = [np.hstack([a, np.empty_like(a)]) for a in stack]
        for a, values in zip(stack, (made, starts, sizes, depths, totals)):
            a[trees, level] = values[push]
        heights += np.bincount(trees, minlength=n_trees)
        live = np.flatnonzero(heights)
        if not live.size:
            break
        if step % _TABLE_ROWS == 0:
            drawn = states[live]
            table = samples_without_replacement(drawn, p, k, _TABLE_ROWS)
            table.sort(axis=-1)
            states[live] = drawn
            table_trees = live
        heights[live] -= 1
        nodes, starts, sizes, depths, totals = (a[live, heights[live]] for a in stack)
        features = table[np.searchsorted(table_trees, live), step % _TABLE_ROWS]
        split, f, n_left, threshold, left_totals, right_totals = _search(
            X, keys, shift, rows, y_rows, starts, sizes, features.astype(np.intp), min_leaf,
            work)
        unsplit = np.ones(live.size, bool)
        unsplit[split] = False
        leaves.append((nodes[unsplit], totals[unsplit] / sizes[unsplit]))
        made = np.arange(made_next, made_next + 2 * split.size)
        made_next += made.size
        splits.append((nodes[split], f, threshold, made[0::2], made[1::2]))
        tree_of = np.repeat(live[split], 2)
        starts, sizes = starts[split], sizes[split]
        starts = np.column_stack([starts + n_left, starts]).reshape(-1)
        sizes = np.column_stack([sizes - n_left, n_left]).reshape(-1)
        totals = np.column_stack([right_totals, left_totals]).reshape(-1)
        depths = np.repeat(depths[split] + 1, 2)
    return leaves, splits, made_next


def _trees(leaves, splits, n_nodes: int, n_trees: int) -> list[dict]:
    """The trees as nested dicts, from ``_grow``'s per-step records of its
    ``n_nodes`` nodes: (nodes, values) for the leaves and (nodes, features,
    thresholds, right children, left children) for the splits."""
    nodes = [None] * n_nodes
    for made, values in leaves:
        for node, value in zip(made.tolist(), values.tolist()):
            nodes[node] = {"value": value}
    # a step's children split, if at all, at later steps: so built last
    # step first, every split node finds its children made
    for made, *fields in reversed(splits):
        for node, feature, threshold, right, left in zip(made.tolist(), *(
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
