"""CART decision trees with Gini impurity, grown in lockstep as flat arrays.

A fitted tree is a row of flat node arrays (``Nodes``): feature, threshold,
left, right and class, one entry per node, with node 0 the root.  A forest
keeps all of its trees as rows of one set of arrays.  Growth and prediction
work on these arrays with no Python work per node.  The nested dict of a
tree (``{"feature", "threshold", "left", "right"}`` or ``{"class"}``) is made
only at the edges: ``Nodes.render`` builds it for the model file of a tree
or a forest, and ``Nodes.parse`` checks a loaded one node by node and fills
the arrays from it.  Both work without recursion, so a deep tree fits,
renders and parses; the JSON encoder and decoder do recurse, and a model
file of a tree deeper than their limit is refused when it is written.

``fit_lockstep`` grows a batch of trees at once, each on its own sample
rows of one block of data: the single tree of a ``DecisionTreeClassifier``
on its whole block, or the trees of a group of equal-shape forests
(``forest.fit_forests``), each forest a block.  No tree copies its rows.
Trees of unequal sample counts share the lockstep's arrays: each tree's
sample is padded to the batch's width, and each tree's own count is passed
in.  A padding position starts at the id ``2 * rows - 1``, above every
node id and still within the narrowest id type, so it is never popped and
never a member; the root's class counts and size, and the weights of its
importances, come from the tree's own count.
Each tree keeps its own depth-first stack of node ids, pushing the right
child before the left, so it visits its nodes in preorder.  Every step pops
the next node of every tree that still has one and searches all of their
splits in one vectorized pass, which removes the numpy call overhead of
many small per-node searches.  Row membership is one node id per row, so a
popped node's rows are those that hold its id, and a split moves its rows
to the children's ids.  Growing one depth at a time instead would not keep
the draw order: a right child's draws depend on the size of its left
sibling's subtree.

Split search is exact: every candidate feature is scanned at the midpoints
between consecutive distinct values.  Each block's columns are ranked once
(equal values share a rank), and each tree's columns are sorted once by
rank, stably, with ranks and labels alike; a threshold is the mean of the
two float values around it.  Growth keeps ranks, row positions, labels,
counts and node ids in the smallest integer type that holds them: one byte
each up to 255 rows and 256 classes (node ids up to 128 rows).  A step
gathers the members of every popped node, in each candidate column's value
order, into flat arrays (the root step of a group of forests, where every
tree pops all of its rows, in parts), and counts the rows of each class
left of every split as differences of integer running counts, one class at
a time, so the counts are exact.  The Gini sums add the class shares in the
order of numpy's pairwise sum over a class-last axis (``_class_sum``), so
they have the bits of a per-node search.  A node's class counts come from
its parent's split (the left child's from the running counts, the right
child's as the rest), so only the roots are counted from their labels.
Determinism is pinned down to tie level: equal gains go to the earlier
feature in candidate order, then to the lower threshold; leaf ties go to
the smallest class index.  Only a node that passes the stop checks (impure,
at least ``min_samples_split`` rows, above ``max_depth``) draws its
``permutation(d)``, from its own tree's PCG64 stream and in preorder, and
importances accumulate in that same order.  The permutations are drawn
ahead in blocks (``Generator.permuted`` on stacked ``arange(d)`` rows gives
the same stream as successive ``permutation(d)`` calls), and the generators
of a batch are built together by ``seeding.pcg64_generators``.  So a tree's
nodes, thresholds and importances do not depend on which other trees share
its batch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..core import RecordSpec, read_record
from .seeding import derive_seeds, pcg64_generators
from .base import check_array, check_count, check_is_fitted, check_X_y

# permutations each tree draws ahead at a time
PERMUTATION_BLOCK = 8

# nodes per tree that growth makes room for at first; it doubles the room
# when a tree needs more
INITIAL_CAPACITY = 16

# a saved tree's fitted state
TREE_STATE = RecordSpec(("n_classes", int), ("n_features", int), ("tree", dict))


class Nodes(NamedTuple):
    """Trees as flat node arrays, one row per tree.

    A child's id is above its parent's.  A leaf has feature -1 and points
    left and right to itself, so a descent may go on past it; ``depth`` is
    how many steps reach every leaf of a tree.
    """

    feature: np.ndarray  # (trees, capacity) int64
    threshold: np.ndarray  # (trees, capacity) float64
    left: np.ndarray  # (trees, capacity) int64
    right: np.ndarray  # (trees, capacity) int64
    leaf_class: np.ndarray  # (trees, capacity) int64, read at leaves only
    count: np.ndarray  # (trees,) nodes in use
    depth: np.ndarray  # (trees,) edges on the longest root-to-leaf path

    PER_NODE = ("feature", "threshold", "left", "right", "leaf_class")

    # the types of the feature, child id and leaf class arrays of a fitted
    # or loaded tree; growth uses the smallest types that hold its values
    TYPES = (np.int64, np.int64, np.int64)

    @classmethod
    def leaves_only(cls, n_trees: int, capacity: int, types=TYPES) -> "Nodes":
        feature, node, leaf_class = types
        ids = np.broadcast_to(np.arange(capacity), (n_trees, capacity))
        return cls(
            feature=np.full((n_trees, capacity), -1, dtype=feature),
            threshold=np.zeros((n_trees, capacity)),
            left=ids.astype(node),
            right=ids.astype(node),
            leaf_class=np.zeros((n_trees, capacity), dtype=leaf_class),
            count=np.ones(n_trees, dtype=np.int64),
            depth=np.zeros(n_trees, dtype=np.int64),
        )

    @classmethod
    def stack(cls, parts: list["Nodes"], capacity: int | None = None, types=TYPES) -> "Nodes":
        """The trees of ``parts`` in order, as one set of arrays of ``types``
        with room for ``capacity`` nodes a tree, by default for the largest
        tree."""
        if capacity is None:
            capacity = max(int(part.count.max()) for part in parts)
        stacked = cls.leaves_only(sum(len(part.count) for part in parts), capacity, types)
        start = 0
        for part in parts:
            rows, width = len(part.count), min(part.feature.shape[1], capacity)
            for name in cls.PER_NODE:
                getattr(stacked, name)[start : start + rows, :width] = getattr(part, name)[:, :width]
            stacked.count[start : start + rows] = part.count
            stacked.depth[start : start + rows] = part.depth
            start += rows
        return stacked

    def classes(self, X: np.ndarray) -> np.ndarray:
        """The leaf class that each tree gives each row of ``X``, (trees, rows)."""
        n_trees, capacity = self.feature.shape
        # a node as its index into the raveled arrays, starting at each root
        offset = (np.arange(n_trees) * capacity)[:, None]
        node = np.broadcast_to(offset, (n_trees, X.shape[0]))
        rows = np.arange(X.shape[0])
        feature, threshold = self.feature.ravel(), self.threshold.ravel()
        left, right = (self.left + offset).ravel(), (self.right + offset).ravel()
        for _ in range(int(self.depth.max(initial=0))):
            goes_left = X[rows, feature[node]] <= threshold[node]
            node = np.where(goes_left, left[node], right[node])
        return self.leaf_class.ravel()[node]

    def state(self, t: int, n_classes: int, n_features: int) -> dict:
        """Tree ``t``'s saved state, a ``TREE_STATE`` record."""
        return {"n_classes": int(n_classes), "n_features": int(n_features), "tree": self.render(t)}

    def render(self, t: int) -> dict:
        """Tree ``t`` as the nested dict of the model file, built bottom-up."""
        count = int(self.count[t])
        feature = self.feature[t, :count].tolist()
        threshold = self.threshold[t, :count].tolist()
        left, right = self.left[t, :count].tolist(), self.right[t, :count].tolist()
        leaf_class = self.leaf_class[t, :count].tolist()
        made: list[dict] = [{}] * count
        for i in reversed(range(count)):  # children before their parent
            if feature[i] < 0:
                made[i] = {"class": leaf_class[i]}
            else:
                made[i] = {
                    "feature": feature[i],
                    "threshold": threshold[i],
                    "left": made[left[i]],
                    "right": made[right[i]],
                }
        return made[0]

    @classmethod
    def parse(cls, root: dict, n_features: int, n_classes: int) -> "Nodes":
        """One saved tree's arrays, checking every node so that a descent
        reaches only valid features and classes.  Ids follow preorder."""
        feature, threshold, left, right, leaf_class, depth = [], [], [], [], [], []
        stack = [(root, 0, None)]  # (node, depth, (left or right, parent id) to fill)
        while stack:
            node, level, link = stack.pop()
            i = len(feature)
            if link is not None:
                link[0][link[1]] = i
            depth.append(level)
            left.append(i)
            right.append(i)
            if "feature" not in node:
                if not _is_index(node["class"], n_classes):
                    raise ValueError("a tree node holds a bad class, feature or threshold")
                feature.append(-1)
                threshold.append(0.0)
                leaf_class.append(node["class"])
                continue
            value = node["threshold"]
            if type(value) not in (int, float) or not _is_index(node["feature"], n_features):
                raise ValueError("a tree node holds a bad class, feature or threshold")
            try:
                threshold.append(float(value))
            except OverflowError:  # an int beyond the float range
                raise ValueError("a tree node holds a bad class, feature or threshold") from None
            feature.append(node["feature"])
            leaf_class.append(0)
            stack += [(node["right"], level + 1, (right, i)), (node["left"], level + 1, (left, i))]
        return cls(
            feature=np.array([feature], dtype=np.int64),
            threshold=np.array([threshold], dtype=np.float64),
            left=np.array([left], dtype=np.int64),
            right=np.array([right], dtype=np.int64),
            leaf_class=np.array([leaf_class], dtype=np.int64),
            count=np.array([len(feature)], dtype=np.int64),
            depth=np.array([max(depth)], dtype=np.int64),
        )


class DecisionTreeClassifier:
    """Gini-impurity CART; unlimited depth unless capped (``max_depth`` 0
    makes the root a leaf, a majority vote).

    Every node examines every feature, so a fit draws nothing and takes no
    seed; a forest's trees, which examine a drawn subset
    (``RandomForestClassifier.max_features``), are grown by
    ``forest.fit_forests``.  ``feature_importances_`` accumulates total
    impurity decrease weighted by the fraction of samples reaching each
    split.  The fitted tree is ``nodes_``, flat arrays; ``tree_`` renders it
    as a nested dict.
    """

    def __init__(self, max_depth: int | None = None, min_samples_split: int = 2):
        if max_depth is not None:
            max_depth = check_count("max_depth", max_depth, 0)
        self.max_depth = max_depth
        self.min_samples_split = check_count("min_samples_split", min_samples_split, 2)
        self.nodes_ = None
        self.n_classes_ = None
        self.n_features_ = None
        self.feature_importances_ = None

    @property
    def tree_(self) -> dict | None:
        """The fitted tree as nested dicts, made anew on every read."""
        return None if self.nodes_ is None else self.nodes_.render(0)

    def fit(self, X, y, n_classes: int | None = None) -> "DecisionTreeClassifier":
        X, y, k = check_X_y(X, y, n_classes)
        nodes, importances = fit_lockstep(
            X[None], y[None], np.arange(len(y))[None], np.array([len(y)]), k, [0], None,
            self.max_depth, self.min_samples_split,
        )
        self.nodes_ = Nodes.stack([nodes])
        self.n_classes_ = k
        self.n_features_ = X.shape[1]
        self.feature_importances_ = importances[0]
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "nodes_")
        return self.nodes_.classes(check_array(X))[0]

    def get_fitted_state(self) -> dict:
        check_is_fitted(self, "nodes_")
        return self.nodes_.state(0, self.n_classes_, self.n_features_)

    def load_fitted_state(self, state: dict) -> "DecisionTreeClassifier":
        """Restore a saved tree, checking every node so that ``predict``
        reaches only valid features and classes."""
        self.n_classes_, self.n_features_, root = read_record(state, TREE_STATE, "state")
        self.nodes_ = Nodes.parse(root, self.n_features_, self.n_classes_)
        return self


def _is_index(value, size: int) -> bool:
    """True for an int in ``range(size)``; JSON booleans and floats are not."""
    return type(value) is int and 0 <= value < size


def fit_lockstep(
    X, y, rows, n_samples, n_classes: int, random_states, max_features, max_depth,
    min_samples_split,
) -> tuple[Nodes, np.ndarray]:
    """Fit tree ``i`` on the first ``n_samples[i]`` rows of ``rows[i]`` of
    checked (blocks, rows, features) and (blocks, rows) arrays, all in one
    lockstep; return their nodes, in growth's narrow types (``Nodes.stack``
    makes the int64 arrays of a fitted tree), and their (trees, features)
    importances.

    ``rows`` (trees, rows) indexes the rows of all blocks in order, and each
    tree's rows lie in one block: a forest's block and its trees' samples.
    Tree ``i``'s positions past ``n_samples[i]`` (an int64 array) are
    padding, so that trees of unequal samples share the lockstep's arrays;
    they are never members of any node.
    Tree ``i`` draws from the stream of ``derive_seed(random_states[i])``.
    Every tree comes out as if fitted alone, so the batch never changes a
    model.  The per-step arrays grow with trees x rows x features x classes,
    so a caller that fits many trees bounds that product.
    """
    d = X.shape[2]
    draws = max_features is not None and max_features < d
    permutations = (
        _Permutations(pcg64_generators(derive_seeds(random_states)), d) if draws else None
    )
    return _grow_lockstep(
        X, y, rows, n_samples, n_classes, permutations, max_features if draws else d,
        max_depth, min_samples_split,
    )


class _Permutations:
    """Each tree's ``permutation(d)`` draws in stream order, drawn ahead
    ``PERMUTATION_BLOCK`` at a time.

    The blocks stay int64: ``Generator.permuted`` shuffles 8-byte items on
    a fast path, and a block of a narrower type takes about a quarter
    longer to draw.
    """

    def __init__(self, rngs, d: int):
        self.rngs = rngs
        self.identity = np.broadcast_to(np.arange(d), (PERMUTATION_BLOCK, d))
        self.drawn = np.empty((len(rngs), PERMUTATION_BLOCK, d), dtype=np.int64)
        self.outs = list(self.drawn)  # each tree's block, the ``out`` of its draws
        self.used = np.full(len(rngs), PERMUTATION_BLOCK)

    def next(self, trees: np.ndarray) -> np.ndarray:
        """The next permutation of each of ``trees`` (distinct tree ids)."""
        spent = trees[self.used[trees] == PERMUTATION_BLOCK]
        for t in spent.tolist():
            self.rngs[t].permuted(self.identity, axis=1, out=self.outs[t])
        self.used[spent] = 0
        orders = self.drawn[trees, self.used[trees]]
        self.used[trees] += 1
        return orders


class _Presorted(NamedTuple):
    """Each tree's columns in value order (stable argsort), as (trees,
    features, rows) arrays: the values' ranks within their block, the
    labels, and each member's position in its tree's rows.

    Equal values share a rank and ranks keep the values' order, so ranks
    order and compare members as their values do.  A block of at most 256
    rows keeps its ranks and positions as uint8.
    """

    rank: np.ndarray  # the smallest unsigned type that holds a position
    y: np.ndarray  # the smallest unsigned type that holds a class
    key: np.ndarray  # the type of ``rank``

    @classmethod
    def of(cls, X, y, rows, k: int) -> "_Presorted":
        n_rows, d = X.shape[1:]
        position = np.min_scalar_type(n_rows - 1)
        order = np.argsort(X, axis=1, kind="stable")
        ordered = np.take_along_axis(X, order, axis=1)
        rises = np.zeros(X.shape, dtype=position)
        np.cumsum(ordered[:, 1:] > ordered[:, :-1], axis=1, dtype=position, out=rises[:, 1:])
        ranks = np.empty_like(rises)
        np.put_along_axis(ranks, order, rises, axis=1)
        # each member as its rank and its position packed into one integer:
        # the packed values are distinct, and their sort is the stable sort
        # of the ranks
        bits = max(1, (n_rows - 1).bit_length())
        packed = ranks.reshape(-1, d)[rows].transpose(0, 2, 1)
        packed = packed.astype(np.min_scalar_type((1 << 2 * bits) - 1), order="C")
        packed <<= bits
        packed |= np.arange(n_rows, dtype=packed.dtype)
        packed.sort(axis=2)
        key = (packed & ((1 << bits) - 1)).astype(position)
        packed >>= bits
        labels = y.astype(np.min_scalar_type(k - 1)).reshape(-1)[rows]
        return cls(
            rank=packed.astype(position),
            y=labels[np.arange(len(rows))[:, None, None], key],
            key=key,
        )


def _grow_lockstep(X, y, rows, n_samples, k, permutations, budget, max_depth, min_samples_split):
    """Grow one tree per row of ``rows`` over the blocks ``X`` (blocks,
    rows, features) and ``y`` (blocks, rows), each on the first of its
    ``n_samples`` positions; returns their nodes and importances.

    ``permutations`` gives each popped node its column order, or is None
    when every node examines all columns in order.
    """
    n_trees, n_rows = rows.shape
    n_blocks, _, d = X.shape
    presorted = _Presorted.of(X, y, rows, k)
    X = X.reshape(-1, d)
    importances = np.zeros((n_trees, d))
    # n_rows rows split at most n_rows - 1 times, into at most 2 * n_rows - 1
    # nodes; each array takes the smallest type that holds its values
    node_id, row_count = np.min_scalar_type(2 * n_rows - 2), np.min_scalar_type(n_rows)
    types = (np.min_scalar_type(-d), node_id, np.min_scalar_type(k - 1))
    nodes = Nodes.leaves_only(n_trees, min(INITIAL_CAPACITY, 2 * n_rows - 1), types)
    node_depth = np.zeros_like(nodes.left)
    # a padding position holds 2 * n_rows - 1, an id no node takes (the
    # type holds it, as its largest value is odd), so it is never a member
    node_of_row = np.zeros((n_trees, n_rows), dtype=node_id)
    node_of_row[np.arange(n_rows) >= n_samples[:, None]] = 2 * n_rows - 1
    # per tree, the ids of nodes that passed the stop checks and wait for a
    # split, with their class counts, sizes and Gini impurities; they hold
    # disjoint rows, at least two each
    room = n_rows // 2 + 1
    stack = np.empty((n_trees, room), dtype=node_id)
    stack_counts = np.empty((k, n_trees, room), dtype=row_count)
    stack_sizes = np.empty((n_trees, room), dtype=row_count)
    stack_gini = np.empty((n_trees, room))
    height = np.zeros(n_trees, dtype=np.int64)

    def settle(trees, ids, counts, sizes):
        """Give new nodes their majority class from their (classes, nodes)
        ``counts`` and push those that pass the stop checks; a tree's nodes
        come in push order."""
        gini = _gini(counts, sizes)
        nodes.leaf_class[trees, ids] = counts.argmax(axis=0)
        grows = (gini != 0.0) & (sizes >= min_samples_split)
        if max_depth is not None:
            grows &= node_depth[trees, ids] < max_depth
        grows = np.flatnonzero(grows)
        trees = trees[grows]
        second = np.zeros(trees.size, dtype=np.int64)
        second[1:] = trees[1:] == trees[:-1]
        slot = height[trees] + second
        stack[trees, slot] = ids[grows]
        stack_counts[:, trees, slot] = counts[:, grows]
        stack_sizes[trees, slot] = sizes[grows]
        stack_gini[trees, slot] = gini[grows]
        height[:] += np.bincount(trees, minlength=n_trees)

    real = presorted.key[:, 0] < n_samples[:, None]  # in the first column's value order
    settle(
        np.arange(n_trees),
        np.zeros(n_trees, dtype=np.int64),
        ((presorted.y[:, 0] == np.arange(k)[:, None, None]) & real).sum(axis=2),
        n_samples,
    )
    # the flat arrays of a split search hold each popped node's rows once
    # per column it examines.  At the root step every tree pops all of its
    # rows, so a lockstep of several blocks (a group of forests) searches
    # that step in ``budget`` parts, each of about as many members as the
    # lockstep has rows.  One block's root step is searched whole, as a
    # forest alone always was: a part costs about as much as a step.
    parts = budget if n_blocks > 1 else 1
    while True:
        popped = np.flatnonzero(height)
        if not popped.size:
            break
        height[popped] -= 1
        size = -(-popped.size // parts)
        for start in range(0, popped.size, size):
            trees = popped[start : start + size]
            slot = height[trees]
            ids = stack[trees, slot]
            masks = node_of_row[trees] == ids[:, None]
            # each column's rows in value order, as indices into the raveled masks
            members = masks.ravel()[
                presorted.key[trees] + (np.arange(trees.size) * n_rows)[:, None, None]
            ]
            if permutations is not None:  # one draw per popped node, from its own tree's stream
                orders = permutations.next(trees)
            else:
                orders = np.broadcast_to(np.arange(d), (trees.size, d))
            columns, n_columns = _candidate_columns(presorted.rank, trees, members, orders, budget)
            splits = np.flatnonzero(n_columns)  # the others stay leaves
            if not splits.size:
                continue
            trees, ids, masks, slot = trees[splits], ids[splits], masks[splits], slot[splits]
            counts, sizes = stack_counts[:, trees, slot], stack_sizes[trees, slot].astype(np.int64)
            feature, threshold, gain, goes_left, left_sizes, left_counts = _best_splits(
                presorted, X, rows, trees, masks, members[splits], columns[splits],
                n_columns[splits], counts, sizes, stack_gini[trees, slot],
            )
            importances[trees, feature] += (sizes / n_samples[trees]) * gain
            left = nodes.count[trees]
            right = left + 1
            if right.max() >= nodes.feature.shape[1]:
                nodes = Nodes.stack([nodes], 2 * nodes.feature.shape[1], types)
                node_depth = np.concatenate([node_depth, np.zeros_like(node_depth)], axis=1)
            nodes.count[trees] += 2
            nodes.feature[trees, ids] = feature
            nodes.threshold[trees, ids] = threshold
            nodes.left[trees, ids] = left
            nodes.right[trees, ids] = right
            node_depth[trees, left] = node_depth[trees, right] = node_depth[trees, ids] + 1
            node_of_row[trees] = np.where(
                masks, np.where(goes_left, left[:, None], right[:, None]), node_of_row[trees]
            )
            # right before left, so that each tree pops its left child first
            settle(
                np.repeat(trees, 2),
                np.stack([right, left], axis=1).ravel(),
                np.stack([counts - left_counts, left_counts], axis=2).reshape(k, -1),
                np.stack([sizes - left_sizes, left_sizes], axis=1).ravel(),
            )
        parts = 1
    return nodes._replace(depth=node_depth.max(axis=1)), importances


def _class_sum(planes: np.ndarray) -> np.ndarray:
    """The sum over the leading (class) axis, added in the order in which
    numpy's pairwise ``sum`` adds a contiguous last axis: one running sum
    below 8 classes, eight running sums joined pairwise from 8 to 128, and
    two halves, cut at a multiple of 8, above 128.  So a class-major sum
    has the bits of the class-last ``.sum(axis=-1)``."""
    n = len(planes)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _class_sum(planes[:half]) + _class_sum(planes[half:])
    if n < 8:
        total, rest = planes[0].copy(), planes[1:]
    else:
        tail = n - n % 8
        lanes = planes[:8].copy()
        for start in range(8, tail, 8):
            lanes += planes[start : start + 8]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        rest = planes[tail:]
    for plane in rest:
        total += plane
    return total


def _gini(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Gini impurity from (classes, ...) integer counts and their sizes."""
    shares = counts / sizes
    return 1.0 - _class_sum(np.square(shares, out=shares))


def _candidate_columns(rank, trees, members, orders, budget: int):
    """Each node's first ``budget`` non-constant columns in ``orders``.

    ``rank`` holds each tree's columns in value order, and ``members``
    (nodes, features, rows) marks the rows of each node of ``trees`` in
    them, so a column varies when its first and last members differ.
    Returns (nodes, width) column ids, left-aligned, and how many of each
    row are real; the rest of a row is padding.
    """
    n_nodes, d, n_rows = members.shape
    start = (trees[:, None] * d + np.arange(d)) * n_rows  # each column's start in ``rank``
    lowest = start + members.argmax(axis=2)
    highest = start + n_rows - 1 - members[..., ::-1].argmax(axis=2)
    varies = rank.ravel()[lowest] < rank.ravel()[highest]
    rows = np.arange(n_nodes)[:, None]
    ordered = varies[rows, orders]
    chosen = ordered & (np.cumsum(ordered, axis=1) <= budget)
    n_chosen = chosen.sum(axis=1)
    front = np.argsort(~chosen, axis=1, kind="stable")[:, : n_chosen.max()]
    return orders[rows, front], n_chosen


def _best_splits(
    presorted, X, rows, trees, masks, members, columns, n_columns, counts, sizes, gini
):
    """Each node's best split over its columns, and its left child.

    Returns the (feature, threshold, gain) of each node, which of its
    tree's rows go left, and the left child's size and (classes, nodes)
    class counts.  The members of each (node, real column) pair are taken
    in the column's value order, pair after pair, into flat arrays; a split
    may follow any member whose successor in the pair has a larger value.
    Its threshold is the mean of those two members' values in ``X``.
    Class counts left of a split are differences of integer running counts
    per class, so they are exact, and the Gini sums add the classes in the
    order of a class-last sum (``_class_sum``).  Ties break to the earlier
    column in ``columns`` and then to the lower split position.
    """
    _, d, n_rows = presorted.rank.shape
    n_nodes, width = columns.shape
    node = np.repeat(np.arange(n_nodes), n_columns)
    column = columns[np.arange(width) < n_columns[:, None]]
    pair = trees[node] * d + column  # the pair's row in the raveled presorted arrays
    length = sizes[node]
    first = np.cumsum(length) - length  # each pair's first member in the flat arrays
    taken = np.flatnonzero(members[node, column])
    taken += np.repeat((pair - np.arange(pair.size)) * n_rows, length)
    ranks, ys = presorted.rank.ravel()[taken], presorted.y.ravel()[taken]
    owner = np.repeat(np.arange(pair.size), length)
    # the splits, each after a member; every node has at least one
    after = np.flatnonzero((ranks[1:] > ranks[:-1]) & (owner[1:] == owner[:-1]))
    after_pair = owner[after]
    after_node = node[after_pair]
    # each class's running count of the members before each position; int32,
    # as a step holds fewer than 2**31 members (16 GiB of float64 X a tree)
    running = np.empty((len(counts), ys.size + 1), dtype=np.int32)
    running[:, 0] = 0
    np.equal(ys, np.arange(len(counts))[:, None], out=running[:, 1:], casting="unsafe")
    np.cumsum(running[:, 1:], axis=1, out=running[:, 1:])
    left = running.take(after + 1, axis=1) - running.take(first[after_pair], axis=1)
    n_left = after + 1 - first[after_pair]
    n_right = sizes[after_node] - n_left
    weighted = (
        n_left * _gini(left, n_left) + n_right * _gini(counts[:, after_node] - left, n_right)
    ) / sizes[after_node]
    gains = gini[after_node] - weighted
    # each node's first split of the largest gain
    starts = np.searchsorted(after_node, np.arange(n_nodes))
    best = gains == np.maximum.reduceat(gains, starts)[after_node]
    pick = np.minimum.reduceat(np.where(best, np.arange(after.size), after.size), starts)
    split, chosen = after[pick], after_pair[pick]
    feature = column[chosen]
    # each node's tree's rows at its feature, and the two members around its split
    values = X.ravel()[rows[trees] * X.shape[1] + feature[:, None]]
    below, above = presorted.key.ravel()[taken[split]], presorted.key.ravel()[taken[split + 1]]
    threshold = (values[np.arange(n_nodes), below] + values[np.arange(n_nodes), above]) / 2.0
    goes_left = values <= threshold[:, None]
    # the left child: a prefix of the chosen pair's members
    left_sizes = np.count_nonzero(masks & goes_left, axis=1)
    start = first[chosen]
    left_counts = running[:, start + left_sizes] - running[:, start]
    return feature, threshold, gains[pick], goes_left, left_sizes, left_counts
