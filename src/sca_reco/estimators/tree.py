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

``fit_lockstep`` grows a batch of trees at once, each on its own block of
rows: the single tree of a ``DecisionTreeClassifier``, or the trees of a
group of equal-shape forests (``forest.fit_forests``).  Each tree keeps its
own depth-first stack of node ids, pushing the right child before the left,
so it visits its nodes in preorder.  Every step pops the next node of every
tree that still has one and searches all of their splits in one vectorized
pass, which removes the numpy call overhead of many small per-node
searches.  Row membership is one node id per row, so a popped node's rows
are those that hold its id, and a split moves its rows to the children's
ids.  Growing one depth at a time instead would not keep the
draw order: a right child's draws depend on the size of its left sibling's
subtree.

Split search is exact: every candidate feature is scanned at the midpoints
between consecutive distinct values.  Each tree's columns are sorted once
(stable argsort), values and labels alike.  A step gathers the members of
every popped node, in each candidate column's value order, into flat arrays,
and counts the rows of each class left of every split as differences of
integer running counts, one class at a time, so the counts are exact.  The
Gini sums add the class shares in the order of numpy's pairwise sum over a
class-last axis (``_class_sum``), so they have the bits of a per-node
search.  A node's class counts come from its parent's split (the left
child's from the running counts, the right child's as the rest), so only
the roots are counted from their labels.
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

    @classmethod
    def leaves_only(cls, n_trees: int, capacity: int) -> "Nodes":
        ids = np.broadcast_to(np.arange(capacity), (n_trees, capacity))
        return cls(
            feature=np.full((n_trees, capacity), -1, dtype=np.int64),
            threshold=np.zeros((n_trees, capacity)),
            left=ids.copy(),
            right=ids.copy(),
            leaf_class=np.zeros((n_trees, capacity), dtype=np.int64),
            count=np.ones(n_trees, dtype=np.int64),
            depth=np.zeros(n_trees, dtype=np.int64),
        )

    @classmethod
    def stack(cls, parts: list["Nodes"], capacity: int | None = None) -> "Nodes":
        """The trees of ``parts`` in order, as one set of arrays with room
        for ``capacity`` nodes a tree, by default for the largest tree."""
        if capacity is None:
            capacity = max(int(part.count.max()) for part in parts)
        stacked = cls.leaves_only(sum(len(part.count) for part in parts), capacity)
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

    ``max_features`` limits how many non-constant features each node
    examines (drawn in seeded random order; constant features do not consume
    the budget).  ``feature_importances_`` accumulates total impurity
    decrease weighted by the fraction of samples reaching each split.  The
    fitted tree is ``nodes_``, flat arrays; ``tree_`` renders it as a nested
    dict.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        max_features: int | None = None,
        random_state: int | None = None,
    ):
        if max_features is not None:
            max_features = check_count("max_features", max_features, 1)
        if max_depth is not None:
            max_depth = check_count("max_depth", max_depth, 0)
        self.max_depth = max_depth
        self.min_samples_split = check_count("min_samples_split", min_samples_split, 2)
        self.max_features = max_features
        self.random_state = random_state
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
            X[None], y[None], k, [self.random_state or 0],
            self.max_features, self.max_depth, self.min_samples_split,
        )
        self.nodes_ = nodes
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
    Xt, yt, n_classes: int, random_states, max_features, max_depth, min_samples_split
) -> tuple[Nodes, np.ndarray]:
    """Fit tree ``i`` on the rows ``Xt[i]``, ``yt[i]`` of checked
    (trees, rows, features) and (trees, rows) blocks, all in one lockstep;
    return their nodes and their (trees, features) importances.

    Tree ``i`` draws from the stream of ``derive_seed(random_states[i])``.
    Every tree comes out as if fitted alone, so the batch never changes a
    model.  The per-step arrays grow with trees x rows x features x classes,
    so a caller that fits many trees bounds that product.
    """
    d = Xt.shape[2]
    draws = max_features is not None and max_features < d
    permutations = (
        _Permutations(pcg64_generators(derive_seeds(random_states)), d) if draws else None
    )
    return _grow_lockstep(
        Xt, yt, n_classes, permutations, max_features if draws else d, max_depth, min_samples_split
    )


class _Permutations:
    """Each tree's ``permutation(d)`` draws in stream order, drawn ahead
    ``PERMUTATION_BLOCK`` at a time."""

    def __init__(self, rngs, d: int):
        self.rngs = rngs
        self.identity = np.broadcast_to(np.arange(d), (PERMUTATION_BLOCK, d))
        self.drawn = np.empty((len(rngs), PERMUTATION_BLOCK, d), dtype=np.int64)
        self.used = np.full(len(rngs), PERMUTATION_BLOCK)

    def next(self, trees: np.ndarray) -> np.ndarray:
        """The next permutation of each of ``trees`` (distinct tree ids)."""
        spent = trees[self.used[trees] == PERMUTATION_BLOCK]
        for t in spent.tolist():
            self.rngs[t].permuted(self.identity, axis=1, out=self.drawn[t])
        self.used[spent] = 0
        orders = self.drawn[trees, self.used[trees]]
        self.used[trees] += 1
        return orders


class _Presorted(NamedTuple):
    """Each tree's columns in value order (stable argsort), as (trees,
    features, rows) arrays: the values, the labels, and each row's index
    into the raveled (trees, rows) row arrays."""

    x: np.ndarray  # float64
    y: np.ndarray  # the smallest integer type that holds the classes
    key: np.ndarray  # int32: a lockstep holds fewer than 2**31 rows (16 GiB a float64 column)

    @classmethod
    def of(cls, Xt, yt, k: int) -> "_Presorted":
        n_trees, n_rows, _ = Xt.shape
        columns = Xt.transpose(0, 2, 1)
        key = np.argsort(columns, axis=2, kind="stable")
        x = np.take_along_axis(columns, key, axis=2)
        key = (key + (np.arange(n_trees) * n_rows)[:, None, None]).astype(np.int32)
        return cls(x=x, y=yt.astype(np.min_scalar_type(k - 1)).ravel()[key], key=key)


def _grow_lockstep(Xt, yt, k, permutations, budget, max_depth, min_samples_split):
    """Grow one tree per leading row of ``Xt`` (trees, rows, features) and
    ``yt`` (trees, rows); returns their nodes and importances.

    ``permutations`` gives each popped node its column order, or is None
    when every node examines all columns in order.
    """
    n_trees, n_rows, d = Xt.shape
    presorted = _Presorted.of(Xt, yt, k)
    importances = np.zeros((n_trees, d))
    # n_rows rows split at most n_rows - 1 times, into at most 2 * n_rows - 1 nodes
    nodes = Nodes.leaves_only(n_trees, min(INITIAL_CAPACITY, 2 * n_rows - 1))
    node_depth = np.zeros_like(nodes.feature)
    node_of_row = np.zeros((n_trees, n_rows), dtype=np.int32)  # ids stay below 2 * n_rows
    # per tree, the ids of nodes that passed the stop checks and wait for a
    # split, with their class counts, sizes and Gini impurities; they hold
    # disjoint rows, at least two each
    room = n_rows // 2 + 1
    stack = np.empty((n_trees, room), dtype=np.int64)
    stack_counts = np.empty((k, n_trees, room), dtype=np.int64)
    stack_sizes = np.empty((n_trees, room), dtype=np.int64)
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

    settle(
        np.arange(n_trees),
        np.zeros(n_trees, dtype=np.int64),
        (yt == np.arange(k)[:, None, None]).sum(axis=2),
        np.full(n_trees, n_rows),
    )
    while True:
        trees = np.flatnonzero(height)
        if not trees.size:
            break
        height[trees] -= 1
        slot = height[trees]
        ids = stack[trees, slot]
        masks = node_of_row[trees] == ids[:, None]
        members = node_of_row.ravel()[presorted.key[trees]] == ids[:, None, None]
        if permutations is not None:  # one draw per popped node, from its own tree's stream
            orders = permutations.next(trees)
        else:
            orders = np.broadcast_to(np.arange(d), (trees.size, d))
        columns, n_columns = _candidate_columns(presorted.x[trees], members, orders, budget)
        splits = np.flatnonzero(n_columns)  # the others stay leaves
        if not splits.size:
            continue
        trees, ids, masks, slot = trees[splits], ids[splits], masks[splits], slot[splits]
        counts, sizes = stack_counts[:, trees, slot], stack_sizes[trees, slot]
        feature, threshold, gain, goes_left, left_sizes, left_counts = _best_splits(
            presorted, Xt, trees, masks, members[splits], columns[splits], n_columns[splits],
            counts, sizes, stack_gini[trees, slot],
        )
        importances[trees, feature] += (sizes / n_rows) * gain
        left = nodes.count[trees]
        right = left + 1
        if right.max() >= nodes.feature.shape[1]:
            nodes = Nodes.stack([nodes], 2 * nodes.feature.shape[1])
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


def _candidate_columns(xs, members, orders, budget: int):
    """Each node's first ``budget`` non-constant columns in ``orders``.

    ``xs`` holds each node's tree's columns in value order and ``members``
    marks the node's rows in them, both (nodes, features, rows), so a column
    varies when its first and last members differ.  Returns (nodes, width)
    column ids, left-aligned, and how many of each row are real; the rest
    of a row is padding.
    """
    lowest = members.argmax(axis=2)[..., None]
    highest = members.shape[2] - 1 - members[..., ::-1].argmax(axis=2)[..., None]
    varies = (np.take_along_axis(xs, lowest, 2) < np.take_along_axis(xs, highest, 2))[..., 0]
    rows = np.arange(len(orders))[:, None]
    ordered = varies[rows, orders]
    chosen = ordered & (np.cumsum(ordered, axis=1) <= budget)
    n_chosen = chosen.sum(axis=1)
    front = np.argsort(~chosen, axis=1, kind="stable")[:, : n_chosen.max()]
    return orders[rows, front], n_chosen


def _best_splits(presorted, Xt, trees, masks, members, columns, n_columns, counts, sizes, gini):
    """Each node's best split over its columns, and its left child.

    Returns the (feature, threshold, gain) of each node, which of its
    tree's rows go left, and the left child's size and (classes, nodes)
    class counts.  The members of each (node, real column) pair are taken
    in the column's value order, pair after pair, into flat arrays; a split
    may follow any member whose successor in the pair has a larger value.
    Class counts left of a split are differences of integer running counts
    per class, so they are exact, and the Gini sums add the classes in the
    order of a class-last sum (``_class_sum``).  Ties break to the earlier
    column in ``columns`` and then to the lower split position.
    """
    _, d, n_rows = presorted.x.shape
    n_nodes, width = columns.shape
    node = np.repeat(np.arange(n_nodes), n_columns)
    column = columns[np.arange(width) < n_columns[:, None]]
    pair = trees[node] * d + column  # the pair's row in the raveled presorted arrays
    length = sizes[node]
    first = np.cumsum(length) - length  # each pair's first member in the flat arrays
    taken = np.flatnonzero(members[node, column])
    taken += np.repeat((pair - np.arange(pair.size)) * n_rows, length)
    xs, ys = presorted.x.ravel()[taken], presorted.y.ravel()[taken]
    owner = np.repeat(np.arange(pair.size), length)
    # the splits, each after a member; every node has at least one
    after = np.flatnonzero((xs[1:] > xs[:-1]) & (owner[1:] == owner[:-1]))
    after_pair = owner[after]
    after_node = node[after_pair]
    running = np.zeros((len(counts), xs.size + 1), dtype=np.int64)
    np.cumsum(ys == np.arange(len(counts))[:, None], axis=1, out=running[:, 1:])
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
    threshold = (xs[split] + xs[split + 1]) / 2.0
    feature = column[chosen]
    goes_left = Xt[trees, :, feature] <= threshold[:, None]
    # the left child: a prefix of the chosen pair's members
    left_sizes = np.count_nonzero(masks & goes_left, axis=1)
    start = first[chosen]
    left_counts = running[:, start + left_sizes] - running[:, start]
    return feature, threshold, gains[pick], goes_left, left_sizes, left_counts
