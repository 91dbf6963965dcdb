"""CART decision trees with Gini impurity, grown in lockstep.

``fit_lockstep`` grows a batch of trees at once: the single tree of a
``DecisionTreeClassifier`` or all trees of a ``RandomForestClassifier``.
Each tree keeps its own depth-first stack, pushing the right child before
the left, so it visits its nodes in preorder.  Every step pops the next node
of every tree that still has one and searches all of their splits in one
vectorized pass, which removes the numpy call overhead of many small
per-node searches.  Growing one depth at a time instead would not keep the
draw order: a right child's draws depend on the size of its left sibling's
subtree.

Split search is exact: every candidate feature is scanned at the midpoints
between consecutive distinct values.  Each tree's columns are sorted once
(stable argsort), and a node's members are compacted to the front of that
order.  Class counts are cumulated with the class axis last and contiguous,
so the Gini sums add in the same order as a per-node search would.
Determinism is pinned down to tie level: equal gains go to the earlier
feature in candidate order, then to the lower threshold; leaf ties go to
the smallest class index.  Only a node that passes the stop checks (impure,
at least ``min_samples_split`` rows, above ``max_depth``) draws its
``permutation(d)``, from its own tree's PCG64 stream and in preorder, and
importances accumulate in that same order.  So a tree's nodes, thresholds
and importances do not depend on which other trees share its batch.
"""

from __future__ import annotations

import numpy as np

from ..rng import derive_seed
from .base import check_array, check_count, check_is_fitted, check_X_y

# cap on rows x features x classes per lockstep batch, which bounds the
# memory of the per-step arrays; larger forests are grown in several batches
BATCH_CELLS = 1 << 22


class DecisionTreeClassifier:
    """Gini-impurity CART; unlimited depth unless capped.

    ``max_features`` limits how many non-constant features each node
    examines (drawn in seeded random order; constant features do not consume
    the budget).  ``feature_importances_`` accumulates total impurity
    decrease weighted by the fraction of samples reaching each split.
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
        self.max_depth = max_depth
        self.min_samples_split = check_count("min_samples_split", min_samples_split, 2)
        self.max_features = max_features
        self.random_state = random_state
        self.tree_ = None
        self.n_classes_ = None
        self.n_features_ = None
        self.feature_importances_ = None

    def fit(self, X, y, n_classes: int | None = None) -> "DecisionTreeClassifier":
        X, y, k = check_X_y(X, y, n_classes)
        fit_lockstep([self], X, y, k, np.arange(X.shape[0])[None, :])
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "tree_")
        X = check_array(X)
        predictions = np.empty(X.shape[0], dtype=np.int64)
        for i, row in enumerate(X):
            node = self.tree_
            while "feature" in node:
                node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
            predictions[i] = node["class"]
        return predictions

    def get_fitted_state(self) -> dict:
        check_is_fitted(self, "tree_")
        return {
            "n_classes": int(self.n_classes_),
            "n_features": int(self.n_features_),
            "tree": self.tree_,
        }

    def load_fitted_state(self, state: dict) -> "DecisionTreeClassifier":
        """Restore a saved tree, checking every node so that ``predict``
        reaches only valid features and classes."""
        self.n_classes_ = int(state["n_classes"])
        self.n_features_ = int(state["n_features"])
        stack = [state["tree"]]
        while stack:
            node = stack.pop()
            if "feature" not in node:
                valid = _is_index(node["class"], self.n_classes_)
            else:
                threshold_ok = type(node["threshold"]) in (int, float)
                valid = threshold_ok and _is_index(node["feature"], self.n_features_)
                stack += [node["left"], node["right"]]
            if not valid:
                raise ValueError("a tree node holds a bad class, feature or threshold")
        self.tree_ = state["tree"]
        return self


def _is_index(value, size: int) -> bool:
    """True for an int in ``range(size)``; JSON booleans and floats are not."""
    return type(value) is int and 0 <= value < size


def fit_lockstep(trees, X, y, n_classes: int, samples) -> None:
    """Fit ``trees[i]`` on the rows ``samples[i]`` of a checked ``X``, ``y``.

    The trees must share ``max_depth``, ``min_samples_split`` and
    ``max_features``; each draws from its own ``random_state``.  Every tree
    comes out as if fitted alone, so the batch size never changes a model.
    """
    first = trees[0]
    n_rows, d = samples.shape[1], X.shape[1]
    batch = max(1, BATCH_CELLS // max(1, n_rows * d * n_classes))
    for start in range(0, len(trees), batch):
        chunk = trees[start : start + batch]
        rngs = [
            np.random.Generator(np.random.PCG64(derive_seed(t.random_state or 0)))
            for t in chunk
        ]
        roots, importances = _grow_lockstep(
            X[samples[start : start + batch]],
            y[samples[start : start + batch]],
            n_classes,
            rngs,
            first.max_features,
            first.max_depth,
            first.min_samples_split,
        )
        for tree, root, importance in zip(chunk, roots, importances):
            tree.tree_ = root
            tree.n_classes_ = n_classes
            tree.n_features_ = d
            tree.feature_importances_ = importance


def _grow_lockstep(Xt, yt, k, rngs, max_features, max_depth, min_samples_split):
    """Grow one tree per leading row of ``Xt`` (trees, rows, features) and
    ``yt`` (trees, rows); returns the root nodes and the importances."""
    n_trees, n_rows, d = Xt.shape
    one_hot = np.eye(k)[yt]  # (trees, rows, classes)
    by_value = np.argsort(Xt, axis=1, kind="stable")  # row positions in value order, per column
    X_rows = np.ascontiguousarray(Xt.transpose(1, 0, 2))
    draws = max_features is not None and max_features < d
    budget = max_features if draws else d
    importances = np.zeros((n_trees, d))
    # per tree, the nodes that pass the stop checks and wait for a split:
    # (node to fill in, member mask over the tree's rows, depth)
    stacks = [[] for _ in range(n_trees)]

    def settle(nodes, trees, masks, depths):
        """Make each new node a leaf, or push it if it passes the stop checks."""
        counts, sizes, gini = _node_stats(one_hot, trees, masks)
        grows = (gini != 0.0) & (sizes >= min_samples_split)
        if max_depth is not None:
            grows &= depths < max_depth
        for i, (t, grow, majority) in enumerate(
            zip(trees.tolist(), grows.tolist(), counts.argmax(axis=1).tolist())
        ):
            if grow:
                stacks[t].append((nodes[i], masks[i], depths[i]))
            else:
                nodes[i]["class"] = majority

    roots = [{} for _ in range(n_trees)]
    everyone = np.ones((n_trees, n_rows), dtype=bool)
    settle(roots, np.arange(n_trees), everyone, np.zeros(n_trees, dtype=np.int64))
    active = [t for t in range(n_trees) if stacks[t]]
    while active:
        popped = [stacks[t].pop() for t in active]
        trees = np.array(active)
        masks = np.stack([members for _, members, _ in popped])
        counts, sizes, gini = _node_stats(one_hot, trees, masks)
        if draws:  # one draw per popped node, from its own tree's stream
            orders = np.array([rngs[t].permutation(d) for t in active])
        else:
            orders = np.broadcast_to(np.arange(d), (len(active), d))
        columns, n_columns = _candidate_columns(X_rows[:, trees], masks, orders, budget)
        splits = np.flatnonzero(n_columns)
        majority = counts.argmax(axis=1).tolist()
        for b in np.flatnonzero(n_columns == 0).tolist():
            popped[b][0]["class"] = majority[b]
        if splits.size:
            trees, masks, sizes = trees[splits], masks[splits], sizes[splits]
            feature, threshold, gain = _best_splits(
                Xt, one_hot, by_value, trees, masks, columns[splits], n_columns[splits],
                counts[splits], sizes, gini[splits],
            )
            importances[trees, feature] += (sizes / n_rows) * gain
            goes_left = Xt[trees, :, feature] <= threshold[:, None]
            children, depths = [], []
            for b, f, t in zip(splits.tolist(), feature.tolist(), threshold.tolist()):
                node, _, depth = popped[b]
                node.update(feature=f, threshold=t, left={}, right={})
                children += [node["right"], node["left"]]
                depths.append(depth + 1)
            # right before left, so that each tree pops its left child first
            child_masks = np.stack([masks & ~goes_left, masks & goes_left], axis=1)
            settle(
                children,
                np.repeat(trees, 2),
                child_masks.reshape(-1, n_rows),
                np.repeat(depths, 2),
            )
        active = [t for t in active if stacks[t]]
    return roots, importances


def _node_stats(one_hot, trees, masks):
    """Class counts, sizes and Gini impurity of nodes given as member masks."""
    counts = np.matmul(masks[:, None, :].astype(np.float64), one_hot[trees])[:, 0]
    sizes = masks.sum(axis=1)
    return counts, sizes, 1.0 - ((counts / sizes[:, None]) ** 2).sum(axis=1)


def _candidate_columns(X_rows, masks, orders, budget: int):
    """Each node's first ``budget`` non-constant columns in ``orders``.

    Returns (nodes, width) column ids, left-aligned, and how many of each
    row are real; the rest of a row is padding.  ``X_rows`` is (rows,
    nodes, features), because numpy takes a min or max over the outer axis
    much faster than over a middle one.
    """
    inside = masks.T[:, :, None]
    lowest = np.where(inside, X_rows, np.inf).min(axis=0)
    varies = lowest < np.where(inside, X_rows, -np.inf).max(axis=0)
    rows = np.arange(len(orders))[:, None]
    ordered = varies[rows, orders]
    chosen = ordered & (np.cumsum(ordered, axis=1) <= budget)
    n_chosen = chosen.sum(axis=1)
    front = np.argsort(~chosen, axis=1, kind="stable")[:, : n_chosen.max()]
    return orders[rows, front], n_chosen


def _best_splits(Xt, one_hot, by_value, trees, masks, columns, n_columns, counts, sizes, gini):
    """Best (feature, threshold, gain) of each node over its columns.

    Ties break to the earlier column in ``columns`` and then to the lower
    split position.
    """
    n_nodes, width = columns.shape
    pick = np.arange(n_nodes)
    node_axis, tree_axis = pick[:, None, None], trees[:, None, None]
    column_axis = columns[:, None, :]
    # each column's row positions in value order, with the node's members first
    order = by_value[tree_axis, np.arange(Xt.shape[1])[None, :, None], column_axis]
    n = int(sizes.max())
    front = np.argsort(~masks[node_axis, order], axis=1, kind="stable")[:, :n]
    order = order[node_axis, front, np.arange(width)]
    xs = Xt[tree_axis, order, column_axis]  # (nodes, n, width)
    left_counts = np.cumsum(one_hot[tree_axis, order], axis=1)[:, :-1]
    n_left = np.arange(1, n, dtype=np.float64)[None, :, None]
    n_right = sizes[:, None, None] - n_left  # not positive past a node's last member
    right_counts = counts[:, None, None, :] - left_counts
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_left = 1.0 - ((left_counts / n_left[..., None]) ** 2).sum(axis=3)
        gini_right = 1.0 - ((right_counts / n_right[..., None]) ** 2).sum(axis=3)
        weighted = (n_left * gini_left + n_right * gini_right) / sizes[:, None, None]
    real = np.arange(width) < n_columns[:, None, None]
    valid = (xs[:, 1:] > xs[:, :-1]) & (n_right > 0) & real
    gains = np.where(valid, gini[:, None, None] - weighted, -np.inf)
    flat = gains.transpose(0, 2, 1).reshape(n_nodes, -1).argmax(axis=1)  # feature-major
    column, position = np.divmod(flat, n - 1)
    threshold = (xs[pick, position, column] + xs[pick, position + 1, column]) / 2.0
    return columns[pick, column], threshold, gains[pick, position, column]
