"""Complete increasing binary trees with empty leaves.

A tree with n labelled nodes carries the labels 1..n exactly once,
increasing from the root down; every labelled node has either no
children or exactly two, and a childless slot is an *empty leaf*.

Representation: an empty leaf is the string ``"e"``; a labelled leaf is
the 1-tuple ``(k,)``; an internal node is ``(k, left, right)``.  Tuples
make trees hashable, and the inorder word (labels and ``"e"`` read left
to right) is a faithful serialization: the root is the minimum label,
so the tree can be rebuilt by splitting the word at it.

The set of size-n trees splits by whether the rightmost leaf is
labelled (star class) or empty (circ class), and is graded by the last
labelled node on the rightmost path (``rmlab``).  Three label-shifting
maps move between adjacent grades; together with the initial classes
they replay the signed boustrophedon recurrence, and the snake
correspondence (``tree_to_snake``) transports the grading to first
entries of snakes.
"""
from __future__ import annotations

from itertools import combinations
from math import inf
from operator import itemgetter

from .errors import MembershipError, enforce_ceiling

EMPTY = "e"
DEFAULT_TREE_CEILING = 9


def is_empty(x) -> bool:
    return x == EMPTY


def is_leaf(node) -> bool:
    return len(node) == 1


def _walk_shape(node, lo: int, labels: list) -> None:
    """Append the labels of ``node``, hung below label ``lo``, to
    ``labels`` in preorder; every node must be a 1- or 3-tuple whose label
    is an ``int`` (not a ``bool``) larger than its parent's."""
    right = []  # (right subtree, its parent's label) still to walk
    while True:
        if node != EMPTY:
            if not isinstance(node, tuple) or len(node) not in (1, 3):
                raise ValueError(f"malformed node {node!r}")
            k = node[0]
            if type(k) is not int or k <= lo:
                raise ValueError(f"labels must increase from the root (saw {k} under {lo})")
            labels.append(k)
        if node != EMPTY and len(node) == 3:
            right.append((node[2], k))
            node, lo = node[1], k
        elif right:
            node, lo = right.pop()
        else:
            return


def validate_tree(tree) -> int:
    """Check completeness, label coverage and the increasing property."""
    labels = []
    _walk_shape(tree, 0, labels)
    size = len(labels)
    if sorted(labels) != list(range(1, size + 1)):
        raise ValueError("labels must be exactly 1..n")
    if size == 0:
        raise ValueError("tree must have at least one labelled node")
    return size


def emp(tree) -> int:
    """Number of empty leaves.  One loop walks down each right spine,
    counting empty left leaves as it passes them; inner left subtrees
    wait on a stack, so no node costs a call and any depth works."""
    count = 0
    lefts = []
    while True:
        while len(tree) == 3:
            _, left, tree = tree
            if left == EMPTY:
                count += 1
            elif len(left) == 3:
                lefts.append(left)
        if tree == EMPTY:
            count += 1
        if not lefts:
            return count
        tree = lefts.pop()


def rightmost_path(tree) -> list:
    path = [tree]
    while not is_empty(path[-1]) and not is_leaf(path[-1]):
        path.append(path[-1][2])
    return path


def is_starred(tree) -> bool:
    """True when the rightmost leaf is labelled."""
    return _rightmost_end(tree)[0]


def rmlab(tree) -> int:
    """Label of the last labelled node on the rightmost path."""
    return _rightmost_end(tree)[1]


def _rightmost_end(tree) -> tuple:
    """``(is_starred(tree), rmlab(tree))`` from one walk down the path."""
    node = tree
    while len(node) == 3:  # "e" and a labelled leaf end the path
        k, _, node = node
    return (True, node[0]) if node != EMPTY else (False, k)


def in_left_class(tree) -> bool:
    """True when the leftmost leaf is empty."""
    node = tree
    while not is_empty(node) and not is_leaf(node):
        node = node[1]
    return is_empty(node)


# -- inorder-word serialization ----------------------------------------

def inorder_word(tree) -> tuple:
    out = []
    above = []  # inner nodes whose label and right subtree are still to read
    node = tree
    while True:
        while node != EMPTY and len(node) == 3:
            above.append(node)
            node = node[1]
        out.append(node if node == EMPTY else node[0])
        if not above:
            return tuple(out)
        node = above.pop()
        out.append(node[0])
        node = node[2]


def _from_word(word):
    """The tree whose inorder word is ``word``, in one pass and without
    checking the labels against 1..n.  A complete tree's word alternates
    leaves (``"e"`` or a labelled leaf) and inner labels, and the inner
    labels form a Cartesian tree: each waits on a stack with its left
    subtree until a smaller label, or the end of the word, closes its
    right subtree."""
    word = tuple(word)
    inner = word[1::2]
    if len(word) % 2 == 0 or EMPTY in inner:
        raise ValueError("labelled node must have zero or two children")
    waiting = []  # (label, left subtree), labels increasing up the stack
    for x, k in zip(word[::2], inner + (-inf,)):  # -inf: the end closes them all
        sub = EMPTY if x == EMPTY else (x,)
        while waiting and waiting[-1][0] > k:
            j, left = waiting.pop()
            sub = (j, left, sub)
        waiting.append((k, sub))
    return sub


def tree_from_word(word):
    """Rebuild a tree from its inorder word (root = minimum label)."""
    tree = _from_word(word)
    validate_tree(tree)
    return tree


# -- node-map form (tests, perfbench/querygen.py) -----------------------

def nodes_to_tree(root: int, nodes: dict):
    """The tree at ``root`` of a node map: ``nodes[k]`` is None for a
    labelled leaf k, else ``[left, right]``, each slot EMPTY or a larger
    label.  The labels may be any increasing set; the subtrees are built
    once, in decreasing label order."""
    built = {EMPTY: EMPTY}
    for k in sorted(nodes, reverse=True):
        kids = nodes[k]
        built[k] = (k,) if kids is None else (k, built[kids[0]], built[kids[1]])
    return built[root]


def _relabel(tree, mapping):
    """Relabel by ``mapping``; the caller keeps the tree increasing."""
    return _from_word([mapping.get(x, x) for x in inorder_word(tree)])


def _shift_labels(tree, from_label: int, delta: int):
    """Add ``delta`` to every label >= ``from_label``; a monotone shift
    keeps the shape."""
    return _from_word([x + delta if x != EMPTY and x >= from_label else x
                       for x in inorder_word(tree)])


# -- enumeration --------------------------------------------------------

def _left_choices(root: int, rest: tuple, memo: dict) -> list:
    """``(key(left), left, right labels)`` for each left subtree of a tree on
    ``(root,) + rest``, sorted by key, which sorts the trees as well: a left
    subtree fixes the right labels, and where one left key is a proper prefix of
    another, its tree has the root where the other has a larger inner label."""
    return sorted([(lk, lt, right) for size in range(len(rest) + 1)
                   for left in combinations(rest, size)
                   for right in [tuple(x for x in rest if x not in left)]
                   for lk, lt in _keyed_trees(left, memo)], key=itemgetter(0))


def _keyed_trees(labels: tuple, memo: dict) -> list:
    """``(key, tree)`` for every complete increasing tree on a label tuple
    (``"e"`` if empty) in canonical order, memoised in ``memo`` by label
    tuple.  A tree's key is its inorder word with "e" read as 0:
    key(left) + (root,) + key(right), and (0,) for "e"."""
    found = memo.get(labels)
    if found is not None:
        return found
    if not labels:
        return [((0,), EMPTY)]
    root, rest = labels[0], labels[1:]
    out = memo[labels] = [(lk + (root,) + rk, (root, lt, rt))
                          for lk, lt, right in _left_choices(root, rest, memo)
                          for rk, rt in _keyed_trees(right, memo)]
    if not rest:  # (root,) sorts after (root, e, e), whose key starts with 0
        out.append(((root,), (root,)))
    return out


def enumerate_trees(n: int, *, starred: bool | None = None,
                    rightmost: int | None = None, max_n=None) -> list:
    """All size-n trees in canonical (inorder-word) order, optionally
    filtered by class and rightmost label."""
    enforce_ceiling("tree enumeration", n, max_n, DEFAULT_TREE_CEILING)
    memo = {}
    out = [(1, lt, rt) for _, lt, right in _left_choices(1, tuple(range(2, n + 1)), memo)
           for _, rt in _keyed_trees(right, memo)]
    if n == 1:
        out.append((1,))
    if starred is None and rightmost is None:
        return out
    return [t for t, (s, k) in zip(out, map(_rightmost_end, out))
            if starred in (None, s) and rightmost in (None, k)]


# -- rightmost-path surgery ---------------------------------------------

def _regraft(path, end):
    """The tree whose rightmost path is ``path`` followed by ``end``; each
    path node keeps its label and left subtree (``node[0]``, ``node[1]``)."""
    for node in reversed(path):
        end = (node[0], node[1], end)
    return end


def _lower_rightmost_leaf(tree):
    """Empty the labelled rightmost leaf k and close the label gap."""
    path = rightmost_path(tree)
    return _shift_labels(_regraft(path[:-1], EMPTY), path[-1][0] + 1, -1)


def _raise_rightmost_leaf(tree, k: int):
    """Open a label gap at k and label the empty rightmost leaf k."""
    return _regraft(rightmost_path(_shift_labels(tree, k, 1))[:-1], (k,))


# -- the three grade-shifting maps --------------------------------------
#
# Each map reads the rightmost path, replaces its end and rebuilds only
# the path above it: the class and grade live at the end of the path.

def psi_star(tree):
    """Map a star-class tree down one grade.

    Returns (tree, case): case "a" swaps the labels k-1, k and stays in
    the star class with the same number of empty leaves; case "b"
    erases the rightmost leaf (one more empty leaf, one fewer label)
    and lands in the circ class.
    """
    validate_tree(tree)
    path = rightmost_path(tree)
    if is_empty(path[-1]):
        raise MembershipError("psi_star needs a tree whose rightmost leaf is labelled")
    k = path[-1][0]
    if k < 2:
        raise MembershipError("psi_star is undefined at rightmost label 1")
    if path[-2][0] != k - 1:
        return _relabel(tree, {k: k - 1, k - 1: k}), "a"
    return _lower_rightmost_leaf(tree), "b"


def psi_star_inv(tree):
    n = validate_tree(tree)
    starred, k = _rightmost_end(tree)
    if not starred:
        return _raise_rightmost_leaf(tree, k + 1), "b"
    if k >= n:
        raise MembershipError("no room to swap the rightmost label up")
    return _relabel(tree, {k + 1: k, k: k + 1}), "a"


def psi_circ(tree):
    """Map a circ-class tree up one grade.

    Case "a" swaps the labels k, k+1; case "b-leaf" deletes the leaf
    k+1 hanging under k (one fewer empty leaf and label, star class);
    case "b-branch" rotates the subtrees of k+1 onto the rightmost
    path, staying in the circ class.
    """
    n = validate_tree(tree)
    path = rightmost_path(tree)
    if not is_empty(path[-1]):
        raise MembershipError("psi_circ needs a tree whose rightmost leaf is empty")
    k, child, _ = path[-2]
    if k >= n:
        raise MembershipError("psi_circ is undefined at rightmost label n")
    # k's right slot is empty, so k+1 hangs under k only as its left child
    if is_empty(child) or child[0] != k + 1:
        return _relabel(tree, {k: k + 1, k + 1: k}), "a"
    if is_leaf(child):
        return _shift_labels(_regraft(path[:-2], (k,)), k + 2, -1), "b-leaf"
    return _regraft(path[:-2], (k, child[1], (k + 1, child[2], EMPTY))), "b-branch"


def psi_circ_inv(tree):
    validate_tree(tree)
    starred, k = _rightmost_end(tree)
    if starred:
        # undo "b-leaf"
        path = rightmost_path(_shift_labels(tree, k + 1, 1))
        return _regraft(path[:-1], (k, (k + 1,), EMPTY)), "b-leaf"
    path = rightmost_path(tree)
    j, b, _ = path[-2]
    if j < 2:
        raise MembershipError("psi_circ_inv is undefined at rightmost label 1")
    k, a, _ = path[-3]
    if k != j - 1:
        return _relabel(tree, {j - 1: j, j: j - 1}), "a"
    return _regraft(path[:-3], (k, (j, a, b), EMPTY)), "b-branch"


def psi_cap(tree):
    """Attach two empty leaves to the rightmost leaf of a top-grade
    star tree, moving it to the top-grade circ class."""
    n = validate_tree(tree)
    path = rightmost_path(tree)
    if is_empty(path[-1]) or path[-1][0] != n:
        raise MembershipError("psi_cap needs a star-class tree with rightmost label n")
    return _regraft(path[:-1], (n, EMPTY, EMPTY))


def psi_cap_inv(tree):
    n = validate_tree(tree)
    path = rightmost_path(tree)
    if not is_empty(path[-1]) or path[-2][0] != n:
        raise MembershipError("psi_cap_inv needs a circ-class tree with rightmost label n")
    return _regraft(path[:-2], (n,))


# -- snake correspondence ------------------------------------------------

def tree_to_snake(tree) -> tuple[int, ...]:
    """The snake window of the inorder word read right to left: label i
    becomes n-i+1 with sign (-1)^(j+1), j empty leaves being after it."""
    n = validate_tree(tree)
    out = []
    odd = False  # the parity of the empty leaves read so far
    for x in reversed(inorder_word(tree)):
        if x == EMPTY:
            odd = not odd
        else:
            out.append(n - x + 1 if odd else x - n - 1)
    return tuple(out)


def snake_to_tree(window):
    """Inverse of tree_to_snake, building the inorder word right to left;
    rejects windows that do not alternate.  Every alternating window
    encodes a tree (thm-1-1)."""
    from .permutations import _alternates, check_window

    w = check_window(window)
    if not _alternates(w):
        raise MembershipError("input window is not alternating")
    n = len(w)
    word = []  # the inorder word, right to left
    odd = False  # the parity of the empty leaves placed so far
    for x in w:
        if (x > 0) != odd:  # a positive label has an odd count after it
            word.append(EMPTY)
            odd = not odd
        word.append(n - abs(x) + 1)
    if odd == n % 2:  # a complete tree on n labels has n + 1 empty leaves
        word.append(EMPTY)
    return _from_word(reversed(word))


# -- JSON ---------------------------------------------------------------

def tree_to_json(tree):
    if is_empty(tree):
        return "empty"
    if is_leaf(tree):
        return {"leaf": tree[0]}
    return {"label": tree[0], "left": tree_to_json(tree[1]),
            "right": tree_to_json(tree[2])}


def tree_to_word_json(tree) -> list:
    return list(inorder_word(tree))


def label_from_json(x) -> int:
    if type(x) is not int:  # also rejects JSON booleans
        raise ValueError(f"bad label {x!r}")
    return x


def node_from_json(o):
    """Build a node from the nested JSON form without label validation."""
    if o == "empty":
        return EMPTY
    if isinstance(o, dict) and "leaf" in o:
        return (label_from_json(o["leaf"]),)
    if not isinstance(o, dict) or not {"label", "left", "right"} <= o.keys():
        raise ValueError(f"bad tree node {o!r}")
    return (label_from_json(o["label"]), node_from_json(o["left"]), node_from_json(o["right"]))


def _decode_tree(obj):
    """The tree of the nested form or the inorder-word array form, not
    yet validated."""
    if isinstance(obj, list):
        return _from_word(x if x == EMPTY else label_from_json(x) for x in obj)
    return node_from_json(obj)


def tree_from_json(obj):
    """Accept the nested form or the inorder-word array form."""
    tree = _decode_tree(obj)
    validate_tree(tree)
    return tree
