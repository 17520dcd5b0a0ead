"""The unpacked state fold: the reference for the packed ``measures._fold``.

``fold_by_states`` keys each level by the whole state (labels, closed, tag)
and keeps one integer weight per state, where ``measures._fold`` keys by the
label string alone and packs the string's (closed, |S|) weights into one
integer.  It shares the sweep order and the branch rule ``measures._branches``
with the packed fold, so the two differ in how a level holds its sums and in
how the last level is read.  The readout here is its own two passes: sum the
states by (marked labels, tag, kappa), then renumber each marked label tuple
into its RGS and merge, where the packed fold emits RGS keys in one pass.
"""

from __future__ import annotations

from bunkbed.measures import _GONE, _branches, _sweep


def fold_by_states(n: int, steps, weights=None, tags=None, acyclic=False, keep=()) -> dict:
    """Weights of every subset of `steps` summed by (RGS of `keep`, tag, kappa).

    Step i is a pair (vertex pairs opened when bit i is clear, when set); a
    subset weighs the product of weights[i][bit] and its tag sums
    tags[i][bit].  A level sums the subsets by state (labels, closed, tag),
    and closed counts the components with no live vertex left.
    """
    order, gone, start = _sweep(n, steps, keep)
    states = {(start, start.count(_GONE), 0): 1}
    weights = weights or [(1, 1)] * len(steps)
    tags = tags or [(0, 0)] * len(steps)
    for j, i in enumerate(order):
        strings = list(dict.fromkeys(labels for labels, _, _ in states))
        # Per move, each label string's (new labels, components closed).
        moves = [dict(zip(strings, zip(*_branches(strings, pairs, acyclic, gone.get(j, ()))))) for pairs in steps[i]]
        level: dict = {}
        for (labels, closed, tag), w in states.items():
            for move, wb, tb in zip(moves, weights[i], tags[i]):
                new, shut = move[labels]
                if new is not None:
                    key = (new, closed + shut, tag + tb)
                    level[key] = level.get(key, 0) + w * wb
        states = level
    sums: dict = {}
    for (labels, closed, tag), w in states.items():
        live = tuple(labels[x] for x in keep)
        key = (live, tag, closed + len(set(live)))
        sums[key] = sums.get(key, 0) + w
    out: dict = {}
    for (live, tag, kappa), w in sums.items():
        blocks: dict = {}
        key = (tuple(blocks.setdefault(label, len(blocks)) for label in live), tag, kappa)
        out[key] = out.get(key, 0) + w
    return out
