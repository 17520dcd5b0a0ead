"""The unpacked state fold: the reference for the packed ``measures._fold``.

``fold_by_states`` keys each level by the whole state (labels, closed, tag)
and keeps one integer weight per state, where ``measures._fold`` keys by the
label string alone and packs the string's (closed, |S|) weights into one
integer.  It shares the sweep order and ``measures._branches`` with the
packed fold, so the two differ only in how a level holds its sums.
"""

from __future__ import annotations

from bunkbed.measures import _GONE, _branches, _canonical, _sweep


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
        moves = list(zip(steps[i], weights[i], tags[i]))
        ends: dict = {}
        level: dict = {}
        for (labels, closed, tag), w in states.items():
            end = ends.get(labels)
            if end is None:
                end = ends[labels] = _branches(labels, moves, acyclic, gone.get(j, ()))
            for new, shut, wb, tb in end:
                key = (new, closed + shut, tag + tb)
                level[key] = level.get(key, 0) + w * wb
        states = level
    sums: dict = {}
    for (labels, closed, tag), w in states.items():
        live = "".join(map(labels.__getitem__, keep))
        key = (live, tag, closed + len(set(live)))
        sums[key] = sums.get(key, 0) + w
    return _canonical(sums)
