"""Union-find glue over RGS tuples: the oracle for ``glue._glue``.

``bunkbed.glue._glue`` joins partitions on least-position label strings,
merging blocks with ``str.replace``; this helper keeps the earlier route
(lift both RGS tuples onto the union, join them with ``partition.join_rgs``,
project with ``partition.project_rgs``), so tests can compare the two kernels
entry by entry, insertion order included.  Both take the entry encoding
(``glue._Points`` or ``glue._Packed``) and do their arithmetic through it;
the oracle scales by q**closed as a product with the encoded monomial.
"""

from __future__ import annotations

from bunkbed.glue import _Encoded
from bunkbed.partition import join_rgs, project_rgs


def _lift(idx: list, k: int, rgs: tuple) -> tuple:
    """Lift a partition onto a k-vertex union: unseen vertices become singletons."""
    full = [-1] * k
    top = max(rgs, default=-1) + 1
    for i, block in zip(idx, rgs):
        full[i] = block
    for i in range(k):
        if full[i] == -1:
            full[i] = top
            top += 1
    return tuple(full)


def glue_by_join(t1: _Encoded, t2: _Encoded, enc, cut=()) -> _Encoded:
    """Product of two factors in the encoding `enc`, projecting out the vertices in `cut`."""
    if len(t2.entries) < len(t1.entries):
        t1, t2 = t2, t1
    union = tuple(sorted(set(t1.boundary) | set(t2.boundary)))
    pos = {v: i for i, v in enumerate(union)}
    k = len(union)
    idx1 = [pos[v] for v in t1.boundary]
    idx2 = [pos[v] for v in t2.boundary]
    inner = [(_lift(idx2, k, rgs), vals) for rgs, vals in t2.entries.items()]
    keep = [i for i, v in enumerate(union) if v not in cut]
    slots: dict = {}
    scaled: dict = {}
    acc: dict = {}
    for rgs1, vals1 in t1.entries.items():
        lift1 = _lift(idx1, k, rgs1)
        sums: dict = {}
        for j, (lift2, vals2) in enumerate(inner):
            joined = join_rgs(lift1, lift2)
            slot = slots.get(joined)
            if slot is None:
                slot = slots[joined] = project_rgs(joined, keep)
            key, closed = slot
            if closed:
                vals = scaled.get((j, closed))
                if vals is None:
                    # q**closed as an encoded entry, so enc.scale is checked too.
                    vals = scaled[j, closed] = enc.mul(vals2, enc.encode([0] * closed + [1]))
            else:
                vals = vals2
            prev = sums.get(key)
            sums[key] = vals if prev is None else enc.add(prev, vals)
        for key, vals in sums.items():
            product = enc.mul(vals1, vals)
            prev = acc.get(key)
            acc[key] = product if prev is None else enc.add(prev, product)
    return _Encoded(tuple(union[i] for i in keep), acc)
