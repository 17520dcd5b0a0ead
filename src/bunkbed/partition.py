"""Canonical set partitions of labelled finite sets.

A partition is a restricted-growth string (RGS) over an ordered ground
tuple: element i carries the index of its block, blocks are numbered by first
appearance.  Every table in the program keys its entries by the plain RGS
tuple, which gives O(k) equality and a compact dictionary key.  The ground
stays with the caller: `canonicalize` turns explicit groups over a ground into
an RGS, and `block_string` prints an RGS over its ground in block notation.
"""

from __future__ import annotations

__all__ = [
    "canonicalize",
    "block_string",
    "bell_number",
    "canonical_rgs",
    "join_rgs",
    "project_rgs",
]


def bell_number(k: int) -> int:
    """Bell number B(k) via the Bell triangle."""
    if k < 0:
        raise ValueError("negative set size")
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def canonical_rgs(assignment) -> tuple[int, ...]:
    """Renumber an arbitrary block-label sequence into restricted-growth form."""
    seen: dict = {}
    out = []
    for label in assignment:
        if label not in seen:
            seen[label] = len(seen)
        out.append(seen[label])
    return tuple(out)


def join_rgs(a, b) -> tuple[int, ...]:
    """RGS of the finest common coarsening of two block-label sequences.

    Labels are integers in range(len(a)), as in any RGS or lifted RGS.  The
    union-find runs over the block labels of `a`: each label of `b` keeps the
    first `a` label it meets, and every later meeting merges the two.  It
    is the glue oracle's join in tests; no computation in the package calls
    it, since every partition here is read off label strings.
    """
    k = len(a)
    parent = list(range(k))
    met = [-1] * k
    for x, y in zip(a, b):
        z = met[y]
        if z < 0:
            met[y] = x
            continue
        while parent[x] != x:
            x = parent[x]
        while parent[z] != z:
            z = parent[z]
        if x != z:
            parent[x] = z
    names: dict = {}
    out = []
    for x in a:
        while parent[x] != x:
            x = parent[x]
        out.append(names.setdefault(x, len(names)))
    return tuple(out)


def canonicalize(ground, grouping) -> tuple[int, ...]:
    """RGS over `ground` whose blocks are `grouping`, independent of group order."""
    ground = tuple(ground)
    label: dict = {}
    for b, group in enumerate(grouping):
        for el in group:
            if el in label:
                raise ValueError(f"duplicate element {el!r} in grouping")
            label[el] = b
    if set(label) != set(ground) or len(ground) != len(set(ground)):
        raise ValueError("grouping does not partition the ground")
    return canonical_rgs(label[el] for el in ground)


def block_string(ground, rgs) -> str:
    """Block notation such as ``0|12`` (comma-separated for wide labels)."""
    blocks: list[list[str]] = [[] for _ in range(max(rgs, default=-1) + 1)]
    for el, b in zip(ground, rgs):
        blocks[b].append(str(el))
    return "|".join(
        "".join(names) if all(len(s) == 1 for s in names) else ",".join(names)
        for names in blocks
    )


def project_rgs(labels, keep) -> tuple:
    """(RGS of `labels` restricted to the positions `keep`, number of blocks with no kept position).

    `labels` is any block-label sequence, such as an RGS tuple or a label
    string: equal labels mean one block.
    """
    reduced = canonical_rgs(labels[i] for i in keep)
    return reduced, len(set(labels)) - len(set(reduced))
