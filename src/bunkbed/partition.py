"""Canonical set partitions of labelled finite sets.

A partition is a restricted-growth string (RGS) over an ordered ground
tuple: element i carries the index of its block, blocks are numbered by first
appearance.  Every table in the program keys its entries by the plain RGS
tuple, which gives O(k) equality and a compact dictionary key; `SetPartition`
pairs an RGS with its ground only at the edges, for `glue.Factor.table` and
the CLI's `canonicalize` of a block pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
__all__ = [
    "SetPartition",
    "canonicalize",
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
    first `a` label it meets, and every later meeting merges the two.
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


@dataclass(frozen=True)
class SetPartition:
    """Partition of an ordered ground tuple, in restricted-growth form."""

    ground: tuple
    rgs: tuple[int, ...]

    def __post_init__(self):
        if len(self.ground) != len(self.rgs):
            raise ValueError("ground and RGS lengths differ")
        top = -1
        for x in self.rgs:
            if x > top + 1 or x < 0:
                raise ValueError(f"not a restricted-growth string: {self.rgs}")
            top = max(top, x)

    @property
    def block_count(self) -> int:
        return max(self.rgs) + 1 if self.rgs else 0

    def blocks(self) -> tuple[tuple, ...]:
        out: list[list] = [[] for _ in range(self.block_count)]
        for el, b in zip(self.ground, self.rgs):
            out[b].append(el)
        return tuple(tuple(b) for b in out)

    def block_of(self, element) -> int:
        try:
            return self.rgs[self.ground.index(element)]
        except ValueError:
            raise ValueError(f"element {element!r} not in ground") from None

    def restrict(self, elements) -> "SetPartition":
        """Induced partition on a subsequence of the ground."""
        elements = tuple(elements)
        idx = {e: i for i, e in enumerate(self.ground)}
        labels = [self.rgs[idx[e]] for e in elements]
        return SetPartition(elements, canonical_rgs(labels))

    def to_string(self) -> str:
        """Block notation such as ``0|12`` (comma-separated for wide labels)."""
        rendered = []
        for block in self.blocks():
            names = [str(e) for e in block]
            rendered.append(
                "".join(names) if all(len(s) == 1 for s in names) else ",".join(names)
            )
        return "|".join(rendered)

    def __repr__(self):
        return f"SetPartition({self.to_string()})"


def canonicalize(ground, grouping) -> SetPartition:
    """Canonical partition from explicit groups, independent of group order."""
    ground = tuple(ground)
    label: dict = {}
    for b, group in enumerate(grouping):
        for el in group:
            if el in label:
                raise ValueError(f"duplicate element {el!r} in grouping")
            label[el] = b
    if set(label) != set(ground) or len(ground) != len(set(ground)):
        raise ValueError("grouping does not partition the ground")
    return SetPartition(ground, canonical_rgs(label[el] for el in ground))


def project_rgs(labels, keep) -> tuple:
    """(RGS of `labels` restricted to the positions `keep`, number of blocks with no kept position).

    `labels` is any block-label sequence, such as an RGS tuple or a label
    string: equal labels mean one block.
    """
    reduced = canonical_rgs(labels[i] for i in keep)
    return reduced, len(set(labels)) - len(set(reduced))
