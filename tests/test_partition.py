import random

import pytest
from hypothesis import given, settings, strategies as st

from bunkbed.partition import (
    bell_number,
    block_string,
    canonicalize,
    canonical_rgs,
    join_rgs,
    project_rgs,
)


def join_rgs_by_positions(a, b):
    """Oracle: union-find over positions, joining each to the first position
    carrying the same label in either sequence."""
    k = len(a)
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first_a: dict = {}
    first_b: dict = {}
    for i in range(k):
        for labels, first in ((a, first_a), (b, first_b)):
            lab = labels[i]
            if lab in first:
                ra, rb = find(first[lab]), find(i)
                if ra != rb:
                    parent[rb] = ra
            else:
                first[lab] = i
    return canonical_rgs(find(i) for i in range(k))


def test_bell_numbers():
    assert [bell_number(k) for k in range(6)] == [1, 1, 2, 5, 15, 52]
    assert bell_number(12) == 4_213_597


def test_canonicalize_examples():
    assert canonicalize(("a", "b", "c"), [{"a"}, {"b", "c"}]) == (0, 1, 1)
    # Group order and in-group order do not matter.
    assert canonicalize(("a", "b", "c"), [("c", "b"), ("a",)]) == (0, 1, 1)
    assert canonicalize(("a", "b", "c"), [("a", "b", "c")]) == (0, 0, 0)
    assert canonicalize(range(4), [(1,), (0, 2), (3,)]) == (0, 1, 0, 2)
    assert canonicalize((), []) == ()


def test_canonicalize_rejects_bad_groupings():
    with pytest.raises(ValueError):
        canonicalize(("a", "b"), [("a",)])
    with pytest.raises(ValueError):
        canonicalize(("a", "b"), [("a", "b"), ("a",)])


def test_join_examples():
    ground = ("a", "b", "c")
    x = canonicalize(ground, [("a",), ("b", "c")])
    y = canonicalize(ground, [("a", "b"), ("c",)])
    assert join_rgs(x, y) == (0, 0, 0)
    singletons = canonicalize(ground, [("a",), ("b",), ("c",)])
    assert join_rgs(singletons, singletons) == singletons == (0, 1, 2)


def rand_partition(rng, ground):
    labels = [rng.randrange(len(ground)) for _ in ground]
    return canonicalize(
        ground, [[e for e, l in zip(ground, labels) if l == b] for b in set(labels)]
    )


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.randoms(use_true_random=False))
def test_join_is_lattice_like(k, rng):
    ground = tuple(range(k))
    x, y, z = (rand_partition(rng, ground) for _ in range(3))
    assert join_rgs(x, y) == join_rgs(y, x)
    assert join_rgs(join_rgs(x, y), z) == join_rgs(x, join_rgs(y, z))
    assert join_rgs(x, x) == x
    assert join_rgs(x, tuple(range(k))) == x


def label_pairs(k):
    labels = st.lists(st.integers(0, k - 1), min_size=k, max_size=k)
    return st.tuples(labels, labels)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 9).flatmap(label_pairs))
def test_join_rgs_matches_position_union_find(pair):
    # Any labels below the length, as in the lifted tuples of a factor product.
    a, b = (tuple(x) for x in pair)
    assert join_rgs(a, b) == join_rgs_by_positions(a, b)
    assert join_rgs(canonical_rgs(a), canonical_rgs(b)) == join_rgs_by_positions(a, b)


def test_eliminate_examples():
    # Eliminating one position: project onto the others.
    p = canonicalize(("a", "b", "c"), [("a",), ("b", "c")])
    assert project_rgs(p, (1, 2)) == (canonicalize(("b", "c"), [("b", "c")]), 1)
    p2 = canonicalize(("a", "b", "c"), [("a", "b"), ("c",)])
    assert project_rgs(p2, (0, 2)) == (canonicalize(("a", "c"), [("a",), ("c",)]), 0)
    assert project_rgs((0,), ()) == ((), 1)


def test_project_rgs_reads_any_labelling():
    # Least-position label strings, as glue joins them: "aab" is {0,1}{2}.
    assert project_rgs("aab", (1, 2)) == ((0, 1), 0)
    assert project_rgs("aab", (2,)) == ((0,), 1)
    assert project_rgs("\x01\x02\x01\x04", (1,)) == ((0,), 2)
    assert project_rgs("", ()) == ((), 0)
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(1, 7)
        rgs = rand_partition(rng, tuple(range(k)))
        keep = sorted(rng.sample(range(k), rng.randint(0, k)))
        labels = "".join(chr(rgs.index(b) + 1) for b in rgs)
        assert project_rgs(labels, keep) == project_rgs(rgs, keep)


def test_eliminate_restriction_round_trip():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(2, 7)
        ground = tuple(range(k))
        p = rand_partition(rng, ground)
        e = rng.choice(ground)
        others = [x for x in ground if x != e]
        rest, closed = project_rgs(p, others)
        assert rest == canonical_rgs(p[x] for x in others)
        # e's block closes when no other element shares it.
        assert closed == all(p[x] != p[e] for x in others)


def test_project_rgs_counts_blocks_with_no_kept_element():
    rng = random.Random(8)
    for _ in range(60):
        k = rng.randint(1, 7)
        ground = tuple(range(k))
        p = rand_partition(rng, ground)
        keep = sorted(rng.sample(ground, rng.randint(0, k)))
        rgs, closed = project_rgs(p, keep)
        assert rgs == canonical_rgs(p[x] for x in keep)
        blocks = [{x for x in ground if p[x] == b} for b in set(p)]
        assert closed == sum(1 for block in blocks if not block & set(keep))


def test_to_string_block_notation():
    p = canonicalize((0, 1, 2), [(0,), (1, 2)])
    assert block_string((0, 1, 2), p) == "0|12"
    wide = canonicalize((1, 10, 20), [(1, 10), (20,)])
    assert block_string((1, 10, 20), wide) == "1,10|20"
    assert block_string((), ()) == ""
