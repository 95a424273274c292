"""Whitney cover topology (cell index, adjacency, triples) against all-pairs brute force."""

import numpy as np
from hypothesis import given, settings, strategies as st

from _reference_pointwise import cubes_at
from divsym.fields import random_field
from divsym.maximal import bad_set, maximal_function, sample_abs
from divsym.whitney import whitney_decompose

# seed, n (20 and 24 are not dyadic), bad fraction
CASES = st.tuples(st.integers(0, 30), st.sampled_from([16, 20, 24]), st.floats(0.01, 0.30))


def mask_for(seed, n, fraction):
    m = maximal_function(sample_abs(random_field(seed, 2, 1.0, divfree=True), n))
    return bad_set(m, float(np.quantile(m.values, 1.0 - fraction)))


def touch_matrix(cover):
    """All pairs of intersecting supports: wrapped center gap below the half-sum less 1e-12."""
    c, s = cover.centers, cover.sides
    a = np.zeros((len(c), len(c)), dtype=bool)
    for rows in np.array_split(np.arange(len(c)), max(1, len(c) // 256)):
        gap = np.abs(cover.wrap(c[rows, None, :] - c[None, :, :]))
        a[rows] = (gap < ((s[rows, None] + s[None, :]) / 2.0 - 1e-12)[..., None]).all(axis=2)
    np.fill_diagonal(a, False)
    return a


def triangles(a):
    """Rows (i, j, k), i < j < k, of pairwise-touching cubes in lexicographic order."""
    rows = [np.zeros((0, 3), dtype=np.int64)]
    for i in range(len(a)):
        nbrs = np.flatnonzero(a[i, i + 1:]) + i + 1
        j, k = np.nonzero(np.triu(a[np.ix_(nbrs, nbrs)], 1))
        rows.append(np.stack([np.full(len(j), i), nbrs[j], nbrs[k]], axis=1))
    return np.concatenate(rows)


def cubes_holding(cover, x):
    d = np.abs(cover.wrap(x - cover.centers))
    return np.flatnonzero((d < cover.sides[:, None] / 2.0).all(axis=1)).tolist()


@settings(max_examples=8, deadline=None)
@given(CASES, st.integers(0, 2**16))
def test_topology_matches_brute_force(case, pick):
    mask = mask_for(*case)
    cover = whitney_decompose(mask)
    a = touch_matrix(cover)

    pairs = cover.neighbor_pairs()
    np.testing.assert_array_equal(pairs, np.argwhere(np.triu(a, 1)))  # sorted, unique, i < j
    np.testing.assert_array_equal(cover.pairs, pairs)
    np.testing.assert_array_equal(cover.triples(), triangles(a))

    rng = np.random.default_rng(pick)
    cells = np.argwhere(mask.mask)
    # random points, then mask-cell centres (on support boundaries)
    pts = np.concatenate([rng.random((20, 3)) * cover.period,
                          (cells[rng.integers(0, len(cells), size=20)] + 0.5) * mask.h])
    for x in pts:
        assert cubes_at(cover, x) == cubes_holding(cover, x)  # the cell index misses no cube

