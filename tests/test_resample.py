import functools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_interpolate
from flowforge import resample
from flowforge.config import config_hash, resolve_config
from flowforge.errors import ConfigError, FieldError
from flowforge.resample import (FootprintSpec, GridIndex, KernelSpec,
                                SourcePoints, _batch_weights, _neighbor_sets_n_closest,
                                _neighbor_sets_radius, apply,
                                build_index, build_operator,
                                default_k_for_grid, interpolate,
                                make_target_grid, resample_specs,
                                tensor_bytes)
from flowforge.fields import DenseField, GridSpec

ALL_KERNELS = ["linear", "gaussian", "shepard", "voronoi",
               "ellipsoidal_gaussian"]


def lattice_sources(n=12, extent=12.0, components=3, seed=0):
    rng = np.random.default_rng(seed)
    axis = np.linspace(0.0, extent, n)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    pos = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    vals = rng.normal(size=(len(pos), components))
    return SourcePoints(pos, vals)


def flat(field: DenseField):
    if field.components == 1:
        return field.values.reshape(-1, 1)
    return np.moveaxis(field.values, 0, -1).reshape(-1, field.values.shape[0])


class TestSpatialIndex:
    def test_knn_at_source_is_zero(self):
        pts = lattice_sources(4)
        index = build_index(pts.positions)
        d, i = index.query(pts.positions[5:6], k=[1], workers=1)
        assert d[0, 0] == 0.0 and i[0, 0] == 5

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_knn_matches_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 10, size=(500, 3))
        pts = SourcePoints(pos, np.zeros(len(pos)))
        index = build_index(pts.positions)
        queries = rng.uniform(0, 10, size=(100, 3))
        d, i = index.query(queries, k=[1, 2, 3, 4], workers=1)
        for q, drow, irow in zip(queries, d, i):
            scan = np.linalg.norm(pos - q, axis=1)
            order = np.argsort(scan, kind="stable")[:4]
            np.testing.assert_allclose(np.sort(drow), scan[order], atol=1e-12)
            assert set(irow) == set(order)

    def test_radius_zero_only_coincident(self):
        pts = lattice_sources(4)
        index = build_index(pts.positions)
        hits = index.query_ball_point(pts.positions[3], 0.0, workers=1)
        assert hits == [3]

    def test_empty_input_rejected(self):
        with pytest.raises(FieldError, match="empty"):
            build_index(np.zeros((0, 3)))


def single_weight(spec, offset, radius=0.0):
    """``_batch_weights`` of one source at ``offset`` from one target, with
    footprint support ``radius``."""
    offsets = np.asarray(offset, dtype=np.float64).reshape(1, 1, 3)
    dist = np.linalg.norm(offsets, axis=-1)
    return _batch_weights(spec, lambda j: offsets[:, j], dist,
                          np.array([radius]))[0, 0]


class TestKernelWeight:
    def test_linear_formula(self):
        spec = KernelSpec("linear")
        assert single_weight(spec, (0, 0, 0), 2.0) == 1.0
        assert single_weight(spec, (2, 0, 0), 2.0) == 0.0
        assert single_weight(spec, (1, 0, 0), 2.0) == 0.5

    def test_shepard_formula(self):
        spec = KernelSpec("shepard", power=2.0, eps=0.0)
        assert single_weight(spec, (2, 0, 0)) == pytest.approx(0.25)

    def test_gaussian_at_origin(self):
        for sharpness in (0.5, 1.0, 2.0, 7.0):
            spec = KernelSpec("gaussian", sharpness=sharpness)
            assert single_weight(spec, (0, 0, 0)) == 1.0


class TestInterpolate:
    @pytest.mark.parametrize("kind", ALL_KERNELS)
    @pytest.mark.parametrize("mode", ["n_closest", "radius"])
    def test_constant_reproduction_exact(self, kind, mode):
        pts = lattice_sources(8, components=1)
        pts.values[:] = 2.71828
        fp = (FootprintSpec("n_closest", k=6) if mode == "n_closest"
              else FootprintSpec("radius", radius=3.0))
        field, summary = interpolate(pts, make_target_grid((0, 0, 0),
                                                           (12, 12, 12),
                                                           (5, 5, 5)),
                                     KernelSpec(kind), fp)
        np.testing.assert_allclose(field.values, 2.71828, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KERNELS)
    @pytest.mark.parametrize("mode", ["n_closest", "radius"])
    def test_matches_brute_force_oracle(self, kind, mode):
        pts = lattice_sources(16, extent=16.0)
        target = make_target_grid((0.5, 0.5, 0.5), (14, 14, 14), (7, 7, 7))
        kernel = KernelSpec(kind)
        fp = (FootprintSpec("n_closest", k=6) if mode == "n_closest"
              else FootprintSpec("radius", radius=2.5))
        field, _ = interpolate(pts, target, kernel, fp)
        expected, _ = brute_interpolate(pts.positions, pts.values,
                                        target.sample_positions(), kernel, fp)
        np.testing.assert_allclose(flat(field), expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KERNELS)
    @pytest.mark.parametrize("fp", [FootprintSpec("n_closest", k=4),
                                    FootprintSpec("n_closest", k=8),
                                    FootprintSpec("radius", radius=0.5)],
                             ids=["k4", "k8", "r0.5"])
    def test_equidistant_hole_fallback_matches_oracle(self, kind, fp):
        # cell centres of a unit lattice: all 8 corners are equidistant, so
        # linear weights vanish (k = 4, 8) or the ball is empty (r = 0.5),
        # and the fallback must take the smallest-id nearest source
        pts = lattice_sources(5, extent=4.0, seed=6)
        target = GridSpec(origin=(0.5, 0.5, 0.5), spacing=(1, 1, 1),
                          dims=(4, 4, 4))
        kernel = KernelSpec(kind)
        field, summary = interpolate(pts, target, kernel, fp)
        expected, holes = brute_interpolate(pts.positions, pts.values,
                                            target.sample_positions(),
                                            kernel, fp)
        np.testing.assert_allclose(flat(field), expected, atol=1e-12)
        assert summary["holes"] == holes

    def test_unstructured_sources_against_oracle(self, rng):
        pos = rng.uniform(0, 10, size=(400, 3))
        pts = SourcePoints(pos, rng.normal(size=(400, 3)))
        target = make_target_grid((1, 1, 1), (8, 8, 8), (4, 4, 4))
        kernel = KernelSpec("shepard", power=3.0)
        fp = FootprintSpec("n_closest", k=5)
        field, _ = interpolate(pts, target, kernel, fp)
        expected, _ = brute_interpolate(pos, pts.values,
                                        target.sample_positions(), kernel, fp)
        np.testing.assert_allclose(flat(field), expected, atol=1e-12)

    def test_two_component_values_rejected(self, rng):
        with pytest.raises(FieldError, match="1 or 3 components"):
            SourcePoints(rng.uniform(size=(10, 3)), rng.normal(size=(10, 2)))

    def test_voronoi_equals_nearest_source(self):
        pts = lattice_sources(6, components=1, seed=4)
        target = make_target_grid((0.3, 0.3, 0.3), (10, 10, 10), (4, 4, 4))
        field, _ = interpolate(pts, target, KernelSpec("voronoi"),
                               FootprintSpec("n_closest", k=5))
        index = build_index(pts.positions)
        d, i = index.query(target.sample_positions(), k=[1], workers=1)
        np.testing.assert_array_equal(field.values.ravel(),
                                      pts.values[i[:, 0], 0])

    def test_k1_equals_voronoi_for_positive_kernels(self):
        pts = lattice_sources(6, components=1, seed=9)
        target = make_target_grid((0.4, 0.2, 0.1), (10, 10, 10), (3, 3, 3))
        ref, _ = interpolate(pts, target, KernelSpec("voronoi"),
                             FootprintSpec("n_closest", k=1))
        for kind in ("gaussian", "shepard", "ellipsoidal_gaussian"):
            field, _ = interpolate(pts, target, KernelSpec(kind),
                                   FootprintSpec("n_closest", k=1))
            np.testing.assert_allclose(field.values, ref.values, atol=1e-12)

    def test_permutation_invariance(self, rng):
        pos = rng.uniform(0, 9, size=(300, 3))
        vals = rng.normal(size=(300, 3))
        target = make_target_grid((1, 1, 1), (7, 7, 7), (5, 5, 5))
        kernel, fp = KernelSpec("linear"), FootprintSpec("n_closest", k=6)
        base, _ = interpolate(SourcePoints(pos, vals), target, kernel, fp)
        perm = rng.permutation(len(pos))
        shuffled, _ = interpolate(SourcePoints(pos[perm], vals[perm]),
                                  target, kernel, fp)
        np.testing.assert_allclose(shuffled.values, base.values, atol=1e-12)

    def test_radius_holes_flagged_with_fallback(self):
        pts = SourcePoints(np.array([[0.0, 0.0, 0.0]]), np.array([7.0]))
        target = make_target_grid((0, 0, 0), (10, 10, 10), (2, 2, 2))
        field, summary = interpolate(pts, target, KernelSpec("linear"),
                                     FootprintSpec("radius", radius=1.0))
        assert summary["holes"] > 0
        np.testing.assert_allclose(field.values, 7.0)  # nearest fallback

    def test_tie_inclusive_kth_neighbor(self):
        # four sources equidistant from the target: with k=2 all four ties
        # enter the footprint, so the estimate is their average
        pos = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]],
                       dtype=float)
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        grid = GridSpec(origin=(0, 0, 0), spacing=(1, 1, 1), dims=(1, 1, 1))
        field, _ = interpolate(SourcePoints(pos, vals), grid,
                               KernelSpec("shepard"),
                               FootprintSpec("n_closest", k=2))
        assert field.values.ravel()[0] == pytest.approx(2.5)


def smallest_id_nearest(index, targets):
    """Each target's nearest source, equidistant ones breaking to the
    smallest id (the k-d tree's own pick among them is arbitrary)."""
    return _neighbor_sets_n_closest(index, targets, 1)[1][:, 0]


def fused_interpolate(points, target, kernel, footprint, knn_sets=None):
    """Neighbor search, weights and accumulation in one pass over (n, C)
    source rows, the way ``interpolate`` computed them before the
    build/apply split.  The split must reproduce these bytes exactly.
    ``knn_sets`` optionally supplies the n_closest neighbor sets, computed
    once for several kernels."""
    index = build_index(points.positions)
    targets = target.sample_positions()
    n_targets = len(targets)
    values = points.values

    def to_field(rows):
        """(T, C) rows as a channels-first field array."""
        if rows.shape[1] == 1:
            return rows[:, 0].reshape(target.dims)
        return np.moveaxis(rows.reshape(target.dims + (rows.shape[1],)), -1, 0)

    if footprint.mode == "n_closest":
        dist, idx, valid, radii = (
            knn_sets if knn_sets is not None
            else _neighbor_sets_n_closest(index, targets, footprint.k))
    else:
        dist, idx, valid, _ = _neighbor_sets_radius(
            index, targets, footprint.radius)
        radii = np.full(n_targets, float(footprint.radius))

    if kernel.kind == "voronoi":
        d0 = np.where(valid, dist, np.inf)
        order = np.lexsort((np.where(valid, idx, np.iinfo(np.int64).max), d0),
                           axis=1)
        first = order[:, 0]
        rows = np.arange(n_targets)
        nearest = idx[rows, first]
        empty = ~valid[rows, first]
        if empty.any():
            nearest[empty] = smallest_id_nearest(index, targets[empty])
        return to_field(values[nearest]), int(empty.sum())

    offsets = index.data[idx] - targets[:, None, :]
    weights = np.where(valid, _batch_weights(kernel, lambda j: offsets[:, j],
                                             dist, radii), 0.0)
    wsum = np.zeros(n_targets)
    for column in weights.T:    # left to right, the specified sum order
        wsum += column
    has_any = valid[:, 0]
    anchor = values[np.where(has_any, idx[:, 0], 0)]
    numer = np.zeros_like(anchor)
    for n in range(idx.shape[1]):   # columns left to right, as ``apply`` does
        numer += weights[:, n, None] * (values[idx[:, n]] - anchor)
    out = anchor.copy()
    ok = (wsum > 0) & np.isfinite(wsum) & has_any
    out[ok] += numer[ok] / wsum[ok, None]
    exact_hit = has_any & (dist[:, 0] == 0.0)
    out[exact_hit] = anchor[exact_hit]
    rows = np.flatnonzero(~ok & ~exact_hit)
    if len(rows):
        out[rows] = values[smallest_id_nearest(index, targets[rows])]
    return to_field(out), len(rows)


def circle_tie_sources(n=40):
    """``n`` sources on the unit circle around the origin, plus one far
    source so the tie set cannot be the whole input."""
    angle = 2.0 * np.pi * np.arange(n) / n
    ring = np.column_stack([np.cos(angle), np.sin(angle), np.zeros(n)])
    pos = np.vstack([ring, [[5.0, 5.0, 5.0]]])
    return SourcePoints(pos, np.random.default_rng(3).normal(size=(n + 1, 3)))


ORIGIN_ONLY = GridSpec(origin=(0, 0, 0), spacing=(1, 1, 1), dims=(1, 1, 1))
FOUR_TIED = SourcePoints(
    np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], dtype=float),
    np.arange(12, dtype=float).reshape(4, 3))

EQUIVALENCE_CASES = {
    # sources on a lattice, targets partly on it (exact hits, ties) and
    # partly far outside it (empty radius footprints)
    "lattice": (lambda: lattice_sources(6, extent=10.0),
                make_target_grid((-6, 0, 0), (16, 10, 10), (8, 5, 5)),
                FootprintSpec("n_closest", k=6),
                FootprintSpec("radius", radius=2.5)),
    "unstructured": (lambda: SourcePoints(
                         np.random.default_rng(11).uniform(0, 9, (300, 3)),
                         np.random.default_rng(12).normal(size=(300, 3))),
                     make_target_grid((-2, 1, 1), (12, 7, 7), (6, 5, 5)),
                     FootprintSpec("n_closest", k=5),
                     FootprintSpec("radius", radius=1.5)),
    # every footprint member at d == R: the linear kernel leaves a hole
    "four_tied": (lambda: FOUR_TIED, ORIGIN_ONLY,
                  FootprintSpec("n_closest", k=2),
                  FootprintSpec("radius", radius=1.0)),
    # 40 equidistant sources: more ties than the wide query's buffer
    "tie_overflow": (circle_tie_sources, ORIGIN_ONLY,
                     FootprintSpec("n_closest", k=2),
                     FootprintSpec("radius", radius=1.5)),
    # one source far from every target: radius footprints are all empty
    "empty_radius": (lambda: SourcePoints(np.array([[0.0, 0.0, 0.0]]),
                                          np.array([[7.0, -1.0, 2.0]])),
                     make_target_grid((3, 3, 3), (10, 10, 10), (2, 2, 2)),
                     FootprintSpec("n_closest", k=3),
                     FootprintSpec("radius", radius=1.0)),
}


def wide_neighbor_sets(index, targets, k):
    """Tie-inclusive k-nearest sets from one k + 24 query per target, with
    a ball query where the tie set fills it: the footprints the narrow
    probe must reproduce.  Returns (dist, idx) as wide as the widest
    footprint, with inf and -1 past each footprint, and d_k."""
    n_src = index.n
    k_eff = min(k, n_src)
    buffer = min(n_src, k_eff + 24)
    dist, idx = index.query(targets, k=list(range(1, buffer + 1)), workers=1)
    order = np.lexsort((idx, dist), axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    d_k = dist[:, k_eff - 1]
    tie_limit = d_k * (1.0 + 1e-12)
    keep = dist <= tie_limit[:, None]
    rows = {}
    for r in np.flatnonzero(keep[:, -1] & (buffer < n_src)):
        members = np.asarray(sorted(index.query_ball_point(
            targets[r], tie_limit[r], workers=1)))
        d = np.linalg.norm(index.data[members] - targets[r], axis=1)
        order = np.lexsort((members, d))
        inside = d[order] <= tie_limit[r]
        rows[r] = (d[order][inside], members[order][inside])
    width = max([1, keep.sum(axis=1).max()] + [len(d) for d, _ in rows.values()])
    out_dist = np.full((len(targets), width), np.inf)
    out_idx = np.full((len(targets), width), -1)
    cols = min(width, buffer)
    out_dist[:, :cols] = np.where(keep, dist, np.inf)[:, :cols]
    out_idx[:, :cols] = np.where(keep, idx, -1)[:, :cols]
    for r, (d, members) in rows.items():
        out_dist[r, :len(d)], out_idx[r, :len(d)] = d, members
    return out_dist, out_idx, d_k


# 128x32x32 sources at spacing 16, the dx=16 channel grid
CHANNEL = GridSpec(origin=(0, 0, 0), spacing=(16, 16, 16), dims=(128, 32, 32))
# targets with their widest tie set at k = 4: the e2e resample grid (a few
# rows tie a fifth source), the source grid itself (an exact hit plus six
# face neighbors at the k-th distance) and the cell centres (eight corners)
LATTICE_TARGETS = {
    "e2e": (make_target_grid((0, 0, 0), (2048, 512, 512), (127, 31, 31)), 5),
    "coincident": (CHANNEL, 7),
    "cell_centred": (GridSpec(origin=(8, 8, 8), spacing=(16, 16, 16),
                              dims=(127, 31, 31)), 8),
}


@pytest.fixture(scope="module")
def channel_sources():
    positions = CHANNEL.sample_positions()
    values = np.random.default_rng(5).normal(size=(len(positions), 3))
    return SourcePoints(positions, values)


@pytest.fixture(scope="module")
def lattice_knn_sets(channel_sources):
    """k = 4 neighbor sets of each lattice layout, shared by its kernels."""
    index = build_index(channel_sources.positions)
    return {name: _neighbor_sets_n_closest(index, target.sample_positions(), 4)
            for name, (target, _) in LATTICE_TARGETS.items()
            if name != "e2e"}


class TestOperatorEquivalence:
    """``apply(build_operator(...))`` is byte-identical to the fused pass."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    @pytest.mark.parametrize("mode", ["n_closest", "radius"])
    @pytest.mark.parametrize("kind", ALL_KERNELS)
    def test_matches_fused_pass(self, kind, mode, case):
        make_points, target, knn_fp, radius_fp = EQUIVALENCE_CASES[case]
        pts = make_points()
        kernel = KernelSpec(kind)
        fp = knn_fp if mode == "n_closest" else radius_fp
        operator = build_operator(pts.positions, target, kernel, fp)
        # one operator serves a 3-component and a 1-component field
        for values in (pts.values, pts.values[:, 1]):
            field, summary = apply(operator, values.T)
            want, holes = fused_interpolate(
                SourcePoints(pts.positions, values), target, kernel, fp)
            assert field.values.dtype == want.dtype
            assert np.array_equal(field.values, want)
            assert summary["holes"] == holes
        one_shot, _ = interpolate(pts, target, kernel, fp)
        again, _ = apply(operator, pts.values.T)
        assert np.array_equal(one_shot.values, again.values)

    @pytest.mark.parametrize("layout", ["coincident", "cell_centred"])
    @pytest.mark.parametrize("kind", ALL_KERNELS)
    def test_tie_heavy_lattice_matches_fused_pass(self, kind, layout,
                                                  channel_sources,
                                                  lattice_knn_sets):
        target, widest = LATTICE_TARGETS[layout]
        kernel, fp = KernelSpec(kind), FootprintSpec("n_closest", k=4)
        operator = build_operator(channel_sources.positions, target, kernel, fp)
        if kind != "voronoi":
            assert len(operator.idx) == widest
        field, summary = apply(operator, channel_sources.values.T)
        want, holes = fused_interpolate(channel_sources, target, kernel, fp,
                                        lattice_knn_sets[layout])
        assert np.array_equal(field.values, want)
        assert summary["holes"] == holes

    @pytest.mark.parametrize("kind", ["gaussian", "shepard",
                                      "ellipsoidal_gaussian"])
    def test_row_sums_do_not_depend_on_width(self, kind, channel_sources):
        """Each row's weight sum is its own weights added left to right.
        Node 0 of this target is a cell centre, tied to 8 corners, so the
        operator is 8 wide, a width at which NumPy's pairwise sum regroups
        every row."""
        target = GridSpec(origin=(8, 8, 8), spacing=(15.7, 15.7, 15.7),
                          dims=(120, 30, 30))
        op = build_operator(channel_sources.positions, target,
                            KernelSpec(kind), FootprintSpec("n_closest", k=4))
        assert len(op.weights) == 8
        want = [functools.reduce(float.__add__, row)
                for row in zip(*map(np.ndarray.tolist, op.weights))]
        assert np.array_equal(op.wsum, want)

    @pytest.mark.parametrize("layout", sorted(LATTICE_TARGETS))
    def test_narrow_probe_matches_wide_query_on_lattices(self, layout,
                                                         channel_sources):
        """The probe's width is the widest tie set, not the wide query's."""
        target, widest = LATTICE_TARGETS[layout]
        width = self.check_narrow_probe(channel_sources.positions,
                                        target.sample_positions(), 4)
        assert width == widest

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_narrow_probe_matches_wide_query(self, case):
        make_points, target, knn_fp, _ = EQUIVALENCE_CASES[case]
        self.check_narrow_probe(make_points().positions,
                                target.sample_positions(), knn_fp.k)

    @pytest.mark.parametrize("case", ["lattice", "unstructured"])
    def test_radius_sets_match_per_row_ball_query(self, case):
        """Radius footprints equal one ball query per target with its
        members sorted by (distance, id), bit for bit, in arrays as wide
        as the largest footprint."""
        make_points, target, _, radius_fp = EQUIVALENCE_CASES[case]
        positions = make_points().positions
        targets = target.sample_positions()
        index = build_index(positions)
        rows = []
        for point in targets:
            members = np.asarray(index.query_ball_point(
                point, radius_fp.radius, workers=1), dtype=np.int64)
            d = np.linalg.norm(positions[members] - point, axis=1)
            order = np.lexsort((members, d))
            rows.append((d[order], members[order]))
        width = max(1, max(len(d) for d, _ in rows))
        want_dist = np.full((len(targets), width), np.inf)
        want_idx = np.zeros((len(targets), width), dtype=np.int64)
        for r, (d, members) in enumerate(rows):
            want_dist[r, :len(d)], want_idx[r, :len(d)] = d, members
        dist, idx, valid, counts = _neighbor_sets_radius(
            index, targets, radius_fp.radius)
        assert np.array_equal(dist, want_dist)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(valid, np.isfinite(want_dist))
        assert np.array_equal(counts, [len(d) for d, _ in rows])

    @staticmethod
    def check_narrow_probe(positions, targets, k):
        """Same footprints, (distance, id) order and d_k as the wide query,
        in arrays exactly as wide as the widest footprint."""
        index = build_index(positions)
        dist, idx, valid, d_k = _neighbor_sets_n_closest(index, targets, k)
        want_dist, want_idx, want_d_k = wide_neighbor_sets(index, targets, k)
        assert np.array_equal(d_k, want_d_k)
        assert dist.shape == want_dist.shape
        assert np.array_equal(np.where(valid, dist, np.inf), want_dist)
        assert np.array_equal(np.where(valid, idx, -1), want_idx)
        return dist.shape[1]

    def test_cases_reach_their_edge(self):
        """The edge cases above really take the paths they are named for."""
        linear = KernelSpec("linear")
        four = build_operator(FOUR_TIED.positions, ORIGIN_ONLY, linear,
                              FootprintSpec("n_closest", k=2))
        assert four.holes == 1 and len(four.idx) == 4
        ring = circle_tie_sources()
        overflow = build_operator(ring.positions, ORIGIN_ONLY, linear,
                                  FootprintSpec("n_closest", k=2))
        assert len(overflow.idx) == 40
        make_points, target, _, radius_fp = EQUIVALENCE_CASES["empty_radius"]
        empty = build_operator(make_points().positions, target,
                               KernelSpec("gaussian"), radius_fp)
        assert empty.holes == target.dims[0] * target.dims[1] * target.dims[2]
        make_points, target, _, radius_fp = EQUIVALENCE_CASES["lattice"]
        lattice = build_operator(make_points().positions, target,
                                 KernelSpec("shepard"), radius_fp)
        assert 0 < lattice.holes and lattice.exact_hit.any()

    @pytest.mark.parametrize("shape, components", [
        (lambda n: (n,), 1), (lambda n: (1, n), 1), (lambda n: (3, n), 3),
        (lambda n: (n, 3), None), (lambda n: (3, n - 1), None)],
        ids=["n", "1xn", "3xn", "rows_nx3", "3xn_minus_1"])
    def test_value_count_must_match_operator(self, shape, components):
        """``apply`` takes channels-first values: (n,) or (1, n) give a
        scalar field, (3, n) a vector field; (n, 3) rows are refused."""
        pts = lattice_sources(4)
        operator = build_operator(pts.positions, ORIGIN_ONLY,
                                  KernelSpec("linear"),
                                  FootprintSpec("n_closest", k=2))
        values = np.ones(shape(len(pts.positions)))
        if components is None:
            with pytest.raises(FieldError, match="sources"):
                apply(operator, values)
        else:
            field, _ = apply(operator, values)
            assert field.components == components
            assert np.array_equal(field.values,
                                  np.ones(field.values.shape))


# source grids and targets on which the grid index must give the k-d
# tree's results bit for bit: (source grid, target grid, k values, radii).
# The lattice radius 16 and the dx=64 radii put nodes exactly at r, at
# sqrt(2) r and at sqrt(3) r from coincident targets
GRID_INDEX_ROWS = {
    **{f"lattice_{name}": (CHANNEL, target, (4,), (16.0,))
       for name, (target, _) in LATTICE_TARGETS.items()},
    "k_sweep": (GridSpec(dims=(12, 10, 9)),
                make_target_grid((-1, -2, 0.5), (14, 13, 8), (17, 11, 9)),
                (1, 4, 6, 8), (1.5,)),
    "single_node_axis": (GridSpec(dims=(9, 1, 7)),
                         make_target_grid((-1, -1, -1), (11, 3, 9),
                                          (13, 5, 9)),
                         (4, 8), (1.5,)),
    "fewer_nodes_than_k_plus_1": (GridSpec(spacing=(1, 2, 1), dims=(2, 2, 1)),
                                  make_target_grid((-1, -1, -1), (4, 5, 3),
                                                   (5, 5, 3)),
                                  (4, 8), (2.5,)),
    "anisotropic": (GridSpec.preset(16, aniso=(2.0, 0.5)),
                    LATTICE_TARGETS["e2e"][0], (4,), (20.0,)),
    "odd_spacing": (GridSpec(origin=(0.3, -1.1, 2.2), spacing=(1.7, 2.9, 0.7),
                             dims=(20, 11, 30)),
                    make_target_grid((0, 0, 0), (30, 30, 20), (37, 23, 41)),
                    (8,), (1.75,)),
    "far_box": (GridSpec.preset(64),
                make_target_grid((20480, 5120, 5120), (2048, 512, 512),
                                 (31, 7, 7)),
                (4, 8), (64.0,)),
    "far_along_x": (GridSpec.preset(64),
                    make_target_grid((20480, 0, 0), (2048, 512, 512),
                                     (31, 7, 7)),
                    (4, 8), (64.0,)),
    "nodes_at_r": (GridSpec.preset(64), GridSpec.preset(64), (1, 6),
                   (64.0, 64.0 * np.sqrt(2.0), 64.0 * np.sqrt(3.0))),
}

OPERATOR_FIELDS = ("anchor", "idx", "weights", "wsum", "exact_hit",
                   "hole_rows", "hole_sources")


def grid_index_footprints(row):
    _, _, ks, radii = GRID_INDEX_ROWS[row]
    return ([FootprintSpec("n_closest", k=k) for k in ks]
            + [FootprintSpec("radius", radius=r) for r in radii])


class TestGridIndex:
    """``GridIndex`` gives ``build_index``'s neighbor sets, operators and
    fields, bit for bit."""

    @pytest.mark.parametrize("row", sorted(GRID_INDEX_ROWS))
    def test_neighbor_sets_match_tree(self, row):
        source, target, ks, radii = GRID_INDEX_ROWS[row]
        targets = target.sample_positions()
        tree, grid = build_index(source.sample_positions()), GridIndex(source)
        for k in ks:
            want = _neighbor_sets_n_closest(tree, targets, k)
            got = _neighbor_sets_n_closest(grid, targets, k)
            valid = want[2]
            assert np.array_equal(got[2], valid)
            assert np.array_equal(got[3], want[3])
            for ours, theirs in zip(got[:2], want[:2]):
                assert np.array_equal(ours[valid], theirs[valid])
        for r in radii:
            for ours, theirs in zip(_neighbor_sets_radius(grid, targets, r),
                                    _neighbor_sets_radius(tree, targets, r)):
                assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("row", sorted(GRID_INDEX_ROWS))
    @pytest.mark.parametrize("kind", ALL_KERNELS)
    def test_operator_and_field_match_tree(self, kind, row):
        source, target, _, _ = GRID_INDEX_ROWS[row]
        positions = source.sample_positions()
        values = np.random.default_rng(9).normal(size=(len(positions), 3))
        for footprint in grid_index_footprints(row):
            ours = build_operator(source, target, KernelSpec(kind), footprint)
            theirs = build_operator(positions, target, KernelSpec(kind),
                                    footprint)
            assert ours.n_sources == theirs.n_sources
            for name in OPERATOR_FIELDS:
                a, b = getattr(ours, name), getattr(theirs, name)
                assert (a is None and b is None) or np.array_equal(a, b), name
            assert np.array_equal(apply(ours, values.T)[0].values,
                                  apply(theirs, values.T)[0].values)

    def test_rows_reach_retries_and_whole_grid(self):
        """The table's rows take the retry windows, and a window that is the
        whole grid."""
        passes = {}
        original = GridIndex._window_pass

        def spy(self, targets, out, rows, lo, sizes, *rest):
            passes[row].append(bool((sizes == self._dims).all()))
            return original(self, targets, out, rows, lo, sizes, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GridIndex, "_window_pass", spy)
            for row in ("anisotropic", "far_box", "fewer_nodes_than_k_plus_1"):
                passes[row] = []
                source, target, ks, _ = GRID_INDEX_ROWS[row]
                index = GridIndex(source)
                index.nearest(target.sample_positions(), min(index.n, ks[-1] + 1))
        assert len(passes["anisotropic"]) > 1 and len(passes["far_box"]) > 1
        assert passes["fewer_nodes_than_k_plus_1"] == [True]

    @pytest.mark.parametrize("row", ["anisotropic", "lattice_e2e"])
    def test_not_slower_than_tree(self, row):
        """At most twice the k-d tree's time, build included (best of 3)."""
        source, target, ks, _ = GRID_INDEX_ROWS[row]
        targets = target.sample_positions()

        def best(make_index):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                _neighbor_sets_n_closest(make_index(), targets, ks[0])
                times.append(time.perf_counter() - start)
            return min(times)

        tree = best(lambda: build_index(source.sample_positions()))
        assert best(lambda: GridIndex(source)) <= 2.0 * tree

    @pytest.mark.parametrize("footprint", [FootprintSpec("n_closest", k=4),
                                           FootprintSpec("radius", radius=1.2)],
                             ids=["n_closest", "radius"])
    @pytest.mark.parametrize("index", ["grid", "tree"])
    def test_nan_outside_footprint_stays_out(self, index, footprint):
        """A padded column weighs 0 and points at its row's anchor, so a NaN
        source poisons only the rows whose footprint holds it."""
        source = GridSpec(dims=(6, 6, 6))
        target = GridSpec(origin=(0.5, 0.4, 0.3), spacing=(1.5, 1.5, 1.5),
                          dims=(4, 4, 4))
        positions = source.sample_positions()
        operator = build_operator(source if index == "grid" else positions,
                                  target, KernelSpec("gaussian"), footprint)
        tree = build_index(positions)
        if footprint.mode == "n_closest":
            _, idx, valid, _ = _neighbor_sets_n_closest(
                tree, target.sample_positions(), footprint.k)
        else:
            _, idx, valid, _ = _neighbor_sets_radius(
                tree, target.sample_positions(), footprint.radius)
        assert operator.holes == 0 and not valid.all()
        # every source a padded column held before the fix, and source 0
        for s in sorted(set(idx[~valid].tolist()) | {0}):
            values = np.ones(len(positions))
            values[s] = np.nan
            field, _ = apply(operator, values)
            clean = ~(valid & (idx == s)).any(axis=1)
            assert clean.any()
            assert np.isfinite(field.values.ravel()[clean]).all(), s


# layouts for the row-chunk checks: (sources, target, footprints).  In
# "cell_centred" the targets of the first x-slab tie 4 corners and the cell
# centres of the second slab tie 8, so a later chunk widens the operator
CHUNK_CASES = {
    "cell_centred": (GridSpec(spacing=(16, 16, 16), dims=(12, 6, 6)),
                     GridSpec(origin=(3, 8, 8), spacing=(5, 16, 16),
                              dims=(20, 5, 5)),
                     (FootprintSpec("n_closest", k=4),
                      FootprintSpec("radius", radius=20.0))),
    **{row: (GRID_INDEX_ROWS[row][0], GRID_INDEX_ROWS[row][1],
             grid_index_footprints(row))
       for row in ("k_sweep", "far_box", "nodes_at_r")},
    # scattered sources, searched through the k-d tree
    **{case: (EQUIVALENCE_CASES[case][0]().positions, EQUIVALENCE_CASES[case][1],
              EQUIVALENCE_CASES[case][2:])
       for case in ("lattice", "unstructured")},
}


class TestRowChunks:
    """A build and an apply in chunks of 7 target rows give the operator
    and the fields of one chunk, bit for bit."""

    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    @pytest.mark.parametrize("kind", ALL_KERNELS)
    def test_chunks_change_no_bit(self, kind, case, monkeypatch):
        sources, target, footprints = CHUNK_CASES[case]
        n_targets = int(np.prod(target.dims))
        assert 7 < n_targets <= resample._ROW_CHUNK
        n_sources = len(sources) if isinstance(sources, np.ndarray) else int(
            np.prod(sources.dims))
        wide = np.random.default_rng(4).normal(size=(3, n_sources))
        narrow = wide.astype(np.float32)
        fields = (wide, wide[1], narrow, narrow[1])
        for footprint in footprints:
            whole = build_operator(sources, target, KernelSpec(kind), footprint)
            with monkeypatch.context() as patch:
                patch.setattr(resample, "_ROW_CHUNK", 7)
                chunked = build_operator(sources, target, KernelSpec(kind),
                                         footprint)
                got = [apply(chunked, values)[0].values for values in fields]
            for name in OPERATOR_FIELDS:
                a, b = getattr(chunked, name), getattr(whole, name)
                assert (a is None and b is None) or np.array_equal(a, b), name
            for values, field in zip(fields, got):
                want = apply(whole, values.astype(np.float64))[0].values
                assert field.dtype == want.dtype == np.float64
                assert np.array_equal(field, want)

    def test_cell_centres_widen_a_later_chunk(self, monkeypatch):
        sources, target, (footprint, _) = CHUNK_CASES["cell_centred"]
        monkeypatch.setattr(resample, "_ROW_CHUNK", 7)
        op = build_operator(sources, target, KernelSpec("shepard"), footprint)
        slab = target.dims[1] * target.dims[2]
        weights = np.asarray(op.weights)
        assert len(op.idx) == 8
        assert (weights[4:, :slab] == 0.0).all()
        assert (weights[:, slab:2 * slab] > 0.0).all()
        assert np.array_equal(np.asarray(op.idx)[4:, :slab],
                              np.broadcast_to(op.anchor[:slab], (4, slab)))

    def test_ids_are_int32(self):
        op = build_operator(GridSpec(dims=(6, 6, 6)), ORIGIN_ONLY,
                            KernelSpec("linear"), FootprintSpec("n_closest", k=4))
        assert {a.dtype for a in (op.anchor, *op.idx)} == {np.dtype(np.int32)}


def operator_bytes(operator):
    """What a built operator holds in arrays."""
    total = 0
    for name in OPERATOR_FIELDS:
        value = getattr(operator, name)
        if value is not None:
            total += sum(a.nbytes for a in (value if isinstance(value, tuple)
                                            else (value,)))
    return total


class TestResampleMemory:
    """What ``build_operator`` and ``apply`` allocate beside what they
    return, measured with tracemalloc, which sees NumPy's buffers, on the
    e2e layout: the dx=16 grid onto 128x32x32, k = 4, linear.  The build
    peaks 3.9 MiB above its 9.1 MiB operator, and a float32 3-component
    apply 0.4 MiB above its 3 MiB output; the bounds leave 8.1 and 3.6 MiB
    of headroom."""

    TARGET = LATTICE_TARGETS["e2e"][0]
    SPECS = (KernelSpec("linear"), FootprintSpec("n_closest", k=4))

    def test_build_peak_above_operator(self):
        tracemalloc.start()
        try:
            operator = build_operator(CHANNEL, self.TARGET, *self.SPECS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - operator_bytes(operator) <= 12 << 20

    def test_float32_apply_peak_above_output(self):
        operator = build_operator(CHANNEL, self.TARGET, *self.SPECS)
        values = np.random.default_rng(6).normal(
            size=(3, operator.n_sources)).astype(np.float32)
        tracemalloc.start()
        try:
            field, _ = apply(operator, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert field.values.nbytes == 3 << 20
        assert peak - field.values.nbytes <= 4 << 20


class TestTargetGrids:
    def test_ini_style_example(self):
        grid = make_target_grid((0, 0, 0), (2048, 512, 512), (255, 63, 63))
        assert grid.dims == (256, 64, 64)
        assert grid.spacing[0] == pytest.approx(2048 / 255)
        assert grid.spacing[1] == pytest.approx(512 / 63)

    def test_unit_cells_are_corners(self):
        grid = make_target_grid((0, 0, 0), (10, 10, 10), (1, 1, 1))
        assert grid.dims == (2, 2, 2)
        assert grid.axis_coords(0).tolist() == [0.0, 10.0]

    def test_training_preset(self):
        assert make_target_grid((0, 0, 0), (2048, 512, 512),
                                (127, 31, 31)).dims == (128, 32, 32)

    def test_zero_extent_rejected(self):
        with pytest.raises(FieldError, match="extent"):
            make_target_grid((0, 0, 0), (0, 10, 10), (2, 2, 2))

    def test_default_k_schedule(self):
        assert default_k_for_grid((128, 32, 32)) == 4
        assert default_k_for_grid((256, 64, 64)) == 6
        assert default_k_for_grid((512, 128, 128)) == 8
        assert default_k_for_grid((10, 10, 10)) == 6

    def test_tensor_bytes_table(self):
        assert tensor_bytes((256, 64, 64), 3) == 12_582_912
        assert tensor_bytes((128, 32, 32), 3) == 1_572_864
        assert tensor_bytes((512, 128, 128), 3) == 100_663_296


class TestIniConfig:
    INI = """
[reader]
casefile_name = case.vtu

[interpolation]
kernel = Linear_Kernel

[Linear_Kernel]
kernel_footprint = N Closest
num_neighbours = 6

[gridsize]
refinement_mode = Use resolution
num_cells_x = 255
num_cells_y = 63
num_cells_z = 63
manual_bounding_box_selection = 1
origin_x = 0
origin_y = 0
origin_z = 0
scale_x  = 2048
scale_y  = 512
scale_z  = 512

[output]
num_fields = 3
field_1 = velocity_x
field_2 = velocity_y
field_3 = velocity_z
output_npy = 1
"""

    @staticmethod
    def resolved(tmp_path, text, **kwargs):
        path = tmp_path / "settings.ini"
        path.write_text(text)
        return resolve_config(ini_file=path, **kwargs)

    def test_classic_layout_parsed(self, tmp_path):
        cfg = self.resolved(tmp_path, self.INI)
        policy = cfg.resample_policy
        assert policy["kernel"] == "linear"
        assert policy["footprint"] == "n_closest"
        assert policy["num_neighbours"] == 6
        assert policy["cells"] == [255, 63, 63]
        assert cfg.bounding_box == resolve_config().bounding_box
        target, _, _ = resample_specs(policy, cfg.bounding_box.mins,
                                      cfg.bounding_box.extents)
        assert target.dims == (256, 64, 64)

    def test_radius_footprint_variant(self, tmp_path):
        ini = self.INI.replace("kernel = Linear_Kernel",
                               "kernel = Gaussian_Kernel")
        ini = ini.replace("[Linear_Kernel]\nkernel_footprint = N Closest\n"
                          "num_neighbours = 6",
                          "[Gaussian_Kernel]\nkernel_footprint = Radius\n"
                          "radius = 12.5\nsharpness = 3.0")
        policy = self.resolved(tmp_path, ini).resample_policy
        assert policy["kernel"] == "gaussian"
        assert policy["sharpness"] == 3.0
        assert policy["footprint"] == "radius"
        assert policy["radius"] == 12.5
        assert policy["num_neighbours"] is None

    def test_unknown_kernel_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="Cubic_Kernel"):
            self.resolved(tmp_path,
                          self.INI.replace("Linear_Kernel", "Cubic_Kernel"))

    def test_same_digest_as_the_yaml_policy(self, tmp_path):
        policy = ("resample_policy={kernel: linear, footprint: n_closest, "
                  "num_neighbours: 6, cells: [255, 63, 63]}")
        assert config_hash(self.resolved(tmp_path, self.INI)) == config_hash(
            resolve_config(override_list=[policy]))

    def test_layer_between_file_and_overrides(self, tmp_path):
        # the file's kernel keys do not leak into the INI's kernel, its
        # other keys stay, and an override wins over the INI
        base = tmp_path / "base.yaml"
        base.write_text("resample_policy: {sharpness: 5.0, power: 4.0, "
                        "num_neighbours: 9, eccentricity: [1, 2, 0.5], "
                        "prefilter: true}\n")
        ini = self.INI.replace("num_neighbours = 6\n", "eccentricity = 2\n")
        policy = self.resolved(tmp_path, ini, base_file=base).resample_policy
        assert policy["num_neighbours"] == 6
        assert (policy["sharpness"], policy["power"]) == (2.0, 2.0)
        assert policy["eccentricity"] == [2.0, 2.0, 2.0]
        assert policy["prefilter"] is True
        policy = self.resolved(tmp_path, ini, base_file=base, override_list=[
            "resample_policy.num_neighbours=3"]).resample_policy
        assert policy["num_neighbours"] == 3


class TestPrefilter:
    def test_constant_unchanged(self):
        from flowforge.resample import box_prefilter
        grid = GridSpec(origin=(0, 0, 0), spacing=(1, 1, 1), dims=(8, 8, 8))
        field = DenseField(grid, np.full((8, 8, 8), 4.5))
        coarse = make_target_grid((0, 0, 0), (7, 7, 7), (2, 2, 2))
        out = box_prefilter(field, coarse)
        np.testing.assert_allclose(out.values, 4.5)

    def test_smooths_oscillations(self, rng):
        from flowforge.resample import box_prefilter
        grid = GridSpec(origin=(0, 0, 0), spacing=(1, 1, 1), dims=(16, 16, 16))
        noisy = rng.normal(size=(16, 16, 16))
        coarse = make_target_grid((0, 0, 0), (15, 15, 15), (3, 3, 3))
        out = box_prefilter(DenseField(grid, noisy), coarse)
        assert out.values.std() < noisy.std()

    @pytest.mark.parametrize("cells", [(16, 8, 4), (4, 16, 2)],
                             ids=["window_3x3x3", "window_9x1x5"])
    def test_vector_field_filters_each_component(self, rng, cells):
        from flowforge.resample import box_prefilter
        grid = GridSpec(origin=(0, 0, 0), spacing=(1, 1, 1), dims=(33, 17, 9))
        values = rng.normal(size=(3,) + grid.dims)
        coarse = make_target_grid((0, 0, 0), (32, 16, 8), cells)
        out = box_prefilter(DenseField(grid, values), coarse)
        want = [box_prefilter(DenseField(grid, v), coarse).values
                for v in values]
        assert not np.array_equal(out.values, values)
        assert np.array_equal(out.values, np.stack(want))

    def test_identity_when_not_coarsening(self):
        from flowforge.resample import box_prefilter
        grid = GridSpec(origin=(0, 0, 0), spacing=(1, 1, 1), dims=(8, 8, 8))
        field = DenseField(grid, np.arange(512, dtype=float).reshape(8, 8, 8))
        same = make_target_grid((0, 0, 0), (7, 7, 7), (7, 7, 7))
        out = box_prefilter(field, same)
        np.testing.assert_array_equal(out.values, field.values)
