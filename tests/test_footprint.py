import math
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actiontubes.errors import InputError
from actiontubes.footprint import (CellLayout, DiagonalGaussianMixture,
                                   FootprintMap, build_footprint_map,
                                   cells_overlapping, aggregate_cells,
                                   fisher_vector, fit_gmm, mean_box,
                                   nearest_centroid_alphas, posteriors,
                                   prune_drifted, uniform_classes)
from actiontubes.model import BoundingBox, Source, Tube, pairwise_sum
from oracles import (cells_overlapping_reference, fisher_reference,
                     prune_drifted_reference, softmax_reference)


def random_gmm(rng, k=3, d=4):
    weights = rng.dirichlet(np.ones(k) * 3)
    means = rng.normal(size=(k, d)) * 2
    variances = rng.uniform(0.5, 2.0, size=(k, d))
    return DiagonalGaussianMixture(weights, means, variances)


class TestGmm:
    def test_fit_recovers_separated_blobs(self):
        rng = np.random.default_rng(2)
        a = rng.normal(loc=0.0, scale=0.3, size=(200, 3))
        b = rng.normal(loc=8.0, scale=0.3, size=(200, 3))
        gmm = fit_gmm(np.vstack([a, b]), components=2, seed=5)
        centers = sorted(float(m[0]) for m in gmm.means)
        assert centers[0] == pytest.approx(0.0, abs=0.15)
        assert centers[1] == pytest.approx(8.0, abs=0.15)
        np.testing.assert_allclose(gmm.weights, [0.5, 0.5], atol=0.02)

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(150, 4))
        g1 = fit_gmm(x, 3, seed=11)
        g2 = fit_gmm(x, 3, seed=11)
        assert np.array_equal(g1.means, g2.means)
        assert np.array_equal(g1.weights, g2.weights)
        assert np.array_equal(g1.variances, g2.variances)

    def test_more_components_than_points_rejected(self):
        with pytest.raises(InputError):
            fit_gmm(np.zeros((3, 2)), components=4)

    def test_posterior_rows_sum_to_one(self):
        rng = np.random.default_rng(21)
        gmm = random_gmm(rng)
        q = posteriors(gmm, rng.normal(size=(40, 4)))
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)

    def test_invalid_mixture_rejected(self):
        with pytest.raises(InputError):
            DiagonalGaussianMixture(np.array([0.5, 0.4]),
                                    np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(InputError):
            DiagonalGaussianMixture(np.array([0.5, 0.5]),
                                    np.zeros((2, 3)), -np.ones((2, 3)))


class TestFisherVector:
    def test_matches_literal_formula(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 11))
            gmm = random_gmm(rng, k, d)
            x = rng.normal(size=(n, d)) * 2
            got = fisher_vector(x, gmm)
            want = fisher_reference(x, gmm.weights, gmm.means, gmm.variances)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_dimension_is_2kd(self):
        rng = np.random.default_rng(4)
        for k, d in [(1, 1), (2, 3), (4, 8)]:
            gmm = random_gmm(rng, k, d)
            fv = fisher_vector(rng.normal(size=(6, d)), gmm)
            assert fv.shape == (2 * k * d,)

    def test_unit_norm(self):
        rng = np.random.default_rng(8)
        gmm = random_gmm(rng)
        fv = fisher_vector(rng.normal(size=(10, 4)), gmm)
        assert np.linalg.norm(fv) == pytest.approx(1.0, abs=1e-12)

    def test_empty_descriptors_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InputError):
            fisher_vector(np.empty((0, 4)), random_gmm(rng))


class TestCellLayout:
    def test_defaults(self):
        layout = CellLayout()
        assert layout.grid_side == 14
        assert layout.num_cells == 49

    def test_aggregate_shape_and_pooling(self):
        rng = np.random.default_rng(6)
        layout = CellLayout(cell_size=2, map_side=3)
        gmm = random_gmm(rng, k=2, d=5)
        grids = rng.normal(size=(4, 6, 6, 5))
        cells = aggregate_cells(grids, layout, gmm)
        assert cells.shape == (9, 2 * 2 * 5)
        # Uniform grids produce identical vectors in every cell.
        flat = np.ones((2, 6, 6, 5))
        uniform = aggregate_cells(flat, layout, gmm)
        for row in uniform[1:]:
            np.testing.assert_allclose(row, uniform[0], atol=1e-12)

    def test_grid_side_mismatch_rejected(self):
        # and every grid that is not (T, 6, 6, d), T >= 1, all finite
        rng = np.random.default_rng(3)
        gmm = random_gmm(rng, 2, 2)
        nan, inf = np.ones((2, 1, 6, 6, 2))
        nan[0, 2, 3, 1] = np.nan
        inf[0, 5, 0, 0] = -np.inf
        for grid in (np.ones((1, 8, 8, 2)), np.ones((6, 6, 2)),
                     np.ones((0, 6, 6, 2)), np.ones((1, 6, 8, 2)),
                     np.ones((1, 8, 6, 2)), nan, inf):
            with pytest.raises(InputError, match="feature grid"):
                aggregate_cells(grid, CellLayout(2, 3), gmm)
        aggregate_cells(np.ones((1, 6, 6, 2)), CellLayout(2, 3), gmm)


class TestFootprintMap:
    def test_weights_are_softmax_of_alphas(self):
        rng = np.random.default_rng(12)
        alphas = rng.uniform(0, 1, size=(3, 49))
        fmap = build_footprint_map(alphas)
        for c in range(3):
            np.testing.assert_allclose(fmap.weights[c],
                                       softmax_reference(alphas[c]),
                                       atol=1e-12)
            assert sum(fmap.weights[c]) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_alphas_give_uniform_weights(self):
        fmap = build_footprint_map(np.full((2, 49), 0.5))
        np.testing.assert_allclose(fmap.weights, 1.0 / 49, atol=1e-12)

    def test_uniform_classes_are_those_with_one_weight(self):
        alphas = np.full((4, 49), 0.5)
        alphas[0] = 1.0
        alphas[1, 48] = 0.5 + 1e-16     # rounds to 0.5
        alphas[2, 0] = 0.25
        alphas[3] = 0.0
        alphas[3, 7] = -0.0
        assert uniform_classes(build_footprint_map(alphas)) == [0, 1, 3]

    def test_out_of_range_alphas_rejected(self):
        with pytest.raises(InputError):
            build_footprint_map(np.full((1, 49), 1.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25])
    def test_non_finite_alphas_rejected(self, bad):
        alphas = np.full((2, 49), 0.5)
        alphas[1, 24] = bad
        with pytest.raises(InputError, match="finite and in"):
            build_footprint_map(alphas)

    @pytest.mark.parametrize("alphas", [np.full(49, 0.5), np.array(0.5),
                                        np.full((2, 48), 0.5)])
    def test_alphas_that_are_not_classes_by_cells_rejected(self, alphas):
        with pytest.raises(InputError, match="alphas must be"):
            build_footprint_map(alphas)

    def test_classes_without_cells_rejected(self):
        # the shape check reports them, not max() of an empty row
        with pytest.raises(InputError, match="alphas must be"):
            build_footprint_map(((), ()))

    def test_map_holds_tuples_of_floats(self):
        fmap = build_footprint_map(np.full((2, 49), 0.5))
        for table in (fmap.alphas, fmap.weights):
            assert type(table) is tuple and len(table) == 2
            assert all(type(row) is tuple and len(row) == 49
                       and all(type(v) is float for v in row)
                       for row in table)

    def test_weights_are_numpy_softmax_of_the_same_exponentials(self):
        """Each weight is ``math.exp(a - max)`` over the row's pairwise
        sum, bit for bit what numpy divides by."""
        rng = np.random.default_rng(13)
        # up to 196 cells, past the 128 where numpy's sum splits in two
        for side in (1, 2, 3, 7, 8, 14):
            alphas = rng.uniform(0, 1, size=(3, side * side))
            shifted = alphas - alphas.max(axis=1, keepdims=True)
            e = np.vectorize(math.exp)(shifted)
            want = (e / e.sum(axis=1, keepdims=True)).tolist()
            fmap = build_footprint_map(alphas, CellLayout(1, side))
            assert [list(row) for row in fmap.weights] == want, side


class TestCellsOverlapping:
    layout = CellLayout(2, 7)

    def test_full_frame_box_hits_all_cells(self):
        cells = cells_overlapping(self.layout, BoundingBox(0, 0, 140, 140),
                                  (140.0, 140.0))
        assert cells == list(range(49))

    def test_box_within_single_cell(self):
        cells = cells_overlapping(self.layout, BoundingBox(2, 2, 15, 15),
                                  (140.0, 140.0))
        assert cells == [0]

    def test_boundary_touch_is_not_overlap(self):
        # Box ends exactly at the first cell boundary (x = 20).
        cells = cells_overlapping(self.layout, BoundingBox(0, 0, 20, 20),
                                  (140.0, 140.0))
        assert cells == [0]

    def test_box_spanning_two_cells(self):
        cells = cells_overlapping(self.layout, BoundingBox(15, 2, 25, 15),
                                  (140.0, 140.0))
        assert cells == [0, 1]

    def test_box_outside_frame_hits_nothing(self):
        cells = cells_overlapping(self.layout, BoundingBox(200, 200, 220, 220),
                                  (140.0, 140.0))
        assert cells == []

    @pytest.mark.parametrize("frame_size", [
        (math.nan, 140.0), (140.0, math.nan), (math.inf, 140.0),
        (140.0, -math.inf), (0.0, 140.0), (140.0, -1.0)])
    def test_frame_size_not_finite_and_positive_rejected(self, frame_size):
        with pytest.raises(InputError, match="frame size"):
            cells_overlapping(self.layout, BoundingBox(0, 0, 140, 140),
                              frame_size)

    def test_nan_frame_size_does_not_prune_every_tube(self):
        fmap = build_footprint_map(np.full((1, 49), 0.5), self.layout)
        tube = tube_at(BoundingBox(0, 0, 140, 140))
        assert prune_drifted([tube], fmap, (140.0, 140.0)) == [tube]
        with pytest.raises(InputError, match="frame size"):
            prune_drifted([tube], fmap, (math.nan, 140.0))


def tube_at(box, video="v", tube_id="t", frames=4, label=0, score=1.0):
    return Tube(video, tube_id, 0, (box,) * frames, ((0.9, 0.1),) * frames,
                (Source.STATIC,) * frames, label=label, score=score)


class TestPruneDrifted:
    def center_heavy_map(self, classes=2):
        alphas = np.full((classes, 49), 0.3)
        for r in range(2, 5):
            for c in range(2, 5):
                alphas[:, r * 7 + c] = 0.95
        return build_footprint_map(alphas)

    def test_center_kept_corner_removed(self):
        fmap = self.center_heavy_map()
        frame = (140.0, 140.0)
        center = tube_at(BoundingBox(55, 55, 85, 85), tube_id="c")
        corner = tube_at(BoundingBox(1, 1, 18, 18), tube_id="k")
        kept = prune_drifted([center, corner], fmap, frame)
        assert kept == [center]

    def test_uniform_map_keeps_everything(self):
        """A uniform map ties every projection with the map mean in exact
        arithmetic, so it keeps every tube that meets a cell, whatever
        rounding does to the two means (over 25 cells, the float mean of
        10 or 12 equal weights falls below the map mean)."""
        frame = (140.0, 140.0)
        for side in (5, 7, 9):
            fmap = build_footprint_map(np.full((2, side * side), 0.4),
                                       CellLayout(map_side=side))
            cell = frame[0] / side
            tubes = [tube_at(BoundingBox(1, 1, 10, 10)),
                     tube_at(BoundingBox(100, 100, 139, 139), tube_id="u")]
            for rows, cols in ((1, 5), (2, 5), (3, 4), (3, 5)):
                box = BoundingBox(1, 1, cols * cell - 1, rows * cell - 1)
                assert len(cells_overlapping(fmap.layout, box, frame)) == \
                    rows * cols
                tubes.append(tube_at(box, tube_id=f"{rows}x{cols}"))
            assert prune_drifted_reference(tubes, fmap.weights, side,
                                           frame) == tubes
            assert prune_drifted(tubes, fmap, frame) == tubes, side

    def test_projection_outside_map_removed(self):
        fmap = self.center_heavy_map()
        off = tube_at(BoundingBox(500, 500, 540, 540))
        assert prune_drifted([off], fmap, (140.0, 140.0)) == []

    def test_label_selects_map_row(self):
        alphas = np.full((2, 49), 0.3)
        alphas[1, 0] = 1.0   # class 1 concentrates in the corner cell
        alphas[0, 24] = 1.0  # class 0 in the center cell
        fmap = build_footprint_map(alphas)
        corner_box = BoundingBox(1, 1, 18, 18)
        as_class1 = tube_at(corner_box, label=1)
        as_class0 = tube_at(corner_box, tube_id="z", label=0)
        kept = prune_drifted([as_class1, as_class0], fmap, (140.0, 140.0))
        assert kept == [as_class1]

    def test_box_over_every_cell_ties_the_map_mean(self):
        """Over every cell the projected mean is the map mean exactly, for
        weights whose plain left-to-right sum differs from numpy's
        pairwise one, so such a tube is always kept."""
        rng = np.random.default_rng(17)
        layout = CellLayout(2, 7)
        frame = (140.0, 140.0)
        orders_differ = 0
        for trial in range(50):
            fmap = build_footprint_map(rng.uniform(0, 1, size=(2, 49)),
                                       layout)
            weights = fmap.weights[trial % 2]
            orders_differ += reduce(add, weights) != pairwise_sum(weights)
            box = BoundingBox(*rng.uniform(-30, 0, 2),
                              *rng.uniform(140, 170, 2))
            tube = tube_at(box, label=trial % 2)
            assert cells_overlapping(layout, mean_box(tube), frame) == \
                list(range(49))
            assert prune_drifted([tube], fmap, frame) == [tube], trial
        assert orders_differ

    def test_unknown_label_rejected(self):
        fmap = self.center_heavy_map()
        bad = tube_at(BoundingBox(1, 1, 10, 10), label=7)
        with pytest.raises(InputError):
            prune_drifted([bad], fmap, (140.0, 140.0))

    @pytest.mark.parametrize("label,score", [(None, 1.0), (0, None)])
    def test_unscored_tube_rejected(self, label, score):
        fmap = build_footprint_map(np.full((2, 49), 0.4))
        bare = tube_at(BoundingBox(55, 55, 85, 85), tube_id="u", label=label,
                       score=score)
        with pytest.raises(InputError, match="'u'"):
            prune_drifted([bare], fmap, (140.0, 140.0))


@st.composite
def on_cell_edges(draw, side, cell_w, cell_h, reach=1):
    """A box whose corners lie on half-cell steps, from ``reach`` cells
    before the frame to ``reach`` cells past it, so that many of its
    edges sit exactly on cell edges.  Cells are whole pixels wide, so
    every coordinate and cell edge is exact in floating point."""
    steps = st.integers(-2 * reach, 2 * (side + reach))
    xs = sorted(draw(st.lists(steps, min_size=2, max_size=2, unique=True)))
    ys = sorted(draw(st.lists(steps, min_size=2, max_size=2, unique=True)))
    return BoundingBox(xs[0] * cell_w / 2, ys[0] * cell_h / 2,
                       xs[1] * cell_w / 2, ys[1] * cell_h / 2)


@st.composite
def map_geometry(draw, max_side=7):
    """``(map_side, cell width, cell height)``, cells whole pixels."""
    return (draw(st.integers(1, max_side)), draw(st.integers(1, 6)),
            draw(st.integers(1, 6)))


@st.composite
def edge_box_case(draw):
    side, cell_w, cell_h = draw(map_geometry())
    return side, draw(on_cell_edges(side, cell_w, cell_h)), \
        (side * cell_w, side * cell_h)


# weights whose sums and means are exact, so that ties are ties
WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def drift_case(draw):
    """Scored tubes over a map of equal or few distinct weights, their
    boxes on half-cell steps reaching two cells past the frame, so that
    projected means tie the map mean and mean boxes leave the frame."""
    side, cell_w, cell_h = draw(map_geometry(max_side=4))
    classes = draw(st.integers(1, 3))
    cells = side * side
    if draw(st.booleans()):
        weights = [[draw(WEIGHTS)] * cells for _ in range(classes)]
    else:
        weights = [draw(st.lists(WEIGHTS, min_size=cells, max_size=cells))
                   for _ in range(classes)]
    tubes = []
    for k in range(draw(st.integers(0, 5))):
        boxes = draw(st.lists(on_cell_edges(side, cell_w, cell_h, reach=2),
                              min_size=1, max_size=4))
        n = len(boxes)
        tubes.append(Tube("v", f"t{k}", 0, tuple(boxes),
                          ((0.5, 0.5),) * n, (Source.TRACKED,) * n,
                          label=draw(st.integers(0, classes - 1)),
                          score=1.0))
    return side, weights, tubes, (side * cell_w, side * cell_h)


class TestAgainstReference:
    """Cell selection and footprint pruning equal the exact references
    of ``oracles`` on boxes lying on cell edges and maps of tied
    weights."""

    @given(edge_box_case())
    @settings(max_examples=300, deadline=None)
    def test_cells_overlapping(self, case):
        side, box, frame = case
        assert cells_overlapping(CellLayout(1, side), box, frame) == \
            cells_overlapping_reference(side, box, frame)

    @given(drift_case())
    @settings(max_examples=200, deadline=None)
    def test_prune_drifted(self, case):
        side, weights, tubes, frame = case
        fmap = FootprintMap(CellLayout(1, side), np.array(weights),
                            np.array(weights))
        assert prune_drifted(tubes, fmap, frame) == \
            prune_drifted_reference(tubes, weights, side, frame)


class TestMeanBox:
    def test_average_of_coordinates(self):
        t = Tube("v", "t", 0,
                 (BoundingBox(0, 0, 10, 10), BoundingBox(10, 10, 20, 20)),
                 ((1.0,), (1.0,)), (Source.STATIC, Source.STATIC))
        assert mean_box(t) == BoundingBox(5, 5, 15, 15)

    def test_bit_equal_to_numpy_mean_over_frames(self):
        rng = np.random.default_rng(23)
        for frames in (1, 2, 7, 8, 9, 130, 400):
            lo = rng.uniform(0, 200, size=(frames, 2))
            hi = lo + rng.uniform(0.5, 60, size=(frames, 2))
            coords = np.hstack([lo, hi])
            tube = Tube("v", "t", 0,
                        tuple(BoundingBox(*row) for row in coords.tolist()),
                        ((1.0,),) * frames, (Source.STATIC,) * frames)
            assert mean_box(tube).as_tuple() == \
                tuple(coords.mean(axis=0).tolist()), frames


class TestNearestCentroidAlphas:
    def test_separable_cells_reach_full_accuracy(self):
        layout = CellLayout(1, 2)  # 4 cells
        rng = np.random.default_rng(44)

        def sample(label):
            # Cells 0 and 1 carry the class signal, cells 2 and 3 noise.
            v = rng.normal(scale=0.01, size=(4, 3))
            v[0] += label * 10
            v[1] -= label * 10
            return label, v

        train = [sample(l) for l in (0, 1) for _ in range(10)]
        test = [sample(l) for l in (0, 1) for _ in range(10)]
        alphas = nearest_centroid_alphas(train, test, 2, layout)
        assert alphas.shape == (2, 4)
        np.testing.assert_allclose(alphas[:, 0], 1.0)
        np.testing.assert_allclose(alphas[:, 1], 1.0)

    def test_missing_class_rejected(self):
        layout = CellLayout(1, 2)
        item = (0, np.zeros((4, 3)))
        with pytest.raises(InputError):
            nearest_centroid_alphas([item], [item], 2, layout)
