"""Spatial footprint maps for pruning drifted tubes.

Conv-style feature grids are aggregated per spatial cell into Fisher
vectors, a per-cell classifier's test accuracy becomes the cell's
discriminative power, and a softmax over cells turns those accuracies
into a per-class weight map.  A tube is kept when the mean weight of
the cells under its temporally averaged box reaches the map's mean
weight, and removed when it falls strictly below.

numpy is imported inside the mixture, Fisher-vector, cell and centroid
functions that ``synth`` runs; the map and the pruning use plain floats,
so ``prune`` runs without it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import InputError
from .model import (BoundingBox, Tube, mean_rows, pairwise_sum,
                    require_scored, softmax)
# CellLayout lives with the scenario's configuration, which loads no numpy
from .scenario import CellLayout

if TYPE_CHECKING:
    import numpy as np

VARIANCE_FLOOR = 1e-6
# EM stops once the mean log-likelihood moves by less than EM_TOL
EM_TOL = 1e-6
EM_MAX_ITER = 100


@dataclass(frozen=True, eq=False)
class DiagonalGaussianMixture:
    """Gaussian mixture with per-dimension variances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        import numpy as np
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if w.ndim != 1 or m.ndim != 2 or v.shape != m.shape \
                or m.shape[0] != w.shape[0]:
            raise InputError(
                f"inconsistent mixture shapes {w.shape}, {m.shape}, {v.shape}")
        if np.any(w <= 0) or abs(float(w.sum()) - 1.0) > 1e-6:
            raise InputError("mixture weights must be positive and sum to 1")
        if np.any(v <= 0):
            raise InputError("mixture variances must be positive")
        for name, arr in (("weights", w), ("means", m), ("variances", v)):
            if not np.all(np.isfinite(arr)):
                raise InputError(f"mixture {name} must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _log_densities(gmm: DiagonalGaussianMixture, x: np.ndarray) -> np.ndarray:
    """Component log densities plus log weights, shape (N, K)."""
    import numpy as np
    diff = x[:, None, :] - gmm.means[None, :, :]
    quad = np.sum(diff * diff / gmm.variances[None, :, :], axis=2)
    log_norm = -0.5 * (gmm.dim * math.log(2.0 * math.pi)
                       + np.sum(np.log(gmm.variances), axis=1))
    return np.log(gmm.weights)[None, :] + log_norm[None, :] - 0.5 * quad


def posteriors(gmm: DiagonalGaussianMixture, descriptors) -> np.ndarray:
    """Component membership probabilities per descriptor, rows sum to 1."""
    import numpy as np
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != gmm.dim:
        raise InputError(
            f"descriptors must be (N, {gmm.dim}), got {x.shape}")
    log_p = _log_densities(gmm, x)
    log_p -= log_p.max(axis=1, keepdims=True)
    p = np.exp(log_p)
    return p / p.sum(axis=1, keepdims=True)


def fit_gmm(descriptors, components: int,
            seed: int = 0) -> DiagonalGaussianMixture:
    """Fit a diagonal mixture by EM with farthest-point initialization.

    The first center is a seeded uniform draw; each further center is
    the descriptor farthest from all chosen ones, which makes the whole
    fit reproducible for a given (descriptors, seed).
    """
    import numpy as np
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InputError(f"descriptors must be a (N, d) array, got {x.shape}")
    n, d = x.shape
    if components < 1 or components > n:
        raise InputError(
            f"need 1 <= components <= {n} descriptors, got {components}")
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = [int(rng.integers(n))]
    dist = np.sum((x - x[centers[0]]) ** 2, axis=1)
    for _ in range(components - 1):
        nxt = int(np.argmax(dist))
        centers.append(nxt)
        dist = np.minimum(dist, np.sum((x - x[nxt]) ** 2, axis=1))
    means = x[centers].copy()
    variances = np.tile(
        np.maximum(x.var(axis=0), VARIANCE_FLOOR), (components, 1))
    weights = np.full(components, 1.0 / components)

    prev_ll = -np.inf
    for _ in range(EM_MAX_ITER):
        gmm = DiagonalGaussianMixture(weights, means, variances)
        log_p = _log_densities(gmm, x)
        row_max = log_p.max(axis=1, keepdims=True)
        log_norm = row_max[:, 0] + np.log(
            np.exp(log_p - row_max).sum(axis=1))
        ll = float(log_norm.mean())
        resp = np.exp(log_p - log_norm[:, None])
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-10)
        weights = nk / n
        weights = weights / weights.sum()
        means = (resp.T @ x) / nk[:, None]
        second = (resp.T @ (x * x)) / nk[:, None]
        variances = np.maximum(second - means * means, VARIANCE_FLOOR)
        if abs(ll - prev_ll) < EM_TOL:
            break
        prev_ll = ll
    return DiagonalGaussianMixture(weights, means, variances)


def fisher_vector(descriptors, gmm: DiagonalGaussianMixture) -> np.ndarray:
    """Improved Fisher vector of a descriptor set, dimension 2 K d.

    Mean-gradient blocks come first, then variance-gradient blocks, both
    ordered by component.  Component k contributes

        G_mu_k    = 1 / (N sqrt(w_k))   sum_i q_ik (x_i - mu_k) / sigma_k
        G_sigma_k = 1 / (N sqrt(2 w_k)) sum_i q_ik ((x_i - mu_k)^2 /
                                                    sigma_k^2 - 1)

    followed by signed square root and L2 normalization.
    """
    import numpy as np
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InputError(
            f"descriptors must be a non-empty (N, d) array, got {x.shape}")
    if x.shape[1] != gmm.dim:
        raise InputError(
            f"descriptor dim {x.shape[1]} does not match mixture dim "
            f"{gmm.dim}")
    n = x.shape[0]
    q = posteriors(gmm, x)
    sigma = np.sqrt(gmm.variances)
    u = (x[:, None, :] - gmm.means[None, :, :]) / sigma[None, :, :]
    g_mean = np.einsum("nk,nkd->kd", q, u) / (
        n * np.sqrt(gmm.weights)[:, None])
    g_var = np.einsum("nk,nkd->kd", q, u * u - 1.0) / (
        n * np.sqrt(2.0 * gmm.weights)[:, None])
    fv = np.concatenate([g_mean.ravel(), g_var.ravel()])
    fv = np.sign(fv) * np.sqrt(np.abs(fv))
    norm = np.linalg.norm(fv)
    if norm > 0:
        fv = fv / norm
    return fv


def aggregate_cells(grid, layout: CellLayout,
                    gmm: DiagonalGaussianMixture) -> np.ndarray:
    """One Fisher vector per cell over all clips, shape (cells, 2 K d).

    ``grid`` holds a tube's per-clip descriptor grids, (T, s, s, d) with
    s the layout's grid side.  Cell (r, c) pools the descriptors of its
    cell_size x cell_size block of grid positions across every clip.
    """
    import numpy as np
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 4 or grid.shape[0] == 0:
        raise InputError(
            f"feature grid must be (T, s, s, d), got {grid.shape}")
    if grid.shape[1:3] != (layout.grid_side,) * 2:
        raise InputError(
            f"feature grid is {grid.shape[1]}x{grid.shape[2]}, the layout "
            f"needs {layout.grid_side}x{layout.grid_side}")
    if not np.all(np.isfinite(grid)):
        raise InputError("feature grid values must be finite")
    cs, side = layout.cell_size, layout.map_side
    out = np.empty((layout.num_cells, 2 * gmm.components * gmm.dim))
    for r in range(side):
        for c in range(side):
            block = grid[:, r * cs:(r + 1) * cs, c * cs:(c + 1) * cs, :]
            descriptors = block.reshape(-1, grid.shape[3])
            out[r * side + c] = fisher_vector(descriptors, gmm)
    return out


def _class_rows(name: str, values) -> tuple[tuple[float, ...], ...]:
    """A (classes, cells) table as one tuple of floats per class."""
    try:
        return tuple(tuple(map(float, row)) for row in values)
    except TypeError:
        raise InputError(
            f"{name} must be one row of cells per class") from None


@dataclass(frozen=True, eq=False)
class FootprintMap:
    """Per-class cell accuracies and their softmax weight maps, each one
    tuple of floats per class with one value per cell."""

    layout: CellLayout
    alphas: tuple[tuple[float, ...], ...]
    weights: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        a = _class_rows("alphas", self.alphas)
        w = _class_rows("weights", self.weights)
        cells = self.layout.num_cells
        for row in a:
            if len(row) != cells:
                raise InputError(f"alphas must be (classes, {cells}), got "
                                 f"a class of {len(row)} cells")
        if list(map(len, w)) != list(map(len, a)):
            raise InputError("weights shape must match alphas")
        if not all(0.0 <= v <= 1.0 for row in a for v in row):
            raise InputError("cell accuracies must be finite and in [0, 1]")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "weights", w)

    @property
    def num_classes(self) -> int:
        return len(self.alphas)


def build_footprint_map(alphas, layout: CellLayout = CellLayout()) -> FootprintMap:
    """Softmax each class's cell accuracies into a weight map."""
    a = _class_rows("alphas", alphas)
    return FootprintMap(layout=layout, alphas=a,
                        weights=tuple(map(softmax, a)))


def uniform_classes(fmap: FootprintMap) -> list[int]:
    """The classes whose weight map is the same in every cell.

    Such a map carries no spatial evidence for its class (the synthetic
    footprint statistics give one when a class's cell accuracies tie):
    every projection ties the map mean in exact arithmetic, so the prune
    keeps every tube of the class whose mean box meets a cell.
    """
    return [label for label, w in enumerate(fmap.weights)
            if len(set(w)) == 1]


def mean_box(tube: Tube) -> BoundingBox:
    """Coordinate-wise mean of the tube's boxes: each coordinate summed in
    frame order and divided once, as numpy's mean over axis 0 does."""
    return BoundingBox(*mean_rows([box.as_tuple() for box in tube.boxes]))


def cells_overlapping(layout: CellLayout, box: BoundingBox,
                      frame_size: tuple[float, float]) -> list[int]:
    """Indices of map cells sharing positive area with a frame box."""
    width, height = frame_size
    if not (width > 0 and height > 0) \
            or not (math.isfinite(width) and math.isfinite(height)):
        raise InputError(
            f"frame size must be positive and finite, got {frame_size}")
    side = layout.map_side
    cell_w = width / side
    cell_h = height / side
    cells = []
    for r in range(side):
        y_lo, y_hi = r * cell_h, (r + 1) * cell_h
        if not (box.y_min < y_hi and y_lo < box.y_max):
            continue
        for c in range(side):
            x_lo, x_hi = c * cell_w, (c + 1) * cell_w
            if box.x_min < x_hi and x_lo < box.x_max:
                cells.append(r * side + c)
    return cells


def prune_drifted(tubes: Sequence[Tube], fmap: FootprintMap,
                  frame_size: tuple[float, float]) -> list[Tube]:
    """Drop tubes projecting onto low-weight regions of their class map.

    The tube's temporally averaged box selects the overlap cell set O;
    the tube survives iff the mean weight over O is at least the mean
    weight over all cells (which is 1 / num_cells by construction).  A
    projection hitting no cell means the tube left the frame and it is
    removed as well.  Both means sum in numpy's pairwise order, so a
    box over every cell ties the map mean exactly; a tube of a class
    whose map is uniform (``uniform_classes``) ties it whatever the box,
    so rounding does not decide it.
    """
    s_map = [pairwise_sum(w) / fmap.layout.num_cells for w in fmap.weights]
    uniform = set(uniform_classes(fmap))
    kept = []
    for tube in tubes:
        require_scored(tube)
        label = tube.label
        if not 0 <= label < fmap.num_classes:
            raise InputError(
                f"tube label {label} outside the map's {fmap.num_classes} "
                f"classes")
        cells = cells_overlapping(fmap.layout, mean_box(tube), frame_size)
        if not cells:
            continue
        w = fmap.weights[label]
        if label in uniform or pairwise_sum(
                [w[k] for k in cells]) / len(cells) >= s_map[label]:
            kept.append(tube)
    return kept


def nearest_centroid_alphas(
        train: Sequence[tuple[int, np.ndarray]],
        test: Sequence[tuple[int, np.ndarray]],
        num_classes: int, layout: CellLayout) -> np.ndarray:
    """Per-cell classifier accuracies from train/test cell vectors.

    Each item pairs a tube label with its (num_cells, dim) cell vector
    stack.  For every cell a nearest-centroid classifier is fit on the
    train split and its accuracy per class on the test split becomes
    alpha[class, cell].  Every class must appear in both splits.
    """
    import numpy as np
    if num_classes < 1:
        raise InputError(f"num_classes must be >= 1, got {num_classes}")
    for name, split in (("train", train), ("test", test)):
        seen = {label for label, _ in split}
        missing = set(range(num_classes)) - seen
        if missing:
            raise InputError(
                f"{name} split lacks tubes for classes {sorted(missing)}")
    cells = layout.num_cells
    centroids = np.zeros((num_classes, cells,
                          np.asarray(train[0][1]).shape[1]))
    counts = np.zeros(num_classes)
    for label, vectors in train:
        centroids[label] += np.asarray(vectors, dtype=np.float64)
        counts[label] += 1
    centroids /= counts[:, None, None]

    correct = np.zeros((num_classes, cells))
    totals = np.zeros(num_classes)
    for label, vectors in test:
        v = np.asarray(vectors, dtype=np.float64)
        # distances: (classes, cells)
        dist = np.sum((centroids - v[None, :, :]) ** 2, axis=2)
        predicted = np.argmin(dist, axis=0)
        correct[label] += predicted == label
        totals[label] += 1
    return correct / totals[:, None]
