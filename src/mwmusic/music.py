"""Subspace imaging: decomposition of the data matrix, steering vectors,
noise-space projection, and the reciprocal-projection map over a grid.

The decomposition is one LAPACK singular value decomposition of K itself.
A sweep decomposes its data matrix once and images every trial wavenumber
from the same retained signal basis U[:, :M]. A map takes the projection
norms of its steering rows from an evaluator of its caller
(`steering_evaluators`), one per wavenumber.

Exact-field rows come from `forward.incident_field_matrix` with a ray
interpolant. The centred grid and the circular array share a dihedral
symmetry group G (`symmetry_plan`): a mirror or rotation g of a cell only
permutes the antennas, w(g . r) = w(r)[pi_g], and a permutation is unitary.
So these rows are built on one fundamental domain, 1/|G| of the cells, and
projected onto the bases of every group element together, through the Gram
identity |P_noise w|^2 = 1 - |U_g^H w|^2 for a unit row w (`_image_norms`).
The domain and its chunks are one `SymmetryPlan`, which owns the walk over
them (`SymmetryPlan.over_domain`); `steering_evaluators` builds it once
for all the wavenumbers of an exact-field sweep, and nothing else does.

A plane-wave entry e^{i k theta_n . r} factors over the axes into
X_n(x) Y_n(y), two per-axis tables of res x N exponentials (`_axis_tables`).
Its norms need no plan: over each block of cells every U_m^H w and |w|^2
are small products of the tables (`_plane_wave_norms`), and only the cells
near the signal space or whose tables underflow take their unit rows
(`_plane_wave_rows`) through `_image_norms`. This is the one plane-wave norm
path; the closed form in `theory` is it with a one-column basis. No product
of a map reaches the volume _THREAD_VOLUME that wakes OpenBLAS's threads,
and its transient memory does not grow with the grid.

A map (`ImageMap`) is its projection norms in mask order, one per unmasked
cell, as both steering paths and the closed form give them; the imaging
function min(1/norm, DEFAULT_CEILING) is derived from them in the same
order. Only peak extraction and the PGM lay a map out on the grid.

The CSV writer and reader take the coordinate texts from one helper and
walk the unmasked cells in the same row runs. The reader parses only the
values as numbers while each block's x and y bytes are the texts of the
next cells; any other file it reads again as floats (`read_map_csv`).
"""

from __future__ import annotations

import math
import mmap
import re
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    NumericalError,
    SingularityError,
)
from .forward import _distances, incident_field_matrix
from .scene import _SYMMETRY_TOL, AntennaArray
from .specfun import ray_interpolants

EXACT_FIELD = "exact_field"
PLANE_WAVE = "plane_wave"
VARIANTS = (EXACT_FIELD, PLANE_WAVE)

# reciprocal-map ceiling where the projection norm underflows
DEFAULT_CEILING = 1.0e8
DEFAULT_THRESHOLD_RATIO = 0.1
# the grid resolutions a run accepts and a saved map may declare
MIN_RESOLUTION = 16
MAX_RESOLUTION = 2048

# the volume (rows x inner x columns) from which a matrix product runs on
# two OpenBLAS threads with the build of the 2-core host this was tuned on
# (none at 255 x 16 x 16, two at 256 x 16 x 16); the threads spin after
# each product on the core of a sweep's writer, so every product of a map
# stays below it
_THREAD_VOLUME = 65536
# table entries (points x antennas) per chunk of rows, below the 4096 from
# which a rows @ vector product wakes the threads (process CPU over wall
# time 1.78-1.93 at 4096, 4112 and 8192 entries, 1.00 at 4080); the rows
# and norms do not depend on it
_CHUNK_ENTRIES = 4095
# columns of one product of `_image_norms`, which a chunk keeps below the
# volume: the bases of 16 // M images (one when M > 16), whatever the
# chunk's size, so that no norm depends on the chunk its row falls in
_PRODUCT_COLUMNS = _THREAD_VOLUME // (_CHUNK_ENTRIES + 1)
# the share of |w|^2 below which the Gram form of a norm is recomputed in
# the residual form: above it the Gram form keeps the norm within ~1e-12
# relative (worst 7.7e-13 over the six presets)
_GRAM_FLOOR = 1e-4
# the scaled |w|^2 below which a plane-wave cell takes its unit row: above
# it the terms that underflow (each off by at most 2^-1075) move the sum by
# at most N 2^-105 relative
_SCALE_FLOOR = 2.0**-970

# rows per block of the CSV reader: the rows of a block are parsed and
# scattered into the raster before the next block is read. `theory` sums
# the products of its Pearson coefficient in blocks of as many entries
_READ_ROWS = 1 << 14


def svd_leading(k_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(singular_values, left_vectors) of the square data matrix: all its
    singular values, descending, and its left singular vectors as columns,
    both read-only."""
    k_mat = np.asarray(k_mat)
    if k_mat.ndim != 2 or k_mat.shape[0] != k_mat.shape[1]:
        raise DomainError("a square matrix is required")
    if k_mat.shape[0] < 3:
        raise DomainError("subspace decomposition needs at least a 3x3 matrix")
    try:
        vecs, taus, _ = np.linalg.svd(k_mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value decomposition failed: {exc}") from exc
    taus.flags.writeable = False
    vecs.flags.writeable = False
    return taus, vecs


def signal_subspace_dim(singular_values, threshold_ratio: float = DEFAULT_THRESHOLD_RATIO) -> int:
    """Number of singular values at or above threshold_ratio * tau_1."""
    taus = np.asarray(singular_values, dtype=float)
    if taus.size == 0:
        raise DomainError("empty singular value list")
    if np.any(np.diff(taus) > 0):
        raise DomainError("singular values must be sorted descending")
    if taus[0] <= 0.0:
        raise DegenerateDataError("all singular values vanish; no signal subspace")
    if not (0.0 <= threshold_ratio <= 1.0):
        raise DomainError("threshold_ratio must lie in [0, 1]")
    return int(max(1, np.count_nonzero(taus >= threshold_ratio * taus[0])))


def _axis_tables(k: complex, directions, xs, ys) -> tuple:
    """The per-axis tables of e^{i k theta_n . r} over the lattice xs x ys,
    theta_n = (c_n, s_n) = directions[n]: the phasors e^{i Re k x c_n}
    (xs, N) and the exponents -Im k x c_n (N, xs), then the same over ys
    with s_n; one complex exponential per tick and antenna."""
    tables = []
    for ticks, cos in ((xs, directions[:, 0]), (ys, directions[:, 1])):
        phase = np.exp(1j * (k.real * np.multiply.outer(ticks, cos)))
        tables += [phase, -k.imag * np.multiply.outer(cos, ticks)]
    return tuple(tables)


def _plane_wave_rows(tables: tuple, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Unit rows e^{i k theta_n . r} (points, N) of the lattice points
    (xs[ix], ys[iy]) of the per-axis tables (`_axis_tables`) of k over
    xs x ys, theta_n = (c_n, s_n).

    An entry is e^{i Re k x c_n} e^{i Re k y s_n} e^{-Im k (x c_n + y s_n)}:
    its phasors and exponent terms are the table rows of the point's tick
    indices. The modulus is one real exponential of the exponent less its
    row maximum, so a lossy k cannot overflow it, scaled to unit row length.
    """
    phase_x, loss_x, phase_y, loss_y = tables
    # antennas along the first axis, where the row reductions are fastest
    modulus = loss_x.take(ix, axis=1) + loss_y.take(iy, axis=1)
    modulus -= modulus.max(axis=0)
    np.exp(modulus, out=modulus)
    modulus /= np.sqrt(np.square(modulus).sum(axis=0))
    rows = phase_x.take(ix, axis=0) * phase_y.take(iy, axis=0)
    rows *= modulus.T
    return rows


def _exact_rows(ray, positions: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Unit rows (points, N) of the point-source field at each antenna
    from `ray`, the interpolant of one wavenumber over a distance range that
    covers the points (`incident_field_matrix`). As in `_plane_wave_rows`, a
    row is scaled before its norm: by the power of two that takes its largest
    |Re| or |Im| into [1/2, 1), which is exact and keeps its squares finite."""
    rows = incident_field_matrix(ray, points, positions)
    _, exp = np.frexp(np.abs(rows.view(np.float64)).max(axis=1, keepdims=True))
    rows *= np.ldexp(1.0, -exp)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _image_norms(conj_bases: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|w - U_g U_g^H w| for every unit row w of rows (points, N) and every
    basis U_g of the stack conj_bases (N, images, M) of conj(U_g), shape
    (images, points): the kernel of the walk `SymmetryPlan.over_domain`
    and of the unit rows that a plane-wave map takes (`_plane_wave_norms`).

    By the Gram identity |P_noise w|^2 = |w|^2 - |U_g^H w|^2 = 1 - |U_g^H w|^2,
    every image's norm comes from the products w^T conj(U_g), taken for
    _PRODUCT_COLUMNS columns of the stack at a time. Where that difference
    falls below _GRAM_FLOOR, near the signal space, it has lost digits to
    cancellation, and the norm is recomputed there in the residual form
    |w - U_g U_g^H w| from the same products. The tests hold it to the
    residual form alone.
    """
    n, images, m = conj_bases.shape
    columns = conj_bases.reshape(n, images * m)
    step = max(1, _PRODUCT_COLUMNS // m)
    out = np.empty((images, len(rows)))
    for start in range(0, images, step):
        stop = min(start + step, images)
        # columns g * m to (g + 1) * m hold the coefficients of image start + g
        coefs = rows @ columns[:, start * m:stop * m]
        # their squared real and imaginary parts, (images, 2m, points)
        sq = np.square(coefs.view(np.float64)).T.copy().reshape(stop - start, 2 * m, -1)
        block = out[start:stop]
        np.sum(sq, axis=1, out=block)
        np.subtract(1.0, block, out=block)
        low = block < _GRAM_FLOOR
        np.sqrt(block, out=block, where=~low)
        for g in np.flatnonzero(low.any(axis=1)):
            near = low[g]
            resid = rows[near] - coefs[near, g * m:(g + 1) * m] @ conj_bases[:, start + g].conj().T
            resid = resid.view(np.float64)
            block[g, near] = np.sqrt(np.square(resid, out=resid).sum(axis=1))
    return out


def _plane_wave_norms(
    k: complex, directions, grid: ImagingGrid, basis: np.ndarray, out=None
) -> np.ndarray:
    """|w - U U^H w| for the unit plane-wave row w(r) of k (`_plane_wave_rows`)
    and the signal basis U (N, M) at every unmasked cell of grid, in mask
    order, in out (one float per unmasked cell) or a new array.

    As e^{i k theta_n . r} = X_n(x) Y_n(y), over a block of cells (`_blocks`)
    every U_m^H w and |w|^2 are products of the per-axis tables: conj(U_nm)
    Y_n(y) with X_n(x) for each column m, and |Y_n(y)|^2 with |X_n(x)|^2,
    each axis scaled per tick by its largest modulus, which cancels in
    sqrt(1 - sum_m |U_m^H w|^2 / |w|^2). Where that difference falls below
    _GRAM_FLOOR or the scaled |w|^2 below _SCALE_FLOOR (a strongly lossy k),
    a cell takes the norm of `_image_norms` for its unit row, in chunks of
    _CHUNK_ENTRIES table entries. A band of grid rows goes into out once
    its blocks are done.
    """
    n = basis.shape[0]
    mask = grid.mask
    if out is None:
        out = np.empty(np.count_nonzero(mask))
    ticks = grid.ticks
    tables = _axis_tables(k, directions, ticks, ticks)
    phase_x, loss_x, phase_y, loss_y = tables
    # |X_n(x)| and |Y_n(y)| over the antennas, each tick's largest 1
    size_x = np.exp(loss_x - loss_x.max(axis=0)).T
    size_y = np.exp(loss_y - loss_y.max(axis=0)).T
    wave_x = phase_x * size_x
    wave_y = phase_y * size_y
    np.square(size_x, out=size_x)
    np.square(size_y, out=size_y)
    conj = basis.conj()
    res = grid.resolution
    start = 0
    for rows, cols in _blocks(res, n):
        if cols.start == 0:
            band = np.empty((rows.stop - rows.start, res))
        block = band[:, cols]
        for j, u in enumerate(conj.T):
            coefs = (wave_y[rows] * u) @ wave_x[cols].T
            parts = np.square(coefs.view(np.float64), out=coefs.view(np.float64))
            if j == 0:
                np.add(parts[:, 0::2], parts[:, 1::2], out=block)
            else:
                block += parts[:, 0::2] + parts[:, 1::2]
        size = size_y[rows] @ size_x[cols].T
        low = size < _SCALE_FLOOR
        np.divide(block, size, out=block, where=~low)
        np.subtract(1.0, block, out=block)
        low |= block < _GRAM_FLOOR
        np.sqrt(block, out=block, where=~low)
        low &= mask[rows, cols]
        if low.any():
            iy, ix = np.nonzero(low)
            for chunk in _chunks(len(iy), n):
                unit = _plane_wave_rows(tables, ix[chunk] + cols.start, iy[chunk] + rows.start)
                block[iy[chunk], ix[chunk]] = _image_norms(conj[:, None, :], unit)[0]
        if cols.stop == res:
            kept = mask[rows]
            stop = start + np.count_nonzero(kept)
            out[start:stop] = band[kept]
            start = stop
    return out


def _blocks(resolution: int, antennas: int) -> list[tuple[slice, slice]]:
    """(rows, columns) of the grid in the blocks of `_plane_wave_norms`'
    products, row by row, a fixed tiling for each resolution and antenna
    count. A block row holds below _THREAD_VOLUME / 3 table entries, so
    three rows stay below _THREAD_VOLUME, and the rows are shared out
    evenly, so that no block of a grid of two or more rows has one row
    (with fewer than 21846 antennas): a one-row product is a matrix-vector
    product, whose threads wake from 4096 entries on."""
    widest = max(1, (_THREAD_VOLUME - 1) // (3 * antennas))
    col_parts = -(-resolution // widest)
    cols = -(-resolution // col_parts)
    row_parts = -(-resolution // max(1, (_THREAD_VOLUME - 1) // (antennas * cols)))
    return [
        (slice(resolution * i // row_parts, resolution * (i + 1) // row_parts),
         slice(resolution * j // col_parts, resolution * (j + 1) // col_parts))
        for i in range(row_parts) for j in range(col_parts)
    ]


@dataclass(frozen=True)
class ImagingGrid:
    """Square cell-centered raster over [-L, L]^2 with a disk mask of the ROI."""

    resolution: int
    half_extent: float
    roi_radius: float

    def __post_init__(self):
        if self.resolution < 1:
            raise ConfigurationError("resolution must be >= 1")
        if not (math.isfinite(self.half_extent) and self.half_extent > 0):
            raise ConfigurationError("half_extent must be finite and > 0")
        if not (math.isfinite(self.roi_radius) and self.roi_radius > 0):
            raise ConfigurationError("roi_radius must be finite and > 0")

    @property
    def cell_size(self) -> float:
        return 2.0 * self.half_extent / self.resolution

    @cached_property
    def ticks(self) -> np.ndarray:
        """Cell-center coordinates along one axis, ascending."""
        h = self.cell_size
        t = -self.half_extent + h * (np.arange(self.resolution) + 0.5)
        t.flags.writeable = False
        return t

    @cached_property
    def mask(self) -> np.ndarray:
        """True where the cell center lies inside the ROI disk; shape [iy, ix]."""
        t = self.ticks
        m = np.hypot(t[None, :], t[:, None]) <= self.roi_radius
        m.flags.writeable = False
        return m

    def point_of(self, iy: int, ix: int) -> tuple[float, float]:
        return (float(self.ticks[ix]), float(self.ticks[iy]))


def grid_for_roi(roi_radius: float, resolution: int) -> ImagingGrid:
    """Grid with bounds matching the ROI disk."""
    return ImagingGrid(resolution=resolution, half_extent=roi_radius, roi_radius=roi_radius)


# ---------------------------------------------------------------------------
# Symmetry of grid and array: exact-field rows on one fundamental domain.
# ---------------------------------------------------------------------------

# generators tried: y -> -y, x -> -x and x <-> y, each as its matrix on
# (x, y) and as the view op(a)[cell] = a[g . cell] of a raster a[iy, ix]
_GENERATORS = (
    (((1, 0), (0, -1)), lambda a: a[::-1, :]),
    (((-1, 0), (0, 1)), lambda a: a[:, ::-1]),
    (((0, 1), (1, 0)), lambda a: a.T),
)


@dataclass(frozen=True, eq=False)
class SymmetryPlan:
    """The geometry of an exact-field sweep: one fundamental domain of the
    symmetry group G shared by an imaging grid and an antenna array, and
    what the maps over it need that no wavenumber changes.

    points holds the representative cell centres (reps, 2). For the j-th
    element g of G (the identity first), cells[j] holds the mask-order
    index of g . rep for every representative, and perms[j] the antenna
    permutation pi_g with w(g . r) = w(r)[pi_g], for any steering or unit
    row w built from distances to, or directions of, the antennas. chunks
    are the slices of the representatives an exact-field map walks,
    _CHUNK_ENTRIES table entries each; `over_domain` is that walk. Every
    array is read-only: one plan serves every map of a sweep.
    """

    grid: ImagingGrid
    points: np.ndarray
    cells: np.ndarray
    perms: np.ndarray
    chunks: tuple[slice, ...]

    def over_domain(self, rows_of, basis: np.ndarray, out=None) -> np.ndarray:
        """The projection norms `_image_norms` of the rows w(r) against
        basis (N, M) at every unmasked cell, in mask order, in out (one
        float per unmasked cell) or a new array.

        rows_of(points) builds the unit rows w(r) (points, N) of one chunk
        of representatives at a time. conj(basis) is pulled back by every
        pi_g at once: moved (N, |G|, M) holds conj(U_g) = moved[:, j] with
        U_g[pi_g] = basis for the j-th element g. As w(g . r) = w(r)[pi_g]
        and a common permutation of the antennas leaves a projection norm
        unchanged, the norm of w(r) against U_g is the one at g . r;
        _image_norms(moved, rows) gives these for every g, shape
        (|G|, points), and one scatter per chunk stores them.
        """
        if out is None:
            out = np.empty(np.count_nonzero(self.grid.mask))
        conj = basis.conj()
        count = len(self.perms)
        moved = np.empty((conj.shape[0], count, conj.shape[1]), dtype=conj.dtype)
        moved[self.perms.T, np.arange(count)] = conj[:, None]
        for chunk in self.chunks:
            out[self.cells[:, chunk]] = _image_norms(moved, rows_of(self.points[chunk]))
        return out


def _antenna_permutation(g: np.ndarray, array: AntennaArray) -> np.ndarray | None:
    """pi with a_{pi[n]} = g^T a_n for every antenna, or None when g does not
    map the antenna positions onto themselves. An AntennaArray keeps its
    antennas more than 2 _SYMMETRY_TOL R apart, so no two antennas match
    one partner and pi is a permutation."""
    pos = array.positions
    moved = pos @ g
    dist = np.hypot(moved[:, None, 0] - pos[None, :, 0], moved[:, None, 1] - pos[None, :, 1])
    perm = np.argmin(dist, axis=1)
    if dist[np.arange(array.count), perm].max() > _SYMMETRY_TOL * array.radius:
        return None
    return perm


def symmetry_plan(grid: ImagingGrid, array: AntennaArray) -> SymmetryPlan:
    """Fundamental domain, cell maps and antenna permutations of the group
    generated by those of y -> -y, x -> -x and x <-> y that map both the
    masked cells and the antenna positions onto themselves, with the
    domain's chunks; built once per exact-field sweep (`steering_evaluators`).

    A uniform circular array gives |G| = 8 for N = 0 mod 4, 4 for
    N = 2 mod 4 and 2 for odd N; an asymmetric array gives the identity
    alone, and every cell is then its own representative, in mask order.
    The representative of an orbit is its lowest mask-order cell.
    """
    mask = grid.mask
    order = np.full(mask.shape, -1, dtype=np.intp)  # mask-order index per cell
    order[mask] = np.arange(np.count_nonzero(mask))
    kept = []
    for matrix, op in _GENERATORS:
        g = np.array(matrix)
        perm = _antenna_permutation(g, array)
        if perm is not None and np.array_equal(op(mask), mask):
            kept.append((g, op, perm))
    # closure, walking the list while it grows: element h carries the raster
    # of order[h . cell] and pi_h; then order[h g . cell] = op_g(raster_h) and,
    # as w(h g r) = w(g r)[pi_h] = w(r)[pi_g][pi_h], pi_hg = pi_g[pi_h]
    group = [(np.eye(2, dtype=int), order, np.arange(array.count))]
    seen = {group[0][0].tobytes()}
    for h, raster, pi_h in group:
        for g, op, pi_g in kept:
            product = h @ g
            if product.tobytes() not in seen:
                seen.add(product.tobytes())
                group.append((product, op(raster), pi_g[pi_h]))

    canonical = order[mask]
    for _, raster, _ in group[1:]:
        np.minimum(canonical, raster[mask], out=canonical)
    reps = np.flatnonzero(canonical == order[mask])
    iy, ix = np.nonzero(mask)
    iy, ix = iy[reps], ix[reps]
    points = np.column_stack([grid.ticks[ix], grid.ticks[iy]])
    cells = np.stack([raster[iy, ix] for _, raster, _ in group])
    perms = np.stack([perm for _, _, perm in group])
    for a in (points, cells, perms):
        a.flags.writeable = False
    return SymmetryPlan(
        grid=grid,
        points=points,
        cells=cells,
        perms=perms,
        chunks=_chunks(len(points), array.count),
    )


def _chunks(points: int, antennas: int) -> tuple[slice, ...]:
    """Slices of the representatives, _CHUNK_ENTRIES table entries at a time."""
    step = max(1, _CHUNK_ENTRIES // antennas)
    return tuple(slice(start, start + step) for start in range(0, points, step))


def _distance_range(points: np.ndarray, array: AntennaArray, chunks) -> tuple[float, float]:
    """Smallest and largest entry of the table of `forward._distances` of the
    points and the antennas, one chunk of points at a time."""
    lo, hi = math.inf, 0.0
    for chunk in chunks:
        table = _distances(points[chunk], array.positions)
        lo = min(lo, float(table.min()))
        hi = max(hi, float(table.max()))
    return lo, hi


@dataclass(frozen=True)
class ImageMap:
    """A map over grid imaged with k_aw: its projection norms |P_noise w(r)|,
    one per unmasked cell in mask order (y rows, x fastest).

    norms is a read-only view of the array given, not a copy of it; values,
    the imaging function min(1/norm, DEFAULT_CEILING) in the same order, is
    derived from it once, on first use.
    """

    grid: ImagingGrid
    norms: np.ndarray
    k_aw: complex

    def __post_init__(self):
        norms = np.asarray(self.norms, dtype=float).view()
        cells = np.count_nonzero(self.grid.mask)
        if norms.shape != (cells,):
            raise DomainError(f"norms must hold one value per unmasked cell, shape ({cells},)")
        norms.flags.writeable = False
        object.__setattr__(self, "norms", norms)

    @cached_property
    def values(self) -> np.ndarray:
        """The reciprocal norms clipped at DEFAULT_CEILING (a norm of 0
        gives the ceiling), in mask order, read-only."""
        with np.errstate(divide="ignore"):
            values = np.divide(1.0, self.norms)
        np.minimum(values, DEFAULT_CEILING, out=values)
        values.flags.writeable = False
        return values


def steering_evaluators(ks, grid: ImagingGrid, array: AntennaArray, variant: str) -> list:
    """The steering evaluator of `imaging_map` for each k of ks over grid
    and the antennas of array: (basis, out=None) -> the projection norms of
    the unit steering rows of k against basis (N, M) at the unmasked cells
    of grid, in mask order, in out when given.

    Exact-field rows (`_exact_rows`) are walked over the domain of the one
    symmetry plan built here for all the ks (`SymmetryPlan.over_domain`),
    their interpolants from one evaluation of the nodes of all the ks
    (`specfun.ray_interpolants`) over the distance range of the whole
    domain, so a row does not depend on its chunk. When the interpolant of
    a k cannot be formed (|k| d past 1e6, node values that overflow, or
    e^{-ikd} that overflows at the largest distance), this raises
    NumericalError naming the first such k; a SingularityError
    passes through. The far-field rows e^{i k (a_n/|a_n|) . r} take
    `_plane_wave_norms`, which builds the tables of its own k at each call
    and needs no plan.
    """
    if variant == PLANE_WAVE:
        return [partial(_plane_wave_norms, k, array.directions, grid) for k in ks]
    if variant != EXACT_FIELD:
        raise DomainError(f"unknown test-vector variant {variant!r}")
    plan = symmetry_plan(grid, array)
    try:
        rays = ray_interpolants(ks, *_distance_range(plan.points, array, plan.chunks))
    except SingularityError:
        raise
    except DomainError as exc:
        raise NumericalError(f"steering field at k_aw = {exc}") from exc
    return [partial(plan.over_domain, partial(_exact_rows, ray, array.positions)) for ray in rays]


def imaging_map(
    basis: np.ndarray, k_aw: complex, grid: ImagingGrid, array: AntennaArray, steering, out=None
) -> ImageMap:
    """The map of k_aw over grid (`ImageMap`): the projection norms
    |P_noise W(r)| at its unmasked cells, with the noise projector defined
    by the signal basis U[:, :M] (N, M) and the unit steering rows W(r) of
    k_aw from the antennas of array, whose norms steering(basis, out) gives
    (`steering_evaluators` of the same grid and array). The norms, in mask
    order, are computed into out when it is given (a float array of one
    entry per unmasked cell), and the map holds them there.

    Raises DomainError for a basis of N or more columns, which leaves no
    noise subspace, and NumericalError when a norm is not finite.
    """
    if grid.resolution < MIN_RESOLUTION:
        raise ConfigurationError(f"imaging grid resolution must be >= {MIN_RESOLUTION}")
    if array.count != basis.shape[0]:
        raise DomainError("antenna count does not match the signal basis")
    if basis.shape[1] >= basis.shape[0]:
        raise DomainError(f"no noise subspace: {basis.shape[1]} columns for {array.count} antennas")
    norms = steering(basis, out)
    if not np.all(np.isfinite(norms)):
        raise NumericalError(
            f"non-finite projection norm: the steering field at k_aw = {k_aw:.6g} "
            "is not finite"
        )
    return ImageMap(grid, norms, k_aw)


# ---------------------------------------------------------------------------
# ImageMap export: CSV (x, y, value per unmasked cell) and binary PGM.
# Both writers are deterministic so repeated runs produce identical bytes.
# ---------------------------------------------------------------------------

def write_map_csv(image: ImageMap, path, which: str = "values") -> None:
    """CSV with a resolution/bounds/k_aw header and one x,y,value row per
    unmasked cell (y rows ascending, x fastest) of the map's "values" or
    "norms", as `which` names. The body is written one grid row at a time."""
    if which not in ("values", "norms"):
        raise DomainError(f"unknown map layer {which!r}; expected 'values' or 'norms'")
    grid = image.grid
    data = getattr(image, which)
    header = (
        f"# resolution,{grid.resolution}\n"
        f"# bounds,{float(-grid.half_extent)!r},{float(grid.half_extent)!r}\n"
        f"# k_aw,{float(image.k_aw.real)!r},{float(image.k_aw.imag)!r}\n"
        "x,y,value\n"
    )
    ticks = _tick_texts(grid)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header)
        rows, firsts, counts = _row_runs(grid.mask)
        start = 0  # the mask-order index of the run's first cell
        for iy, lo, count in zip(rows.tolist(), firsts.tolist(), counts.tolist()):
            y_str = ticks[iy]
            fh.write("".join([
                f"{x},{y_str},{v!r}\n"
                for x, v in zip(ticks[lo:lo + count], data[start:start + count].tolist())
            ]))
            start += count


def _tick_texts(grid: ImagingGrid) -> list[str]:
    """The text of each tick of grid in the x and y columns of a map CSV."""
    return [repr(t) for t in grid.ticks.tolist()]


def _row_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, first column and length of the run of unmasked cells of each
    grid row that has any, in mask order: the ticks ascend, and the distance
    to the centre falls and then rises along a row."""
    counts = np.count_nonzero(mask, axis=1)
    rows = np.flatnonzero(counts)
    # argmax along an axis copies the whole mask; one row at a time does not
    firsts = np.array([mask[iy].argmax() for iy in rows.tolist()], dtype=np.intp)
    return rows, firsts, counts[rows]


# a map CSV row as the written path parses it: the coordinate texts as
# bytes, the value by numpy's own float parser. A float's repr has at most
# 24 characters, so a longer text, cut to 32, matches no tick. numpy drops
# the trailing NULs of a bytes field, so a text that ends in NUL characters
# would read as the tick before them, where the float parser refuses it: a
# file that holds a NUL is read as floats (`read_map_csv`)
_WRITTEN_ROW = np.dtype([("x", "S32"), ("y", "S32"), ("value", np.float64)])
# the 32 bytes of a coordinate text as four integers, compared as such
_TEXT_WORDS = np.dtype((np.uint64, 4))


def _written_block(fh, start: int, runs, words: np.ndarray, values: np.ndarray) -> int | None:
    """Parse the next block of at most _READ_ROWS rows of a map CSV body
    from fh, which follows `start` rows. When its x and y texts are the
    tick texts `words` (_TEXT_WORDS) of the unmasked cells start, start + 1,
    ... of the grid's row runs `runs`, put its values into those cells and
    return its row count; otherwise, or when numpy cannot parse it this
    way, return None and leave values as it is."""
    try:
        block = np.loadtxt(
            fh, dtype=_WRITTEN_ROW, delimiter=",", comments=None, ndmin=1,
            max_rows=_READ_ROWS, encoding=None,
        )
    except ValueError:
        return None
    rows, firsts, counts = runs
    stop = start + len(block)
    if stop > counts.sum():
        return None
    # the run of each cell of the block, and its row and column
    ends = np.cumsum(counts)
    begins = ends - counts
    run = np.repeat(
        np.arange(len(counts)), np.clip(ends, start, stop) - np.clip(begins, start, stop)
    )
    iy = rows[run]
    ix = (firsts - begins)[run] + np.arange(start, stop)
    if not (np.array_equal(block["x"].view(_TEXT_WORDS), words.take(ix, axis=0))
            and np.array_equal(block["y"].view(_TEXT_WORDS), words.take(iy, axis=0))):
        return None
    values[iy, ix] = block["value"]
    return stop - start


def read_map_csv(path, roi_radius: float) -> ImageMap:
    """The ImageMap of a map CSV written by write_map_csv, the file's values
    as its norms (in mask order).

    The body is read in blocks of _READ_ROWS rows, each put into a raster
    of the grid before the next is read, so the rows are never held at
    once. A block whose coordinate texts are those write_map_csv writes for
    the next cells of the grid (`_written_block`) is parsed with the texts
    left as bytes. At the first block that is not, as in a file with
    shuffled or perturbed rows, a config of another ROI radius or a bad
    row, the body is read again from its first row by numpy as floats, each
    row going to the cell nearest its point; the rows of a written map read
    either way give the same values. A file that holds a NUL character is
    read as floats from the start.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = {}
            for header_lines, line in enumerate(fh, 1):
                line = line.strip()
                if line == "x,y,value":
                    break
                if line.startswith("#"):
                    key, *vals = line.lstrip("# ").split(",")
                    header[key] = vals
            else:
                raise DomainError(f"{path}: missing x,y,value header row")
            try:
                resolution = int(header["resolution"][0])
                lo, hi = (float(v) for v in header["bounds"])
                k_aw = complex(float(header["k_aw"][0]), float(header["k_aw"][1]))
            except (KeyError, ValueError, IndexError) as exc:
                raise DomainError(f"{path}: malformed CSV header") from exc
            # before anything is allocated for the grid
            if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
                raise DomainError(
                    f"{path}: resolution must lie in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], "
                    f"got {resolution}"
                )
            if not math.isclose(-lo, hi, rel_tol=1e-12):
                raise DomainError(f"{path}: bounds must be symmetric")
            # the range of `scene.wavenumber`; the comparisons refuse NaN too
            if not (0 < k_aw.real < math.inf and 0 <= k_aw.imag < math.inf):
                raise DomainError(f"{path}: k_aw must be finite with Re k > 0 and Im k >= 0, got {k_aw}")
            grid = ImagingGrid(resolution=resolution, half_extent=hi, roi_radius=roi_radius)
            values = np.full((resolution, resolution), np.nan)
            runs = _row_runs(grid.mask)
            words = np.array(_tick_texts(grid), dtype=_WRITTEN_ROW["x"]).view(_TEXT_WORDS)
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as text:
                count = _READ_ROWS if text.find(b"\0") < 0 else None  # see _WRITTEN_ROW
            with warnings.catch_warnings():
                # an empty body is reported below as uncovered cells
                warnings.simplefilter("ignore", UserWarning)
                start = 0
                while count == _READ_ROWS:
                    count = _written_block(fh, start, runs, words, values)
                    start += _READ_ROWS
                if count is None:
                    # the whole body again as floats, read from the start of
                    # the file so that its text is decoded in the same pieces
                    # and an error names the same position
                    fh.seek(0)
                    for _ in range(header_lines):
                        next(fh)
                    start = 0
                    while _plain_block(fh, start, grid, values, path) == _READ_ROWS:
                        start += _READ_ROWS
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
    if not np.array_equal(np.isfinite(values), grid.mask):
        raise DomainError(f"{path}: rows do not cover exactly the unmasked cells with finite values")
    return ImageMap(grid, values[grid.mask], k_aw)


def _plain_block(fh, start: int, grid: ImagingGrid, values: np.ndarray, path) -> int:
    """Parse the next block of at most _READ_ROWS rows of a map CSV body
    from fh as floats, the body's row `start` first, and put each row into
    the cell of values nearest its point; returns the block's row count. A
    point outside the grid raises, naming the first."""
    try:
        rows = np.loadtxt(
            fh, delimiter=",", comments=None, ndmin=2, max_rows=_READ_ROWS, encoding=None
        )
    except ValueError as exc:
        # numpy counts the rows of the block; count from the body's first
        detail = re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + start}", str(exc))
        raise DomainError(f"{path}: bad data row: {detail}") from exc
    if rows.size and rows.shape[1] != 3:
        raise DomainError(f"{path}: bad data row: {rows.shape[1]} fields, 3 expected")
    rows = rows.reshape(-1, 3)
    # (iy, ix) of every row, from its (y, x)
    cells = np.rint((rows[:, 1::-1] + grid.half_extent) / grid.cell_size - 0.5)
    # written so that a NaN coordinate falls outside too
    outside = np.flatnonzero(~np.all((cells >= 0) & (cells < grid.resolution), axis=1))
    if outside.size:
        point = tuple(rows[outside[0], :2].tolist())
        raise DomainError(f"{path}: point {point} falls outside the grid")
    values[tuple(cells.astype(np.intp).T)] = rows[:, 2]
    return len(rows)


def write_map_pgm(image: ImageMap, path) -> None:
    """8-bit binary PGM (P5) of the map's values, min-max normalized over
    the unmasked cells.

    Rows run top to bottom with y descending (image convention); masked
    cells are black; a constant map renders as all-255.
    """
    grid = image.grid
    vals = image.values
    mask = grid.mask
    if not mask.any():
        raise DomainError("image has no unmasked cells")
    vmin = float(np.min(vals))
    vmax = float(np.max(vals))
    pixels = np.zeros((grid.resolution, grid.resolution), dtype=np.uint8)
    if vmax == vmin:
        pixels[mask] = 255
    else:
        # 255 (v - vmin) / (vmax - vmin), in one temporary
        scaled = np.subtract(vals, vmin)
        scaled *= 255.0
        scaled /= vmax - vmin
        pixels[mask] = np.rint(scaled, out=scaled).astype(np.uint8)
    flipped = pixels[::-1, :]  # top row carries the largest y
    header = f"P5\n{grid.resolution} {grid.resolution}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(flipped.tobytes())


def extract_peaks(image: ImageMap, count: int) -> list[tuple[tuple[float, float], float]]:
    """Greedy maxima of the map's values with non-maximum suppression over
    a 4-cell radius.

    Ties break lexicographically by (row, column); at most `count` peaks are
    returned, sorted by value descending. Each round takes the first argmax
    (row-major) of the cells still open, then closes the disk of squared
    cell distance <= 16 around it.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    mask = image.grid.mask
    if not mask.any():
        raise DomainError("image has no unmasked cells")
    res = image.grid.resolution
    # the values of the cells still open, -inf at the closed and masked ones
    open_values = np.full((res, res), -np.inf)
    open_values[mask] = image.values
    reach = 4  # the suppression radius, in cells
    out: list[tuple[tuple[float, float], float]] = []
    for _ in range(count):
        iy, ix = divmod(int(np.argmax(open_values)), res)
        value = float(open_values[iy, ix])
        if value == -np.inf:
            break
        out.append((image.grid.point_of(iy, ix), value))
        ys = np.arange(max(iy - reach, 0), min(iy + reach + 1, res))
        xs = np.arange(max(ix - reach, 0), min(ix + reach + 1, res))
        disk = (ys[:, None] - iy) ** 2 + (xs[None, :] - ix) ** 2 <= reach * reach
        open_values[ys[0]:ys[-1] + 1, xs[0]:xs[-1] + 1][disk] = -np.inf
    return out
