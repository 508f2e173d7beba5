"""Subspace imaging: decomposition of the data matrix, steering vectors,
noise-space projection, and the reciprocal-projection map over a grid.

The decomposition is one LAPACK singular value decomposition of K itself.
A sweep decomposes its data matrix once and images every trial wavenumber
from the same retained signal basis U[:, :M]; only the steering vectors
change between wavenumbers. A map takes its steering rows from an
evaluator of its caller (`steering_evaluators`): the exact-field rows come
from `forward.incident_field_matrix` with a ray interpolant, all of a
sweep's interpolants from one evaluation of their nodes, and the
plane-wave rows from `_unit_phasors`, which the closed form in `theory`
shares.

The centred grid and the circular array share a dihedral symmetry group G
(`symmetry_plan`): a mirror or rotation g of a cell only permutes the
antennas, w(g . r) = w(r)[pi_g]. A permutation is unitary, so the
projection norm at g . r is that of w(r) against the basis with its rows
permuted. The steering rows are therefore built on one fundamental domain,
1/|G| of the cells, and projected onto the bases of every group element
together, through the Gram identity |P_noise w|^2 = 1 - |U_g^H w|^2 for a
unit row w (`_image_norms`); an array without symmetry images every cell
through the same code with G = {identity}.

Everything that depends only on the grid and the array (the domain and
its chunks) is one `SymmetryPlan`. A sweep builds it once and passes it to
every map; per wavenumber only the steering rows are computed. The plan owns
the walk over its domain (`SymmetryPlan.over_domain`), which the imaging
map and the closed form in `theory` share: rows for one chunk of
_CHUNK_ENTRIES table entries at a time, few enough that the walk keeps to
one BLAS thread, paired with a basis pulled back by every group
element at once. With the CSV writer streaming one grid row at a time and
the reader one block of _READ_ROWS rows, the transient memory of a map does
not grow with the grid. A map's layers are built from its projection norms
by `map_from_norms`, which a process that receives only the norms calls
too.

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
from .forward import ScatteringMatrix, incident_field_matrix
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

# table entries (points x antennas) per chunk of a grid's fundamental domain,
# so a map's transient memory does not grow with the grid, and below the
# size at which a product of the walk wakes OpenBLAS threads: with the
# OpenBLAS build of the 2-core host this was tuned on, a rows @ vector
# product (the imaging walk's at M = 1 without symmetry, the closed form's
# then) runs on two threads from 4096 table entries on (process CPU over
# wall time 1.78-1.93 at 4096, 4112 and 8192 entries, 1.00 at 4080 and 0.97
# at 4032),
# and the threads spin after each product on the core a sweep's writer
# process uses. The boundary is a property of the BLAS build; the rows and
# norms do not depend on the chunk size
_CHUNK_ENTRIES = 4095

# columns of one product of the imaging walk (`_image_norms`): a rows @
# matrix product runs on two OpenBLAS threads from a volume of points x
# antennas x columns = 65536 on (with the same build: no time on the worker
# threads at 255 x 16 x 16, workers spinning at 256 x 16 x 16), and a
# chunk's table stays below 4096 entries, so 16 columns keep it below. A
# product takes the bases of 16 // M images (one when M > 16) whatever the
# chunk's size: a grouping that followed the chunk would make a norm depend
# on the chunk its row falls in
_PRODUCT_COLUMNS = 16
# the share of |w|^2 below which the Gram form of a norm is recomputed in
# the residual form: above it the Gram form keeps the norm within ~1e-12
# relative (worst 7.7e-13 over the six presets)
_GRAM_FLOOR = 1e-4

# rows per block of the CSV reader: the rows of a block are parsed and
# scattered into the raster before the next block is read. `theory` sums
# the products of its Pearson coefficient in blocks of as many entries
_READ_ROWS = 1 << 14


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Singular values (descending) and left singular vectors (columns) of K."""

    singular_values: np.ndarray
    left_vectors: np.ndarray


def svd_leading(k_mat) -> SubspaceDecomposition:
    """All singular values and left singular vectors of the data matrix.

    Accepts a ScatteringMatrix or a plain complex square ndarray.
    """
    entries = k_mat.entries if isinstance(k_mat, ScatteringMatrix) else np.asarray(k_mat)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise DomainError("a square matrix is required")
    if entries.shape[0] < 3:
        raise DomainError("subspace decomposition needs at least a 3x3 matrix")
    try:
        vecs, taus, _ = np.linalg.svd(entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value decomposition failed: {exc}") from exc
    taus.flags.writeable = False
    vecs.flags.writeable = False
    return SubspaceDecomposition(singular_values=taus, left_vectors=vecs)


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


def _unit_phasors(k: complex, points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Rows e^{i k theta_n . r} for each point, scaled to unit length.

    The largest modulus of each row is divided out before the exponential,
    so a lossy k cannot overflow it; the scale cancels in the normalization.
    """
    phase = 1j * k * (points @ directions.T)
    phase -= phase.real.max(axis=1, keepdims=True)
    rows = np.exp(phase, out=phase)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def _exact_rows(ray, positions: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Unit rows (points, N) of the point-source field at each antenna
    from `ray`, the interpolant of one wavenumber over a distance range that
    covers the points (`incident_field_matrix`)."""
    rows = incident_field_matrix(ray, points, positions)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _image_norms(conj_bases: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|w - U_g U_g^H w| for every unit row w of rows (points, N) and every
    basis U_g of the stack conj_bases (N, images, M) of conj(U_g), shape
    (images, points): the pair of the imaging walk.

    By the Gram identity |P_noise w|^2 = |w|^2 - |U_g^H w|^2 = 1 - |U_g^H w|^2,
    every image's norm comes from the products w^T conj(U_g), taken for
    _PRODUCT_COLUMNS columns of the stack at a time. Where that difference
    falls below _GRAM_FLOOR, near the signal space, it has lost digits to
    cancellation, and the norm is recomputed there in the residual form
    |w - U_g U_g^H w| from the same products. A basis of N columns spans
    every row, and its norms are 0. This is the only projection-norm kernel
    of the package; the tests hold it to the residual form alone.
    """
    n, images, m = conj_bases.shape
    if m >= n:
        return np.zeros((images, len(rows)))
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

    def raster(self, values) -> np.ndarray:
        """The (res, res) array with values, in mask order (y rows, x
        fastest), at the unmasked cells and NaN at the masked ones."""
        out = np.full((self.resolution, self.resolution), np.nan)
        out[self.mask] = values
        return out

    def point_of(self, iy: int, ix: int) -> tuple[float, float]:
        return (float(self.ticks[ix]), float(self.ticks[iy]))


def grid_for_roi(roi_radius: float, resolution: int) -> ImagingGrid:
    """Grid with bounds matching the ROI disk."""
    return ImagingGrid(resolution=resolution, half_extent=roi_radius, roi_radius=roi_radius)


# ---------------------------------------------------------------------------
# Symmetry of grid and array: steering rows on one fundamental domain.
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
    """The geometry of a sweep: one fundamental domain of the symmetry group
    G shared by an imaging grid and an antenna array, and what the maps over
    it need that no wavenumber changes.

    points holds the representative cell centres (reps, 2). For the j-th
    element g of G (the identity first), cells[j] holds the mask-order
    index of g . rep for every representative, and perms[j] the antenna
    permutation pi_g with w(g . r) = w(r)[pi_g], for any steering or unit
    row w built from distances to, or directions of, the antennas. chunks
    are the slices of the representatives a map walks, _CHUNK_ENTRIES
    table entries each; `over_domain` is that walk. Every array is
    read-only: one plan serves every map of a sweep.
    """

    grid: ImagingGrid
    array: AntennaArray
    points: np.ndarray
    cells: np.ndarray
    perms: np.ndarray
    chunks: tuple[slice, ...]

    def over_domain(self, rows_of, partners: np.ndarray, pair, out=None) -> np.ndarray:
        """pair(moved, rows) at every unmasked cell, in mask order, in out
        (one float per unmasked cell) or a new array.

        rows_of(points) builds the rows w(r) (points, N) of one chunk of
        representatives at a time. partners, its first axis over the
        antennas, is pulled back by every pi_g at once: moved (N, |G|, ...)
        holds partner_g = moved[:, j] with partner_g[pi_g] = partners for
        the j-th element g. As w(g . r) = w(r)[pi_g], pair(partner_g, rows)
        is the value at the cells g . r for any pair that a common
        permutation of the antennas leaves unchanged (a projection norm);
        pair(moved, rows) gives these for every g, shape (|G|, points), and
        one scatter per chunk stores them.
        """
        if out is None:
            out = np.empty(np.count_nonzero(self.grid.mask))
        count = len(self.perms)
        moved = np.empty((partners.shape[0], count) + partners.shape[1:], dtype=partners.dtype)
        moved[self.perms.T, np.arange(count)] = partners[:, None]
        for chunk in self.chunks:
            out[self.cells[:, chunk]] = pair(moved, rows_of(self.points[chunk]))
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
    domain's chunks; built once per sweep.

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
        array=array,
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
    """Smallest and largest entry of the distance table of the points and the
    antennas, one chunk of points at a time, without holding the table.

    Squared distances, several times cheaper than np.hypot, pick the candidate
    entries within 1e-9 of either extreme, far above the few ulps by which
    the two forms differ; np.hypot, as in the table, decides among them.
    """
    pos = array.positions
    lo, hi = math.inf, 0.0
    for chunk in chunks:
        dx = points[chunk, None, 0] - pos[None, :, 0]
        dy = points[chunk, None, 1] - pos[None, :, 1]
        sq = dx * dx + dy * dy
        near = sq <= sq.min() * (1.0 + 1e-9)
        far = sq >= sq.max() * (1.0 - 1e-9)
        lo = min(lo, float(np.hypot(dx[near], dy[near]).min()))
        hi = max(hi, float(np.hypot(dx[far], dy[far]).max()))
    return lo, hi


@dataclass(frozen=True)
class ImageMap:
    """Scalar field over the grid; masked cells carry NaN.

    values holds the reciprocal-projection map (clipped at the ceiling);
    raw_norm, when present, holds the unclipped projection norms.
    """

    grid: ImagingGrid
    values: np.ndarray
    raw_norm: np.ndarray | None = None
    k_aw: complex | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        shape = (self.grid.resolution, self.grid.resolution)
        if v.shape != shape:
            raise DomainError(f"values must have shape {shape}")
        # gather bools, not floats: a float copy of the unmasked cells would
        # set the memory peak of a large map
        if not np.isfinite(v)[self.grid.mask].all():
            raise DomainError("unmasked map values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.raw_norm is not None:
            r = np.asarray(self.raw_norm, dtype=float)
            if r.shape != shape:
                raise DomainError(f"raw_norm must have shape {shape}")
            r.flags.writeable = False
            object.__setattr__(self, "raw_norm", r)


def steering_evaluators(ks, plan: SymmetryPlan, variant: str) -> list:
    """The steering evaluator of `imaging_map` for each k of ks over plan:
    points -> their unit steering rows, of the exact field at the antennas
    (`_exact_rows`) or of the far-field phases e^{i k (a_n/|a_n|) . r}
    (`_unit_phasors`). The exact-field interpolants of all the ks come from
    one evaluation of their nodes (`specfun.ray_interpolants`) over the
    distance range of the whole domain, so a row does not depend on its
    chunk; for a k whose interpolant cannot be formed the entry is the
    exception imaging with it raises (NumericalError past |k| d = 1e6).
    """
    array = plan.array
    if variant == PLANE_WAVE:
        return [partial(_unit_phasors, k, directions=array.directions) for k in ks]
    if variant != EXACT_FIELD:
        raise DomainError(f"unknown test-vector variant {variant!r}")
    out = []
    for k, ray in zip(ks, ray_interpolants(ks, *_distance_range(plan.points, array, plan.chunks))):
        if isinstance(ray, SingularityError):
            out.append(ray)
        elif isinstance(ray, DomainError):
            out.append(NumericalError(f"steering field at k_aw = {k:.6g}: {ray}"))
            out[-1].__cause__ = ray
        else:
            out.append(partial(_exact_rows, ray, array.positions))
    return out


def imaging_map(
    basis: np.ndarray, k_aw: complex, plan: SymmetryPlan, steering, out: np.ndarray | None = None
) -> ImageMap:
    """Reciprocal projection-norm map 1 / |P_noise W(r)| over the unmasked
    cells of plan.grid, with the noise projector defined by the signal basis
    U[:, :M] (N, M) and the unit steering rows W(r) = steering(points) of
    k_aw (`steering_evaluators`) from the antennas of plan.array.

    The steering rows are built on the plan's representatives only, one of
    its chunks at a time (`SymmetryPlan.over_domain`); the norms at the
    images g . r are |w(r) - U_g U_g^H w(r)|, with U_g the basis rows
    scattered by pi_g, all from products of the rows with the stacked
    conj(U_g) (`_image_norms`). The norms, in mask order, are computed into
    out when it is given (a float array of one entry per unmasked cell) and
    are left there.

    Values are clipped at DEFAULT_CEILING where the norm underflows; the
    unclipped norms are retained in raw_norm for quantitative comparison
    (`map_from_norms`). Raises NumericalError when a norm is not finite
    (the exact-field table overflows once Im(k_aw) times the distance passes
    ~709).
    """
    grid = plan.grid
    if grid.resolution < MIN_RESOLUTION:
        raise ConfigurationError(f"imaging grid resolution must be >= {MIN_RESOLUTION}")
    if plan.array.count != basis.shape[0]:
        raise DomainError("antenna count does not match the signal basis")
    norms = plan.over_domain(steering, basis.conj(), _image_norms, out)
    if not np.all(np.isfinite(norms)):
        raise NumericalError(
            f"non-finite projection norm: the steering field at k_aw = {k_aw:.6g} "
            "is not finite"
        )
    return map_from_norms(grid, norms, k_aw)


def map_from_norms(
    grid: ImagingGrid, norms: np.ndarray, k_aw: complex, raw: bool = True
) -> ImageMap:
    """The ImageMap of finite projection norms >= +0 given in mask order:
    values holds their reciprocals clipped at DEFAULT_CEILING (a norm of 0
    gives the ceiling) and, when raw, raw_norm holds the norms. norms is
    left as it is.
    """
    values = grid.raster(norms)
    raw_norm = values.copy() if raw else None
    # the masked cells stay NaN through the reciprocal and the clip
    with np.errstate(divide="ignore"):
        np.divide(1.0, values, out=values)
    np.minimum(values, DEFAULT_CEILING, out=values)
    return ImageMap(grid=grid, values=values, raw_norm=raw_norm, k_aw=k_aw)


# ---------------------------------------------------------------------------
# ImageMap export: CSV (x, y, value per unmasked cell) and binary PGM.
# Both writers are deterministic so repeated runs produce identical bytes.
# ---------------------------------------------------------------------------

def write_map_csv(image: ImageMap, path, which: str = "values") -> None:
    """CSV with a resolution/bounds/k_aw header and one x,y,value row per
    unmasked cell (y rows ascending, x fastest) of the layer `which`,
    "values" or "raw_norm". The body is written one grid row at a time."""
    if which not in ("values", "raw_norm"):
        raise DomainError(f"unknown map layer {which!r}; expected 'values' or 'raw_norm'")
    grid = image.grid
    data = getattr(image, which)
    if data is None:
        raise DomainError(f"image has no {which!r} layer")
    k_re, k_im = (image.k_aw.real, image.k_aw.imag) if image.k_aw is not None else (0.0, 0.0)
    header = (
        f"# resolution,{grid.resolution}\n"
        f"# bounds,{float(-grid.half_extent)!r},{float(grid.half_extent)!r}\n"
        f"# k_aw,{float(k_re)!r},{float(k_im)!r}\n"
        "x,y,value\n"
    )
    ticks = _tick_texts(grid)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header)
        rows, firsts, counts = _row_runs(grid.mask)
        for iy, lo, count in zip(rows.tolist(), firsts.tolist(), counts.tolist()):
            y_str = ticks[iy]
            fh.write("".join([
                f"{x},{y_str},{v!r}\n"
                for x, v in zip(ticks[lo:lo + count], data[iy, lo:lo + count].tolist())
            ]))


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
    """Rebuild an ImageMap (values layer only) written by write_map_csv.

    The body is read in blocks of _READ_ROWS rows, each put into the raster
    before the next is read, so the rows are never held at once. A block
    whose coordinate texts are those write_map_csv writes for the next
    cells of the grid (`_written_block`) is parsed with the texts left as
    bytes. At the first block that is not, as in a file with shuffled or
    perturbed rows, a config of another ROI radius or a bad row, the body
    is read again from its first row by numpy as floats, each row going to
    the cell nearest its point; the rows of a written map read either way
    give the same values. A file that holds a NUL character is read as
    floats from the start.
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
    return ImageMap(grid=grid, values=values, k_aw=k_aw)


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
    """8-bit binary PGM (P5), min-max normalized over unmasked cells.

    Rows run top to bottom with y descending (image convention); masked
    cells are black; a constant map renders as all-255.
    """
    grid = image.grid
    vals = image.values
    mask = grid.mask
    if not mask.any():
        raise DomainError("image has no unmasked cells")
    vmin = float(np.min(vals[mask]))
    vmax = float(np.max(vals[mask]))
    pixels = np.zeros((grid.resolution, grid.resolution), dtype=np.uint8)
    if vmax == vmin:
        pixels[mask] = 255
    else:
        scaled = np.rint(255.0 * (vals[mask] - vmin) / (vmax - vmin))
        pixels[mask] = scaled.astype(np.uint8)
    flipped = pixels[::-1, :]  # top row carries the largest y
    header = f"P5\n{grid.resolution} {grid.resolution}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(flipped.tobytes())


def extract_peaks(image: ImageMap, count: int) -> list[tuple[tuple[float, float], float]]:
    """Greedy maxima with non-maximum suppression over a 4-cell radius.

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
    open_values = np.where(mask, image.values, -np.inf)
    res = image.grid.resolution
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
