"""Subspace imaging: decomposition of the data matrix, steering vectors,
noise-space projection, and the reciprocal-projection map over a grid.

The decomposition is one LAPACK singular value decomposition of K itself.
A sweep decomposes its data matrix once and images every trial wavenumber
from the same retained signal basis U[:, :M]; only the steering vectors
change between wavenumbers. The exact-field steering rows come from
`forward.incident_field_matrix` with the ray interpolant built once per
map, the plane-wave rows from `_unit_phasors`, which the closed form in
`theory` shares.

The centred grid and the circular array share a dihedral symmetry group G
(`symmetry_plan`): a mirror or rotation g of a cell only permutes the
antennas, w(g . r) = w(r)[pi_g]. A permutation is unitary, so the
projection norm at g . r is that of w(r) against the basis with its rows
permuted. The steering rows are therefore built on one fundamental domain,
1/|G| of the cells, and projected once per group element; an array without
symmetry images every cell through the same code with G = {identity}.

Everything that depends only on the grid and the array (the domain, its
chunks and its distance range to the antennas) is one `SymmetryPlan`. A
sweep builds it once and passes it to every map; per wavenumber only the
exact-field interpolant and the steering rows are computed. The plan owns
the walk over its domain (`SymmetryPlan.over_domain`), which the imaging
map and the closed form in `theory` share: rows for one chunk of
_CHUNK_ENTRIES table entries at a time, few enough that the walk keeps to
one BLAS thread, paired with a vector pulled back by each group element.
With the CSV writer streaming one grid row at a time and the reader one
block of _READ_ROWS rows, the transient memory of a map does not grow with
the grid. A map's layers are built from its
projection norms by `map_from_norms`, which a process that receives only
the norms calls too.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property

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
from .specfun import ray_interpolant

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
# product (`w @ basis.conj()` at M = 1, the closed form's `w @ s_g`) runs on
# two threads from 4096 table entries on (process CPU over wall time
# 1.78-1.93 at 4096, 4112 and 8192 entries, 1.00 at 4080 and 0.97 at 4032),
# and the threads spin after each product on the core a sweep's writer
# process uses. The boundary is a property of the BLAS build; the rows and
# norms do not depend on the chunk size
_CHUNK_ENTRIES = 4095

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


def _steering_rows(
    k_aw: complex, points: np.ndarray, array: AntennaArray, variant: str, ray
) -> np.ndarray:
    """Unit steering vectors for each point, shape (npoints, N).

    exact_field uses the point-source field at each antenna from `ray`, the
    `specfun.ray_interpolant` of k_aw over a distance range that covers the
    points (see `incident_field_matrix`); plane_wave uses the far-field
    phases e^{i k (a_n/|a_n|) . r} and ignores `ray`.
    """
    if variant == EXACT_FIELD:
        rows = incident_field_matrix(ray, points, array.positions)
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)
    if variant == PLANE_WAVE:
        return _unit_phasors(k_aw, points, array.directions)
    raise DomainError(f"unknown test-vector variant {variant!r}")


def projection_norm(basis: np.ndarray, w) -> np.ndarray:
    """|w - U U^H w| for each row w, the distance to the span of the
    orthonormal columns U of basis (N, M)."""
    w = np.asarray(w, dtype=np.complex128)
    if w.shape[-1] != basis.shape[0]:
        raise DomainError("test vector length does not match the signal basis")
    resid = w - (w @ basis.conj()) @ basis.T
    return np.linalg.norm(resid, axis=-1)


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

    @cached_property
    def distance_range(self) -> tuple[float, float]:
        """Smallest and largest representative-to-antenna distance, found
        when the first exact-field map asks for it; the closed form and
        plane-wave maps never do."""
        return _distance_range(self.points, self.array, self.chunks)

    def over_domain(self, rows_of, partners: np.ndarray, pair, out=None) -> np.ndarray:
        """pair(partner_g, rows) at every unmasked cell, in mask order, in
        out (one float per unmasked cell) or a new array.

        rows_of(points) builds the rows w(r) (points, N) of one chunk of
        representatives at a time. partners, its first axis over the
        antennas, is pulled back by every pi_g: partner_g[pi_g] = partners.
        As w(g . r) = w(r)[pi_g], pair(partner_g, rows) is the value at the
        cells g . r for any pair that a common permutation of the antennas
        leaves unchanged (a projection norm, |w . v|); it gives one value
        per row.
        """
        if out is None:
            out = np.empty(np.count_nonzero(self.grid.mask))
        moved = np.empty((len(self.perms),) + partners.shape, dtype=partners.dtype)
        moved[np.arange(len(self.perms))[:, None], self.perms] = partners
        for chunk in self.chunks:
            rows = rows_of(self.points[chunk])
            for cells, partner_g in zip(self.cells[:, chunk], moved):
                out[cells] = pair(partner_g, rows)
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
    domain's chunks (and, on first use, its distance range); built once per
    sweep.

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

    def argmax_cell(self) -> tuple[int, int]:
        masked = np.where(self.grid.mask, self.values, -np.inf)
        iy, ix = np.unravel_index(int(np.argmax(masked)), masked.shape)
        return int(iy), int(ix)

    def argmax_point(self) -> tuple[float, float]:
        iy, ix = self.argmax_cell()
        return self.grid.point_of(iy, ix)


def imaging_map(
    basis: np.ndarray,
    k_aw: complex,
    plan: SymmetryPlan,
    variant: str = EXACT_FIELD,
    out: np.ndarray | None = None,
) -> ImageMap:
    """Reciprocal projection-norm map 1 / |P_noise W(r)| over the unmasked
    cells of plan.grid, with the noise projector defined by the signal basis
    U[:, :M] (N, M) and the steering rows from the antennas of plan.array.

    The steering rows are built on the plan's representatives only, one of
    its chunks at a time (`SymmetryPlan.over_domain`); the norms at the
    images g . r are |w(r) - U_g U_g^H w(r)|, with U_g the basis rows
    scattered by pi_g. The exact-field interpolant is built once, over the
    plan's distance range, so a row does not depend on the chunk it falls
    in. The norms, in mask order, are computed into out when it is given
    (a float array of one entry per unmasked cell) and are left there.

    Values are clipped at DEFAULT_CEILING where the norm underflows; the
    unclipped norms are retained in raw_norm for quantitative comparison
    (`map_from_norms`). Raises NumericalError when the exact-field steering
    table leaves the range of hankel2_0 (|k_aw| d > 1e6) or a norm is not
    finite (the table overflows once Im(k_aw) times the distance passes
    ~709).
    """
    grid, array = plan.grid, plan.array
    if grid.resolution < MIN_RESOLUTION:
        raise ConfigurationError(f"imaging grid resolution must be >= {MIN_RESOLUTION}")
    if array.count != basis.shape[0]:
        raise DomainError("antenna count does not match the signal basis")
    ray = None
    if variant == EXACT_FIELD:
        try:
            ray = ray_interpolant(k_aw, *plan.distance_range)
        except DomainError as exc:
            if isinstance(exc, SingularityError):
                raise
            raise NumericalError(f"steering field at k_aw = {k_aw:.6g}: {exc}") from exc
    norms = plan.over_domain(
        lambda points: _steering_rows(k_aw, points, array, variant, ray), basis, projection_norm,
        out,
    )
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
    ticks = [repr(t) for t in grid.ticks.tolist()]
    # the unmasked cells of a row are one run of x: the ticks ascend, and the
    # distance to the centre falls and then rises along a row
    counts = np.count_nonzero(grid.mask, axis=1).tolist()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header)
        for y_str, inside, row, count in zip(ticks, grid.mask, data, counts):
            lo = int(inside.argmax())
            fh.write("".join([
                f"{x},{y_str},{v!r}\n"
                for x, v in zip(ticks[lo:lo + count], row[lo:lo + count].tolist())
            ]))


class _Coordinates(dict):
    """The float of each coordinate text met in one block of a map CSV.

    A written map repeats its grid's tick texts in the x and y columns, so
    each distinct text is parsed once and looked up after that.
    """

    def __missing__(self, text: str) -> float:
        # float() also reads "1_0", which numpy's own parser refuses
        if "_" in text:
            raise ValueError(f"could not convert string {text!r} to float64")
        value = self[text] = float(text)
        return value


def read_map_csv(path, roi_radius: float) -> ImageMap:
    """Rebuild an ImageMap (values layer only) written by write_map_csv.

    The body is read in blocks of _READ_ROWS rows, each scattered into the
    raster before the next is read, so the rows are never held at once. The
    coordinate texts go through a _Coordinates cache for as long as each
    block repeats them, as a written map does.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = {}
            for line in fh:
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
            with warnings.catch_warnings():
                # an empty body is reported below as uncovered cells
                warnings.simplefilter("ignore", UserWarning)
                start = 0
                cached = True
                while True:
                    coordinates = _Coordinates()
                    lookup = coordinates.__getitem__
                    try:
                        # encoding=None hands the converters str on numpy 1.x too,
                        # whose default "bytes" would hand them bytes
                        rows = np.loadtxt(
                            fh, delimiter=",", comments=None, ndmin=2, max_rows=_READ_ROWS,
                            encoding=None, converters={0: lookup, 1: lookup} if cached else None,
                        )
                    except ValueError as exc:
                        # numpy counts the rows of the block; count from the body's first
                        detail = re.sub(
                            r"at row (\d+)", lambda m: f"at row {int(m[1]) + start}", str(exc)
                        )
                        raise DomainError(f"{path}: bad data row: {detail}") from exc
                    _scatter_rows(rows, grid, values, path)
                    if len(rows) < _READ_ROWS:
                        break
                    # a block whose texts repeat less than 8 times on average, as
                    # in shuffled and perturbed rows, is parsed faster without
                    # the cache, and so is the rest of the file
                    cached = cached and 4 * len(coordinates) <= len(rows)
                    start += _READ_ROWS
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
    if not np.array_equal(np.isfinite(values), grid.mask):
        raise DomainError(f"{path}: rows do not cover exactly the unmasked cells with finite values")
    return ImageMap(grid=grid, values=values, k_aw=k_aw)


def _scatter_rows(rows: np.ndarray, grid: ImagingGrid, values: np.ndarray, path) -> None:
    """Put each x,y,value row of a CSV block into the cell of values nearest
    its point; a point outside the grid raises, naming the first."""
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
