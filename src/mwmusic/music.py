"""Subspace imaging: decomposition of the data matrix, steering vectors,
noise-space projection, and the reciprocal-projection map over a grid.

The decomposition is one LAPACK singular value decomposition of K itself.
A sweep decomposes its data matrix once and images every trial wavenumber
from the same retained signal basis U[:, :M]; only the steering vectors
change between wavenumbers. The exact-field steering rows come from
`forward.incident_field_matrix`, the plane-wave rows from `_unit_phasors`,
which the closed form in `theory` shares.

The centred grid and the circular array share a dihedral symmetry group G
(`symmetry_plan`): a mirror or rotation g of a cell only permutes the
antennas, w(g . r) = w(r)[pi_g]. A permutation is unitary, so the
projection norm at g . r is that of w(r) against the basis with its rows
permuted. The steering rows are therefore built on one fundamental domain,
1/|G| of the cells, and projected once per group element; an array without
symmetry images every cell through the same code with G = {identity}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    NumericalError,
)
from .forward import ScatteringMatrix, incident_field_matrix
from .scene import AntennaArray, Wavenumber

EXACT_FIELD = "exact_field"
PLANE_WAVE = "plane_wave"
VARIANTS = (EXACT_FIELD, PLANE_WAVE)

# reciprocal-map ceiling where the projection norm underflows
DEFAULT_CEILING = 1.0e8
DEFAULT_THRESHOLD_RATIO = 0.1


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
    k_aw: Wavenumber, points: np.ndarray, array: AntennaArray, variant: str
) -> np.ndarray:
    """Unit steering vectors for each point, shape (npoints, N).

    exact_field uses the point-source field at each antenna; plane_wave uses
    the far-field phases e^{i k (a_n/|a_n|) . r}.
    """
    if variant == EXACT_FIELD:
        rows = incident_field_matrix(k_aw, points, array.positions)
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)
    if variant == PLANE_WAVE:
        return _unit_phasors(k_aw.value, points, array.directions)
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
        xx, yy = np.meshgrid(self.ticks, self.ticks)
        m = np.hypot(xx, yy) <= self.roi_radius
        m.flags.writeable = False
        return m

    @cached_property
    def cell_centers(self) -> np.ndarray:
        """Unmasked cell centers (n, 2), matching mask order (y rows, x fastest)."""
        xx, yy = np.meshgrid(self.ticks, self.ticks)
        pts = np.column_stack([xx[self.mask], yy[self.mask]])
        pts.flags.writeable = False
        return pts

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
# antenna positions match under a generator within this fraction of R
_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class SymmetryPlan:
    """One fundamental domain of the symmetry group G shared by an imaging
    grid and an antenna array.

    points holds the representative cell centres (reps, 2). For the j-th
    element g of G (the identity first), cells[j] holds the mask-order
    index of g . rep for every representative, and perms[j] the antenna
    permutation pi_g with w(g . r) = w(r)[pi_g], for any steering or unit
    row w built from distances to, or directions of, the antennas.
    """

    points: np.ndarray
    cells: np.ndarray
    perms: np.ndarray


def _antenna_permutation(g: np.ndarray, array: AntennaArray) -> np.ndarray | None:
    """pi with a_{pi[n]} = g^T a_n for every antenna, or None when g does not
    map the antenna positions onto themselves."""
    pos = array.positions
    moved = pos @ g
    dist = np.hypot(moved[:, None, 0] - pos[None, :, 0], moved[:, None, 1] - pos[None, :, 1])
    perm = np.argmin(dist, axis=1)
    if dist[np.arange(array.count), perm].max() > _SYMMETRY_TOL * array.radius:
        return None
    if np.unique(perm).size != array.count:
        return None
    return perm


def symmetry_plan(grid: ImagingGrid, array: AntennaArray) -> SymmetryPlan:
    """Fundamental domain, cell maps and antenna permutations of the group
    generated by those of y -> -y, x -> -x and x <-> y that map both the
    masked cells and the antenna positions onto themselves.

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
    points = grid.cell_centers[reps]
    cells = np.stack([raster[iy, ix] for _, raster, _ in group])
    perms = np.stack([perm for _, _, perm in group])
    for a in (points, cells, perms):
        a.flags.writeable = False
    return SymmetryPlan(points=points, cells=cells, perms=perms)


def _pulled_back(vectors: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """v_g with v_g[pi_g] = v for every permutation, shape (|G|, *v.shape).

    Pairing w(r) with v_g is pairing w(g . r) with v, and a unitary-invariant
    function of the pair (a projection norm, |v^H w|) is unchanged.
    """
    out = np.empty((len(perms),) + vectors.shape, dtype=vectors.dtype)
    out[np.arange(len(perms))[:, None], perms] = vectors
    return out


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
        if not np.all(np.isfinite(v[self.grid.mask])):
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
    k_aw: Wavenumber,
    array: AntennaArray,
    grid: ImagingGrid,
    variant: str = EXACT_FIELD,
    ceiling: float = DEFAULT_CEILING,
) -> ImageMap:
    """Reciprocal projection-norm map 1 / |P_noise W(r)| over unmasked cells,
    with the noise projector defined by the signal basis U[:, :M] (N, M).

    The steering rows are built on the representatives of `symmetry_plan`
    only; the norms at the images g . r are |w(r) - U_g U_g^H w(r)|, with
    U_g the basis rows scattered by pi_g, and land in their mask-order cells.

    Values are clipped at the ceiling where the norm underflows; the
    unclipped norms are retained in raw_norm for quantitative comparison.
    Raises NumericalError when a norm is not finite (an exact-field steering
    table overflows once Im(k_aw) times the distance passes ~709).
    """
    if grid.resolution < 16:
        raise ConfigurationError("imaging grid resolution must be >= 16")
    if array.count != basis.shape[0]:
        raise DomainError("antenna count does not match the signal basis")
    plan = symmetry_plan(grid, array)
    rows = _steering_rows(k_aw, plan.points, array, variant)
    norms = np.empty(grid.cell_centers.shape[0])
    for cells, moved in zip(plan.cells, _pulled_back(basis, plan.perms)):
        norms[cells] = projection_norm(moved, rows)
    if not np.all(np.isfinite(norms)):
        raise NumericalError(
            f"non-finite projection norm: the steering field at k_aw = {k_aw.value:.6g} "
            "is not finite"
        )

    values = np.full((grid.resolution, grid.resolution), np.nan)
    raw = np.full_like(values, np.nan)
    with np.errstate(divide="ignore"):
        values[grid.mask] = np.minimum(np.where(norms > 0, 1.0 / norms, np.inf), ceiling)
    raw[grid.mask] = norms
    return ImageMap(grid=grid, values=values, raw_norm=raw, k_aw=k_aw.value)


# ---------------------------------------------------------------------------
# ImageMap export: CSV (x, y, value per unmasked cell) and binary PGM.
# Both writers are deterministic so repeated runs produce identical bytes.
# ---------------------------------------------------------------------------

def write_map_csv(image: ImageMap, path, which: str = "values") -> None:
    """CSV with a resolution/bounds/k_aw header and one x,y,value row per
    unmasked cell (y rows ascending, x fastest)."""
    grid = image.grid
    data = image.values if which == "values" else image.raw_norm
    if data is None:
        raise DomainError(f"image has no {which!r} layer")
    k_re, k_im = (image.k_aw.real, image.k_aw.imag) if image.k_aw is not None else (0.0, 0.0)
    lines = [
        f"# resolution,{grid.resolution}",
        f"# bounds,{float(-grid.half_extent)!r},{float(grid.half_extent)!r}",
        f"# k_aw,{float(k_re)!r},{float(k_im)!r}",
        "x,y,value",
    ]
    ticks = [repr(t) for t in grid.ticks.tolist()]
    iy, ix = np.nonzero(grid.mask)
    lines += [
        f"{ticks[x]},{ticks[y]},{v!r}"
        for y, x, v in zip(iy.tolist(), ix.tolist(), data[iy, ix].tolist())
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_map_csv(path, roi_radius: float) -> ImageMap:
    """Rebuild an ImageMap (values layer only) written by write_map_csv."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    header = {}
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            key, *vals = line.lstrip("# ").split(",")
            header[key] = vals
        elif line == "x,y,value":
            body_start = i + 1
            break
    else:
        raise DomainError(f"{path}: missing x,y,value header row")
    try:
        resolution = int(header["resolution"][0])
        lo, hi = (float(v) for v in header["bounds"])
        k_aw = complex(float(header["k_aw"][0]), float(header["k_aw"][1]))
    except (KeyError, ValueError, IndexError) as exc:
        raise DomainError(f"{path}: malformed CSV header") from exc
    if not math.isclose(-lo, hi, rel_tol=1e-12):
        raise DomainError(f"{path}: bounds must be symmetric")
    grid = ImagingGrid(resolution=resolution, half_extent=hi, roi_radius=roi_radius)
    values = np.full((resolution, resolution), np.nan)
    h = grid.cell_size
    for line in lines[body_start:]:
        try:
            xs, ys, vs = line.split(",")
            x, y, v = float(xs), float(ys), float(vs)
        except ValueError as exc:
            raise DomainError(f"{path}: bad data row {line!r}") from exc
        ix = int(round((x + grid.half_extent) / h - 0.5))
        iy = int(round((y + grid.half_extent) / h - 0.5))
        if not (0 <= ix < resolution and 0 <= iy < resolution):
            raise DomainError(f"{path}: point ({x}, {y}) falls outside the grid")
        values[iy, ix] = v
    filled = ~np.isnan(values)
    if not np.array_equal(filled, grid.mask):
        raise DomainError(f"{path}: rows do not cover exactly the unmasked cells")
    return ImageMap(grid=grid, values=values, k_aw=k_aw)


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
    returned, sorted by value descending.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    mask = image.grid.mask
    if not mask.any():
        raise DomainError("image has no unmasked cells")
    iy, ix = np.nonzero(mask)
    vals = image.values[iy, ix]
    order = np.lexsort((ix, iy, -vals))
    picked: list[tuple[int, int]] = []
    out: list[tuple[tuple[float, float], float]] = []
    suppress_sq = 4.0**2
    for idx in order:
        cy, cx = int(iy[idx]), int(ix[idx])
        if any((cy - py) ** 2 + (cx - px) ** 2 <= suppress_sq for py, px in picked):
            continue
        picked.append((cy, cx))
        out.append((image.grid.point_of(cy, cx), float(vals[idx])))
        if len(out) == count:
            break
    return out
