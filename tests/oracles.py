"""Independent reference implementations used only by the test suite.

These deliberately avoid every code path of the package under test:
Bessel/Hankel values come from ascending power series summed in mpmath
arbitrary precision, singular values from a pure-Python one-sided Jacobi
SVD (the package calls LAPACK), and the closed-form norm factor is summed
as the Bessel-harmonic series of the theorem with mpmath's Bessel
functions (the package sums over the antennas instead). The map CSV
reference formats one cell at a time with NumPy scalar indexing. The
direct full-grid maps reuse the package's row builders but evaluate every
masked cell (`cell_centers`, from a meshgrid) from one whole table, with
the exact-field interpolant built over that table's own distance range
(`table_ray`) and the plane-wave tables over the cells' own coordinates,
without the symmetry plan the package images through; their
projection norms are checked against the residual form |w - U U^H w|
(`projection_norm`), which the package replaces by a Gram identity; one
point of the closed form is summed over the antennas at 50 digits
(`closed_form_norm_oracle`), and its direct map takes one complex
exponential per plane-wave entry (`unit_phasors`), where the package
multiplies per-axis tables. The peak references walk every cell; the
far-field diagnostic is recomputed from its whole distance table for each
margin.
"""

from __future__ import annotations

import cmath
import functools
import math

import mpmath as mp
import numpy as np

from mwmusic import forward as fw
from mwmusic import music as mu
from mwmusic.specfun import ray_interpolants


def _dps_for(x: float) -> int:
    # the alternating series partial sums peak near e^|x|; pad digits accordingly
    return 30 + int(0.5 * abs(x)) + 10


def bessel_j_oracle(q: int, x: float) -> float:
    """J_q(x) by the ascending power series at high precision."""
    sign = -1.0 if (q < 0 and q % 2 != 0) else 1.0
    q = abs(int(q))
    with mp.workdps(_dps_for(x)):
        xm = mp.mpf(x)
        term = (xm / 2) ** q / mp.factorial(q)
        total = term
        x2 = (xm / 2) ** 2
        m = 0
        while True:
            m += 1
            term *= -x2 / (m * (m + q))
            total += term
            if abs(term) < mp.mpf(10) ** (-mp.mp.dps) * (1 + abs(total)):
                break
        return sign * float(total)


def hankel2_0_oracle(z: complex) -> complex:
    """H_0^(2)(z) = J_0(z) - i Y_0(z) by ascending series at high precision."""
    with mp.workdps(_dps_for(abs(z)) + 10):
        zm = mp.mpc(z)
        w = (zm / 2) ** 2
        term = mp.mpc(1)
        j0 = mp.mpc(1)
        ysum = mp.mpc(0)
        harmonic = mp.mpf(0)
        m = 0
        while True:
            m += 1
            term *= -w / (m * m)
            harmonic += mp.mpf(1) / m
            j0 += term
            ysum -= harmonic * term
            if abs(term) < mp.mpf(10) ** (-mp.mp.dps):
                break
        y0 = (2 / mp.pi) * ((mp.log(zm / 2) + mp.euler) * j0 + ysum)
        return complex(j0 - 1j * y0)


def y0_oracle(x: float) -> float:
    return -hankel2_0_oracle(complex(x, 0.0)).imag


def jacobi_anger_partial(x: float, theta: float, big_q: int) -> complex:
    """J_0(x) + sum_{0<|q|<=Q} i^q J_q(x) e^{iq theta}, with oracle J values."""
    total = complex(bessel_j_oracle(0, x))
    for q in range(1, big_q + 1):
        jq = bessel_j_oracle(q, x)
        total += (1j**q) * jq * cmath.exp(1j * q * theta)
        total += (1j**-q) * ((-1.0) ** q * jq) * cmath.exp(-1j * q * theta)
    return total


@functools.lru_cache(maxsize=None)
def _ring_average(angles: tuple, q: int):
    """(1/N) sum_n e^{iq theta_n}, summed in mpmath."""
    with mp.workdps(30):
        return complex(mp.fsum(mp.expj(q * mp.mpf(a)) for a in angles) / len(angles))


def bessel_series_terms(k_bw: complex, k_aw: complex, r_star, r, angles) -> tuple[complex, complex]:
    """(J_0(rho), E(rho, phi)) of the Bessel-harmonic series of s^H w / N.

    s_n = e^{i k_bw theta_n . r*}, w_n = e^{i k_aw theta_n . r}. With
    z = k_aw r - conj(k_bw) r*, rho = sqrt(z . z) and
    e^{i phi} = (z_x + i z_y) / rho, the Jacobi-Anger expansion gives

        s^H w = N (J_0(rho) + E),  E = sum_{q != 0} i^q J_q(rho) e^{-iq phi} A_q,

    A_q = (1/N) sum_n e^{iq theta_n}. E is exactly 0 when rho = 0. The
    series is cut once |J_q(rho)| < 1e-20 past q = |rho|.
    """
    angles = tuple(float(a) for a in angles)
    with mp.workdps(20):
        kb, ka = mp.mpc(k_bw), mp.mpc(k_aw)
        zx = ka * r[0] - mp.conj(kb) * r_star[0]
        zy = ka * r[1] - mp.conj(kb) * r_star[1]
        rho = mp.sqrt(zx * zx + zy * zy)
        j0 = complex(mp.besselj(0, rho))
        error = 0j
        if rho != 0:
            eiphi = complex((zx + 1j * zy) / rho)
            q = 0
            while True:
                q += 1
                jq = complex(mp.besselj(q, rho))
                # J_{-q} = (-1)^q J_q and i^{-q} (-1)^q = i^q
                error += (1j**q) * jq * (eiphi**-q * _ring_average(angles, q)
                                         + eiphi**q * _ring_average(angles, -q))
                if q > abs(rho) and abs(jq) < 1e-20:
                    break
    return j0, error


def bessel_series_norm_factor(k_bw: complex, k_aw: complex, r_star, r, angles) -> float:
    """g(r) = |s^H w| / (|s| |w|) from the Bessel-harmonic series.

    s^H w / N = J_0(rho) + E is summed by `bessel_series_terms`; the moduli
    |s| and |w| are summed directly.
    """
    angles = tuple(float(a) for a in angles)
    j0, error = bessel_series_terms(k_bw, k_aw, r_star, r, angles)

    def modulus2(k, p):
        return math.fsum(math.exp(-2.0 * k.imag * (math.cos(a) * p[0] + math.sin(a) * p[1]))
                         for a in angles)

    return abs(j0 + error) * len(angles) / math.sqrt(modulus2(k_bw, r_star) * modulus2(k_aw, r))


def onesided_jacobi_singular_values(a: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60) -> np.ndarray:
    """Singular values of a complex matrix by one-sided Jacobi column rotations.

    Works on the columns of A directly (never forms A A^H), so it is an
    algorithmically independent cross-check for the package decomposition.
    """
    u = np.array(a, dtype=np.complex128)
    n = u.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = float(np.vdot(u[:, p], u[:, p]).real)
                aqq = float(np.vdot(u[:, q], u[:, q]).real)
                apq = complex(np.vdot(u[:, p], u[:, q]))
                if abs(apq) <= tol * math.sqrt(max(app * aqq, 1e-300)):
                    continue
                rotated = True
                phase = apq / abs(apq)
                tau = (aqq - app) / (2.0 * abs(apq))
                if tau == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                cp = u[:, p].copy()
                cq = u[:, q].copy()
                u[:, p] = c * cp - s * np.conj(phase) * cq
                u[:, q] = s * phase * cp + c * cq
        if not rotated:
            break
    sv = np.sqrt(np.sum(np.abs(u) ** 2, axis=0))
    return np.sort(sv)[::-1]


def far_field_normalization(angles, r_star, k: complex) -> float:
    """Leading singular value of the far-field phase matrix D (J - I) D.

    D = diag(e^{i k theta_n . r*}) with theta_n = (cos angle_n, sin angle_n),
    J is the all-ones matrix. With w_n = |D_nn| = e^{-Im(k) theta_n . r*} the
    singular values are those of w w^T - diag(w^2), whose one positive
    eigenvalue lambda_1 is the root of the secular equation

        sum_n w_n^2 / (lambda + w_n^2) = 1.

    The left side falls strictly on lambda > 0 and, with S = sum w_n^2, is at
    least 1 at S - max w^2 and below 1 at S, so bisection on that bracket
    finds the root. lambda_1 = N - 1 exactly when Im(k) = 0 or r* = 0. The
    negative eigenvalues lie in (-max w^2, 0), so lambda_1 is the leading
    singular value whenever S >= 2 max w^2.
    """
    x, y = float(r_star[0]), float(r_star[1])
    kim = complex(k).imag
    w2 = [math.exp(-2.0 * kim * (math.cos(a) * x + math.sin(a) * y)) for a in angles]
    total = math.fsum(w2)

    def secular(lam: float) -> float:
        return math.fsum(v / (lam + v) for v in w2) - 1.0

    lo, hi = total - max(w2), total
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if secular(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def map_csv_text(image, which: str = "values") -> str:
    """The text of a map CSV, formatted cell by cell: the header, then one
    repr(x),repr(y),repr(value) row per unmasked cell, y rows ascending and
    x fastest."""
    grid = image.grid
    data = iter(getattr(image, which).tolist())
    lines = [
        f"# resolution,{grid.resolution}",
        f"# bounds,{float(-grid.half_extent)!r},{float(grid.half_extent)!r}",
        f"# k_aw,{float(image.k_aw.real)!r},{float(image.k_aw.imag)!r}",
        "x,y,value",
    ]
    ticks = grid.ticks
    mask = grid.mask
    for iy in range(grid.resolution):
        for ix in range(grid.resolution):
            if mask[iy, ix]:
                lines.append(f"{float(ticks[ix])!r},{float(ticks[iy])!r},{next(data)!r}")
    return "\n".join(lines) + "\n"


def map_csv_values(text: str, grid) -> np.ndarray:
    """The values of a map CSV body at the unmasked cells of grid, in mask
    order, row by row: each x,y,value row lands in the cell whose centre is
    nearest, and a cell that no row lands in stays NaN."""
    values = np.full((grid.resolution, grid.resolution), np.nan)
    body = text.split("x,y,value\n", 1)[1]
    for line in body.splitlines():
        x, y, v = (float(tok) for tok in line.split(","))
        ix = int(round((x + grid.half_extent) / grid.cell_size - 0.5))
        iy = int(round((y + grid.half_extent) / grid.cell_size - 0.5))
        values[iy, ix] = v
    return values[grid.mask]


def cell_centers(grid) -> np.ndarray:
    """Unmasked cell centres (cells, 2) in mask order (y rows, x fastest)."""
    xx, yy = np.meshgrid(grid.ticks, grid.ticks)
    return np.column_stack([xx[grid.mask], yy[grid.mask]])


def ray_interpolant(k: complex, d_min: float, d_max: float):
    """The evaluator of `specfun.ray_interpolants` for the one wavenumber k."""
    (ray,) = ray_interpolants([k], d_min, d_max)
    return ray


def table_ray(k: complex, d):
    """The ray interpolant of H_0^(2)(k d) over the range of the whole
    distance table d."""
    return ray_interpolant(k, float(np.min(d)), float(np.max(d)))


def unit_phasors(k: complex, points, directions) -> np.ndarray:
    """Rows e^{i k theta_n . r} for each point, scaled to unit length, one
    complex exponential per entry: the reference of the package's per-axis
    tables (`music._plane_wave_rows`).

    The largest modulus of each row is divided out before the exponential,
    so a lossy k cannot overflow it; the scale cancels in the normalization.
    """
    phase = 1j * k * (np.asarray(points, dtype=float) @ directions.T)
    phase -= phase.real.max(axis=1, keepdims=True)
    rows = np.exp(phase, out=phase)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def direct_rows(k_aw, points, array, variant) -> np.ndarray:
    """Steering rows of the points, plane-wave ones from the package's
    builder on the lattice of the points' own coordinates, exact-field ones
    from the interpolant over the table's own distance range."""
    if variant == mu.PLANE_WAVE:
        xs, ys = (np.unique(points[:, axis]) for axis in (0, 1))
        tables = mu._axis_tables(k_aw, array.directions, xs, ys)
        ix, iy = np.searchsorted(xs, points[:, 0]), np.searchsorted(ys, points[:, 1])
        return mu._plane_wave_rows(tables, ix, iy)
    ray = table_ray(k_aw, fw._distances(points, array.positions))
    return mu._exact_rows(ray, array.positions, points)


def projection_norm(basis: np.ndarray, w) -> np.ndarray:
    """|w - U U^H w| for each row w, the distance to the span of the
    orthonormal columns U of basis (N, M), in the residual form."""
    w = np.asarray(w, dtype=np.complex128)
    resid = w - (w @ basis.conj()) @ basis.T
    return np.linalg.norm(resid, axis=-1)


def direct_norms(basis, k_aw, array, grid, variant) -> np.ndarray:
    """Projection norm of every masked cell (mask order) from one steering
    table over the whole grid, through the imaging kernel
    (`music._image_norms`) with the identity alone."""
    rows = direct_rows(k_aw, cell_centers(grid), array, variant)
    return mu._image_norms(basis.conj()[:, None, :], rows)[0]


def direct_norm_factor(points, array, k_bw, k_aw, r_star) -> np.ndarray:
    """g = |s^H w| / (|s| |w|), clamped into [0, 1], at each point from one
    table of unit rows (`unit_phasors`)."""
    s = unit_phasors(k_bw, [r_star], array.directions)[0]
    w = unit_phasors(k_aw, points, array.directions)
    return np.minimum(np.abs(w @ s.conj()), 1.0)


def norm_prefactor(count: int) -> float:
    """(N^2 - 2N) / (N^2 - 2N + 1), the norm of the closed form where g = 0."""
    return (count * count - 2 * count) / (count * count - 2 * count + 1)


def direct_closed_form_norm_map(grid, array, k_bw, k_aw, r_star) -> np.ndarray:
    """The closed-form norms at the unmasked cells of grid, in mask order,
    from one table of unit rows over the whole grid."""
    g = direct_norm_factor(cell_centers(grid), array, k_bw, k_aw, r_star)
    return norm_prefactor(array.count) * np.sqrt(np.clip(1.0 - g * g, 0.0, None))


def closed_form_norm_oracle(array, k_bw: complex, k_aw: complex, r_star, r) -> float:
    """The closed-form norm (N^2 - 2N)/(N^2 - 2N + 1) sqrt(1 - g^2) at the
    point r, summed over the antennas in 50-digit arithmetic from the
    double-precision inputs."""
    with mp.workdps(50):
        def row(k, p):
            return [mp.exp(1j * mp.mpc(k) * (mp.mpf(dx) * mp.mpf(p[0]) + mp.mpf(dy) * mp.mpf(p[1])))
                    for dx, dy in array.directions.tolist()]

        s, w = row(k_bw, r_star), row(k_aw, r)
        g2 = abs(mp.fsum(mp.conj(a) * b for a, b in zip(s, w))) ** 2 / (
            mp.fsum(abs(a) ** 2 for a in s) * mp.fsum(abs(b) ** 2 for b in w))
        n = array.count
        return float(mp.mpf(n * n - 2 * n) / (n * n - 2 * n + 1) * mp.sqrt(1 - g2))


def argmax_point(image) -> tuple[float, float]:
    """The centre of the largest unmasked cell of image.values, the first
    in row-major order on a tie, from a walk over every cell."""
    best = None
    for iy, ix, value in zip(*np.nonzero(image.grid.mask), image.values.tolist()):
        if best is None or value > best[0]:
            best = (value, int(iy), int(ix))
    return image.grid.point_of(best[1], best[2])


def greedy_peaks(image, count: int) -> list:
    """Peaks by a greedy pass over every unmasked cell, sorted by value
    descending, then row, then column: a cell is kept unless it lies within
    squared cell distance 16 of a cell kept before it."""
    mask = image.grid.mask
    iy, ix = np.nonzero(mask)  # in mask order, as the values are
    vals = image.values
    order = np.lexsort((ix, iy, -vals))
    picked: list[tuple[int, int]] = []
    out = []
    for idx in order:
        cy, cx = int(iy[idx]), int(ix[idx])
        if any((cy - py) ** 2 + (cx - px) ** 2 <= 16 for py, px in picked):
            continue
        picked.append((cy, cx))
        out.append((image.grid.point_of(cy, cx), float(vals[idx])))
        if len(out) == count:
            break
    return out


def far_field_grid_fraction(scene, margin: float, resolution: int = 33) -> float:
    """Share of the interior points of a resolution^2 grid over the region
    of interest whose nearest antenna lies at least margin away, from one
    (points, antennas) distance table."""
    ticks = np.linspace(-scene.roi_radius, scene.roi_radius, resolution)
    gx, gy = np.meshgrid(ticks, ticks)
    inside = np.hypot(gx, gy) <= scene.roi_radius
    pts = np.column_stack([gx[inside], gy[inside]])
    d = np.hypot(
        pts[:, None, 0] - scene.array.positions[None, :, 0],
        pts[:, None, 1] - scene.array.positions[None, :, 1],
    ).min(axis=1)
    return float(np.mean(d >= margin))
