"""Integer-order Bessel functions and the zero-order Hankel function of the second kind.

Everything here is evaluated from scratch, so the rest of the package
carries no external special-function dependency. Formulas are the
classical ones:

  * Miller's normalized backward recurrence for J_q, with the even-order
    sum rule J_0 + 2*sum_m J_{2m} = 1 (A&S 9.1.46). `bessel_j_grid`, the
    table of orders 0..q_max at many points, is its one entry point; no
    production path calls it, and it stays while the traced benchmark
    wraps it (through `theory`),
  * the log-coupled ascending series for H_0^(2) = J_0 - i Y_0
    (Abramowitz & Stegun 9.1.12 / 9.1.13),
  * Hankel asymptotic expansion for H_0^(2) (DLMF 10.17.6),
  * for a table H_0^(2)(k d) over many distances d with one wavenumber k
    (the steering field), a piecewise Chebyshev interpolant in log d of the
    smooth factor H_0^(2)(k d) e^{ikd}, built from exact values at its
    nodes and evaluated by Clenshaw recurrence (Trefethen, Approximation
    Theory and Approximation Practice).

H_0^(2) is evaluated on the closed first quadrant only, where its series
runs in double precision; extended precision (80-bit long double on x86)
remains only in the J_q recurrence. The series/asymptotic crossover radius
was calibrated against a high-precision series oracle (see the test suite).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularityError, TruncationError

# Truncation ceiling for Bessel orders used anywhere in the package.
Q_MAX = 128

# Series/asymptotic crossover radius. Calibrated: at |z| = 15 the double
# precision series still carries ~2e-10 relative error on the first quadrant
# while the asymptotic tail bound e^(-2|z|) is already below 1e-12.
_CROSSOVER = 15.0

# Euler-Mascheroni constant
_EULER_GAMMA = 0.5772156649015329

_LD = np.longdouble


def _require_real_in_range(x, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    if x < 0.0:
        raise DomainError(f"{name} must be >= 0, got {x!r}")
    if x > 1.0e4:
        raise DomainError(f"{name}={x!r} exceeds the supported range 1e4")
    return x


def _hankel_expansion(z: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """H_0^(2)(z) via the Hankel expansion (DLMF 10.17.6), for Re z > 0.

    Terms follow a_k(0) = prod_{j<=k} (-(2j-1)^2) / (k! 8^k); the sum is cut
    at the smallest term (superasymptotic truncation). z is a run of
    batches of the given sizes, and a batch stops once none of its terms
    shrinks, or those that do are below 1e-18.
    """
    starts = np.cumsum(sizes) - sizes
    term = np.ones_like(z)
    total = term.copy()
    active = np.ones(z.shape, dtype=bool)
    last = np.abs(term)
    for k in range(1, 60):
        term = term * -1j * -((2 * k - 1) ** 2) / (8.0 * k * z)
        mag = np.abs(term)
        # freeze components whose terms started growing (optimal truncation)
        active &= mag < last
        np.add(total, term, out=total, where=active)
        last = mag
        ended = np.maximum.reduceat(np.where(active, mag, 0.0), starts) < 1e-18
        active &= np.repeat(~ended, sizes)
        if not active.any():
            break
    return np.sqrt(2.0 / (np.pi * z)) * np.exp(-1j * (z - 0.25 * np.pi)) * total


def _h02_series(z: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """H_0^(2)(z) = J_0(z) - i Y_0(z) by the log-coupled ascending series.

    z is a run of batches of the given sizes, and a batch stops once its
    largest term falls below 1e-19 times its largest |J_0| (or 1).
    """
    starts = np.cumsum(sizes) - sizes
    w = -(z / 2) ** 2
    term = np.ones_like(z)
    j0 = term.copy()
    ysum = np.zeros_like(z)
    live = np.ones(z.shape, dtype=bool)
    harmonic = 0.0
    for m in range(1, 120):
        term = term * w / float(m * m)
        harmonic += 1.0 / m
        np.add(j0, term, out=j0, where=live)
        np.subtract(ysum, term * harmonic, out=ysum, where=live)
        big = np.maximum.reduceat(np.abs(term), starts)
        ended = big < 1e-19 * np.maximum(1.0, np.maximum.reduceat(np.abs(j0), starts))
        live &= np.repeat(~ended, sizes)
        if not live.any():
            break
    y0 = (2 / np.pi) * ((np.log(z / 2) + _EULER_GAMMA) * j0 + ysum)
    return j0 - 1j * y0


def _hankel_arg_modulus(z_arr: np.ndarray) -> np.ndarray:
    """|z| after the argument checks shared by the Hankel evaluators."""
    if not np.all(np.isfinite(z_arr)):
        raise DomainError("hankel2_0 requires finite arguments")
    mag = np.abs(z_arr)
    if np.any(mag == 0.0):
        raise SingularityError("H_0^(2) is singular at z = 0")
    if np.any(mag > 1.0e6):
        raise DomainError("hankel2_0 supports |z| <= 1e6")
    if np.any(z_arr.real <= 0.0) or np.any(z_arr.imag < 0.0):
        raise DomainError("hankel2_0 requires Re z > 0 and Im z >= 0")
    return mag


def hankel2_0(z):
    """Hankel function of the second kind, order zero, for complex argument.

    Accepts a scalar or ndarray in the closed first quadrant Re z > 0,
    Im z >= 0 with |z| <= 1e6, where every argument k d of the package lies;
    anything else raises DomainError. Relative accuracy is ~1e-12 on
    1e-3 <= |z| <= 1e4 with Im z moderate, ~2e-10 near the crossover |z| = 15.
    """
    z_arr = np.asarray(z, dtype=np.complex128)
    out = _hankel2_0(z_arr.reshape(1, -1)).reshape(z_arr.shape)
    return complex(out[()]) if np.ndim(z) == 0 else out


def _hankel2_0(z: np.ndarray) -> np.ndarray:
    """hankel2_0 of each row of the 2-D z as a call of its own: the series
    and the expansion stop for each row at its own terms, so its values do
    not depend on the other rows."""
    series = _hankel_arg_modulus(z) <= _CROSSOVER
    out = np.empty_like(z)
    for path, evaluate in ((series, _h02_series), (~series, _hankel_expansion)):
        # the row-major elements of the path, a batch per row that has any
        sizes = np.count_nonzero(path, axis=1)
        if sizes.any():
            out[path] = evaluate(z[path], sizes[sizes > 0])
    return out


# ---------------------------------------------------------------------------
# H_0^(2) along one ray k*d: piecewise Chebyshev interpolation in log d
# ---------------------------------------------------------------------------

_RAY_PANELS = 48
_RAY_DEGREE = 8
# smallest log-distance span the panels cover; a range with d_min = d_max is
# widened downward to it so that the nodes never pass its largest argument
_RAY_MIN_SPAN = 1e-6
# elements per evaluation block: the recurrence runs in cache, and no value
# depends on how a table is cut (evaluated as one block, a table of 16384 or
# more entries differs from its 4095-entry pieces by up to 2e-16)
_RAY_BLOCK = 8192
# Im(k) d past which e^{-ikd} overflows a double
_LOG_MAX = math.log(np.finfo(float).max)
_RAY_ANGLES = np.pi * (np.arange(_RAY_DEGREE + 1) + 0.5) / (_RAY_DEGREE + 1)
_RAY_NODES = np.cos(_RAY_ANGLES)
# node values -> Chebyshev coefficients (discrete cosine transform)
_RAY_TRANSFORM = (2.0 / (_RAY_DEGREE + 1)) * np.cos(
    np.outer(np.arange(_RAY_DEGREE + 1), _RAY_ANGLES)
)
_RAY_TRANSFORM[0] *= 0.5


def ray_interpolants(ks, d_min: float, d_max: float) -> list:
    """Evaluator d -> H_0^(2)(k d) for each complex k of ks over distances
    in [d_min, d_max], built once and applied to any number of tables.

    Every argument lies on the ray k * [d_min, d_max], so the smooth factor
    g(d) = H_0^(2)(k d) e^{ikd} (DLMF 10.17.6) is interpolated: [log d_min,
    log d_max] is cut into _RAY_PANELS equal panels, each carrying the
    degree-_RAY_DEGREE Chebyshev interpolant of g through hankel2_0 values at
    its Chebyshev nodes. Each element is one Clenshaw recurrence times
    e^{-ikd}. An evaluator is meant for distances inside the range; the
    panel layout, and so every value, depends on the range and its k alone:
    the nodes of all the ks are one `_hankel2_0` call, a row per k.

    Raises the DomainError (or SingularityError) of the first k whose ray
    leaves the domain of hankel2_0, then a DomainError for the first k
    with a node value that is not finite (H_0^(2) overflows once Im(k) d
    passes ~709), then one for the first k whose factor e^{-ikd} overflows
    at d_max (Im(k) d_max past log of the largest double, 709.78); each
    message begins with that k.
    """
    ks = [complex(k) for k in ks]
    for k in ks:
        try:
            # the nodes lie strictly between these two arguments on the ray
            _hankel_arg_modulus(np.array([k * d_min, k * d_max]))
        except DomainError as exc:
            raise type(exc)(f"{k:.6g}: {exc}") from exc
    t_hi = math.log(d_max)
    t_lo = min(math.log(d_min), t_hi - _RAY_MIN_SPAN)
    width = (t_hi - t_lo) / _RAY_PANELS

    left = t_lo + width * np.arange(_RAY_PANELS)
    d_nodes = np.exp(left[None, :] + (0.5 * width) * (_RAY_NODES[:, None] + 1.0))
    z_nodes = np.stack([(k * d_nodes).ravel() for k in ks])
    with np.errstate(over="ignore", invalid="ignore"):
        g_nodes = _hankel2_0(z_nodes) * np.exp(1j * z_nodes)
    finite = np.isfinite(g_nodes).all(axis=1)
    if not finite.all():
        k = ks[np.argmin(finite)]
        raise DomainError(f"{k:.6g}: H_0^(2)(k d) overflows at the nodes of its interpolant")
    # the nodes stop short of d_max, where the factor |e^{-ikd}| = e^{Im(k) d}
    # of every evaluation is largest
    for k in ks:
        if k.imag * d_max > _LOG_MAX:
            raise DomainError(f"{k:.6g}: e^(-ikd) overflows at the range's largest distance")
    # row m of a k's coefficients: the order-m coefficient of every panel
    return [
        _ray_evaluator(k, _RAY_TRANSFORM @ g.reshape(d_nodes.shape), t_lo, width)
        for k, g in zip(ks, g_nodes)
    ]


def _ray_evaluator(k: complex, coefs: np.ndarray, t_lo: float, width: float):
    """The evaluator of one ray from its panel coefficients."""

    def evaluate(d) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        flat = d.ravel()
        out = np.empty(flat.shape, dtype=np.complex128)
        for start in range(0, flat.size, _RAY_BLOCK):
            block = flat[start:start + _RAY_BLOCK]
            u = (np.log(block) - t_lo) / width
            panel = np.clip(u.astype(np.intp), 0, _RAY_PANELS - 1)
            x2 = 4.0 * (u - panel) - 2.0  # twice the local Chebyshev variable
            # the first two steps, b_D = c_D and b_{D-1} = c_{D-1} + x2 b_D,
            # have nothing to add or subtract
            b2 = np.take(coefs[_RAY_DEGREE], panel)
            b1 = np.take(coefs[_RAY_DEGREE - 1], panel)
            b1 += x2 * b2
            for m in range(_RAY_DEGREE - 2, 0, -1):
                b = np.take(coefs[m], panel)
                b += x2 * b1
                b -= b2
                b1, b2 = b, b1
            g = np.take(coefs[0], panel) + 0.5 * x2 * b1 - b2
            out[start:start + _RAY_BLOCK] = g * np.exp(-1j * k * block)
        return out.reshape(d.shape)

    return evaluate


def _miller_start(q_max: int, x: float) -> int:
    base = max(q_max, int(math.ceil(x)))
    return base + max(20, int(math.ceil(math.sqrt(160.0 * max(base, 1)))))


def _miller_rows(x: np.ndarray, q_max: int) -> np.ndarray:
    """Normalized backward recurrence at every point of 1-D array x (all > 0).

    Returns shape (len(x), q_max + 1) in long double; callers cast.
    """
    x = x.astype(_LD)
    n = x.size
    start = _miller_start(q_max, float(np.max(x)))
    jp = np.zeros(n, dtype=_LD)
    jc = np.full(n, _LD(1e-30))
    acc = 2 * jc if start % 2 == 0 else np.zeros(n, dtype=_LD)
    rows = np.zeros((n, q_max + 1), dtype=_LD)
    if start <= q_max:
        rows[:, start] = jc
    for m in range(start, 0, -1):
        jm = (2 * m / x) * jc - jp
        jp, jc = jc, jm
        i = m - 1
        if i <= q_max:
            rows[:, i] = jc
        if i == 0:
            acc = acc + jc
        elif i % 2 == 0:
            acc = acc + 2 * jc
        big = np.abs(jc) > _LD(1e280)
        if big.any():
            scale = _LD(1e-280)
            jp[big] *= scale
            jc[big] *= scale
            acc[big] *= scale
            rows[big, :] *= scale
    return rows / acc[:, None]


# ---------------------------------------------------------------------------
# J_q order tables: one backward recurrence, vectorized across points
# ---------------------------------------------------------------------------

def bessel_j_grid(xs: np.ndarray, q_max: int) -> np.ndarray:
    """J_q(x) for q = 0..q_max at every x of a 1-D array, shape (len(xs), q_max+1).

    One normalized backward recurrence per point, vectorized across points.
    """
    if q_max < 0 or q_max > Q_MAX:
        raise DomainError(f"q_max must be in [0, {Q_MAX}], got {q_max}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise DomainError("bessel_j_grid expects a 1-D array")
    if not np.all(np.isfinite(xs)) or np.any(xs < 0) or np.any(xs > 1.0e4):
        raise DomainError("bessel_j_grid requires 0 <= x <= 1e4")

    out = np.zeros((xs.size, q_max + 1), dtype=_LD)
    tiny = xs < 1e-12
    if tiny.any():
        out[tiny, 0] = 1.0
        if q_max >= 1:
            out[tiny, 1] = xs[tiny] / 2
    live = ~tiny
    if live.any():
        out[live] = _miller_rows(xs[live], q_max)
    return out.astype(float)


# ---------------------------------------------------------------------------
# Plane-wave (Jacobi-Anger) truncation control
# ---------------------------------------------------------------------------

def jacobi_anger_truncation(x: float, tol: float) -> int:
    """Smallest Q with sum_{|q|>Q} |J_q(x)| <= tol, the uniform-in-angle tail bound
    for truncating exp(ix cos t) = J_0(x) + sum_{q != 0} i^q J_q(x) e^{iqt}.

    Raises TruncationError (with the required order) when Q would exceed Q_MAX.
    """
    tol = float(tol)
    if not (0.0 < tol <= 1e-2):
        raise DomainError(f"tol must lie in (0, 1e-2], got {tol!r}")
    x = _require_real_in_range(x)
    if x == 0.0:
        return 0
    # table high enough that the remainder beyond it is negligible for any
    # admissible tol (decay past the turning point is superexponential)
    q_hi = max(Q_MAX, int(math.ceil(x))) + 60
    row = np.abs(_miller_rows(np.asarray([x]), q_hi).astype(float)[0])
    tails = 2.0 * (np.cumsum(row[::-1])[::-1] - row)
    needed = int(np.argmax(tails <= tol))
    if tails[needed] > tol:
        raise TruncationError(
            f"no admissible truncation below order {q_hi} for tol={tol:g}", required=q_hi
        )
    if needed > Q_MAX:
        raise TruncationError(
            f"required truncation order {needed} exceeds ceiling {Q_MAX}", required=needed
        )
    return needed
