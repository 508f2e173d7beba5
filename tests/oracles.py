"""Independent reference implementations used only by the test suite.

These deliberately avoid every code path of the package under test:
Bessel/Hankel values come from ascending power series summed in mpmath
arbitrary precision, singular values from a pure-Python one-sided Jacobi
SVD (the package calls LAPACK), and the plane-wave circle sum is evaluated
directly from complex exponentials.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np


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


def plane_wave_circle_mean(x: float, phi: float, thetas: np.ndarray) -> complex:
    """(1/N) sum_n exp(i x cos(theta_n - phi)), evaluated directly."""
    return complex(np.mean(np.exp(1j * x * np.cos(np.asarray(thetas) - phi))))


def jacobi_anger_partial(x: float, theta: float, big_q: int) -> complex:
    """J_0(x) + sum_{0<|q|<=Q} i^q J_q(x) e^{iq theta}, with oracle J values."""
    total = complex(bessel_j_oracle(0, x))
    for q in range(1, big_q + 1):
        jq = bessel_j_oracle(q, x)
        total += (1j**q) * jq * cmath.exp(1j * q * theta)
        total += (1j**-q) * ((-1.0) ** q * jq) * cmath.exp(-1j * q * theta)
    return total


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
