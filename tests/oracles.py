"""Independent oracles used to freeze expected values.

Nothing here imports solver internals beyond public functions and types:
the LP oracle enumerates basic feasible solutions directly, the RNG oracle
reimplements the generator with numpy uint64 arithmetic, the unit oracle
maps one ``next_u64`` output into (0, 1) as ``next_units`` maps a block,
the sampler oracles are the scalar samplers that the block samplers
replaced (Marsaglia-Tsang gamma, Box-Muller with sign draws, Knuth's
Poisson), the gradient oracle checks the unclamped weights against central
differences of the merit, the merit oracles evaluate the weight formulas in
50-digit mpmath, and the instance oracle compares two instances field by
field.
"""

import math
from itertools import combinations

import mpmath as mp
import numpy as np

from rwl1.merit import WeightClamp, merit_value, weights

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# brute-force LP optimum over basic feasible solutions


def enumerate_standard_form_optimum(c, a_eq, b_eq, feas_tol=1e-9):
    """Minimum objective over all basic feasible solutions of
    min c'z s.t. a_eq z = b_eq, z >= 0; None if no BFS is feasible."""
    a = np.asarray(a_eq, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    m, n = a.shape
    best = None
    for cols in combinations(range(n), m):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        z_b = np.linalg.solve(sub, b)
        if np.min(z_b) < -feas_tol:
            continue
        obj = float(c[list(cols)] @ z_b)
        if best is None or obj < best:
            best = obj
    return best


def enumerate_weighted_l1_optimum(w, a, b, feas_tol=1e-9):
    """Minimum of sum w_i |x_i| over basic solutions of A x = b (the optimum
    of the weighted-l1 problem when A has full row rank)."""
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    best = None
    for cols in combinations(range(n), m):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_s = np.linalg.solve(sub, b)
        obj = float(w[list(cols)] @ np.abs(x_s))
        if best is None or obj < best:
            best = obj
    return best


# ---------------------------------------------------------------------------
# independent splitmix64 (numpy uint64 arithmetic, distinct from the
# pure-int production code path)


def splitmix64_reference(seed, count):
    gamma = np.uint64(0x9E3779B97F4A7C15)
    m1 = np.uint64(0xBF58476D1CE4E5B9)
    m2 = np.uint64(0x94D049BB133111EB)
    state = np.uint64(seed)
    out = []
    with np.errstate(over="ignore"):
        for _ in range(count):
            state = state + gamma
            z = state
            z = (z ^ (z >> np.uint64(30))) * m1
            z = (z ^ (z >> np.uint64(27))) * m2
            out.append(int(z ^ (z >> np.uint64(31))))
    return out


def next_unit(rng):
    """One uniform double in the open interval (0, 1) from a ``SplitMix64``:
    the top 53 bits of its next output, offset by half a ulp."""
    return ((rng.next_u64() >> 11) + 0.5) * 2.0 ** -53


# ---------------------------------------------------------------------------
# scalar samplers, one value per call, reading a ``Sampler``'s stream one
# unit at a time and sharing its cached Box-Muller variate: the sampler's
# former ``_gamma`` and ``gauss``, and Knuth's product method

_TWO_PI = 2.0 * math.pi


def gamma_scalar(self, shape, scale):
    rng = self.rng
    boost = None
    if shape < 1.0:
        boost = next_unit(rng) ** (1.0 / shape)
        shape += 1.0
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    log = math.log
    gauss = self._gauss_cache
    while True:
        if gauss is None:
            r = math.sqrt(-2.0 * log(next_unit(rng)))
            theta = _TWO_PI * next_unit(rng)
            gauss = r * math.sin(theta)
            z = r * math.cos(theta)
        else:
            z, gauss = gauss, None
        v = (1.0 + c * z) ** 3
        if v <= 0.0:
            continue
        u = next_unit(rng)
        if u < 1.0 - 0.0331 * z**4 or log(u) < 0.5 * z * z + d * (1.0 - v + log(v)):
            break
    self._gauss_cache = gauss
    value = d * v * scale
    return value if boost is None else value * boost


def gamma_scalar_draws(sampler, count, shape, scale):
    """``count`` values of ``gamma_scalar``."""
    return np.array([gamma_scalar(sampler, shape, scale) for _ in range(count)])


def f_scalar_draws(sampler, count, d1, d2):
    """``count`` F(d1, d2) values as ratios of scaled ``gamma_scalar`` draws."""
    return np.array([(gamma_scalar(sampler, d1 / 2.0, 2.0) / d1) / (gamma_scalar(sampler, d2 / 2.0, 2.0) / d2)
                     for _ in range(count)])


def poisson_scalar_draws(sampler, count, lam):
    """``count`` Poisson(lam) values by Knuth's product method, as floats."""
    limit = math.exp(-lam)
    out = []
    for _ in range(count):
        prod, k = next_unit(sampler.rng), 0
        while prod > limit:
            k += 1
            prod *= next_unit(sampler.rng)
        out.append(float(k))
    return np.array(out)


def gauss_scalar(sampler):
    """The next standard normal draw: the cached variate if there is one,
    else one Box-Muller step that caches its sine variate."""
    g = sampler._gauss_cache
    if g is not None:
        sampler._gauss_cache = None
        return g
    r = math.sqrt(-2.0 * math.log(next_unit(sampler.rng)))
    theta = _TWO_PI * next_unit(sampler.rng)
    sampler._gauss_cache = r * math.sin(theta)
    return r * math.cos(theta)


def planted_scalar_draws(sampler, count, min_nonzero):
    """``count`` planted values, one at a time: a magnitude
    ``min_nonzero + |gauss_scalar|``, then a unit draw for its sign."""
    out = []
    for _ in range(count):
        magnitude = min_nonzero + abs(gauss_scalar(sampler))
        sign = 1.0 if next_unit(sampler.rng) < 0.5 else -1.0
        out.append(sign * magnitude)
    return np.array(out)


# ---------------------------------------------------------------------------
# gradient check of the weights against the merit


def gradient_check(scheme, x, eps, h=1e-5):
    """Max relative error between the unclamped weights and central differences.

    Probes each coordinate of ``weights(scheme, x, eps, WeightClamp("none"))``
    against (F(x + h e_i) - F(x - h e_i)) / 2h, F = ``merit_value``.
    Requires all x_i > h > 0 so the probe stays inside the smooth positive
    orthant, and a defined merit at every probe point.
    """
    analytic = weights(scheme, x, eps, WeightClamp("none"))
    xv = np.asarray(x, dtype=float)
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    if np.any(xv <= h):
        raise ValueError("gradient_check requires all x_i > h")
    worst = 0.0
    for i in range(xv.shape[0]):
        probe = xv.copy()
        probe[i] = xv[i] + h
        f_plus = merit_value(scheme, probe, eps)
        probe[i] = xv[i] - h
        f_minus = merit_value(scheme, probe, eps)
        if f_plus is None or f_minus is None:
            raise ValueError(f"merit undefined at probe point for coordinate {i}")
        fd = (f_plus - f_minus) / (2.0 * h)
        err = abs(analytic[i] - fd) / max(abs(analytic[i]), 1e-12)
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# high-precision merit/weight evaluation


def _u(x, eps):
    return abs(mp.mpf(x)) + mp.mpf(eps)


def cwb_weight_hp(x, eps):
    return 1 / _u(x, eps)


def zl_weight_hp(x, eps, p):
    u = _u(x, eps)
    p = mp.mpf(p)
    return (1 + p * u**p) / u


def w1_weight_hp(x, eps, p):
    u = _u(x, eps)
    p = mp.mpf(p)
    s = u + u**p
    return (1 + p * u**p / u) / (s * mp.log(s))


def w2_weight_hp(x, eps, p, q):
    u = _u(x, eps)
    p, q = mp.mpf(p), mp.mpf(q)
    s = u + u**q
    logs = mp.log(s)
    return abs(logs) ** p * (1 + q * u**q / u) / (s * logs)


def zl_merit_hp(xs, eps, p):
    p = mp.mpf(p)
    return sum(mp.log(_u(x, eps)) + _u(x, eps) ** p for x in xs)


def w1_merit_hp(xs, eps, p):
    p = mp.mpf(p)
    total = mp.mpf(0)
    for x in xs:
        u = _u(x, eps)
        s = u + u**p
        if s <= 1:
            return None
        total += mp.log(mp.log(s))
    return total


def w2_merit_hp(xs, eps, p, q):
    p, q = mp.mpf(p), mp.mpf(q)
    total = mp.mpf(0)
    for x in xs:
        u = _u(x, eps)
        s = u + u**q
        if s <= 1:
            return None
        total += mp.log(s) ** p
    return total / p


# ---------------------------------------------------------------------------
# instances compared field by field (ProblemInstance compares by identity)


def same_instance(left, right):
    """Whether two ``ProblemInstance``s hold equal fields and equal arrays."""
    return ((left.k, left.dist, left.seed) == (right.k, right.dist, right.seed)
            and all(np.array_equal(getattr(left, f), getattr(right, f)) for f in ("a", "b", "x_true")))
