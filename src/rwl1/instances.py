"""Benchmark instance generation: random matrices from six distributions,
planted k-sparse solutions, and a JSON file format for round-tripping.

Everything is driven by a single SplitMix64 stream per instance, so an
instance is a pure function of (distribution, m, n, k, seed).  Draw order
is fixed: the matrix entries row by row, then the support via a
Fisher-Yates prefix, then the nonzero values (magnitude, then sign).

The matrix is generated in blocks (``Sampler.draws``) that consume the
stream in exactly that order, so the output is bit-identical to drawing
one entry at a time.  Each sampler call leaves the stream just past the
units it used (see ``Sampler``); the k planted magnitudes and their sign
draws take the same candidate layout as a gamma block, in one call.

Only exact operations go to numpy: the splitmix64 integer mix, the unit
mapping, + - * /, abs, sqrt and comparisons, all correctly rounded alike
in numpy and in Python.  Every log, exp, cos, sin and power is evaluated
per element by the ``math`` module, because numpy's versions round
differently on some inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import cycle, islice, repeat

import numpy as np

from .linalg import as_matrix, as_vector, count_nonzeros
from .rng import SplitMix64

__all__ = [
    "DistributionSpec",
    "Sampler",
    "ProblemInstance",
    "InstanceParseError",
    "InstanceValidationError",
    "make_instance",
    "save_instance",
    "load_instance",
]

# name -> (parameter names, defaults from the benchmark protocol)
DISTRIBUTIONS = {
    "normal": (("mu", "sigma"), (0.0, 1.0)),
    "poisson": (("lam",), (2.0,)),
    "exponential": (("mean",), (5.0,)),
    "f": (("d1", "d2"), (1.0, 6.0)),
    "gamma": (("shape", "scale"), (5.0, 10.0)),
    "uniform": (("high",), (10.0,)),
}

MIN_NONZERO = 0.1  # planted entries are bounded away from zero by this margin


class InstanceParseError(ValueError):
    """Malformed instance file: bad JSON or a missing/mistyped field."""


class InstanceValidationError(ValueError):
    """Structurally valid file whose contents violate an instance invariant."""


@dataclass(frozen=True)
class DistributionSpec:
    """One of the six matrix-entry distributions, with its parameters."""

    name: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.name not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.name!r}")
        names, _ = DISTRIBUTIONS[self.name]
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        if len(self.params) != len(names):
            raise ValueError(f"{self.name} takes parameters {names}, got {self.params}")
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"{self.name} parameters must be finite, got {self.params}")
        self._validate()

    def _validate(self):
        p = dict(zip(DISTRIBUTIONS[self.name][0], self.params))
        if self.name == "normal" and p["sigma"] <= 0:
            raise ValueError(f"sigma must be > 0, got {p['sigma']}")
        if self.name == "poisson" and not 0 < p["lam"] <= 700:
            # above ~700 the product-method acceptance bound exp(-lam)
            # underflows to zero and the sampler would return garbage
            raise ValueError(f"lam must be in (0, 700], got {p['lam']}")
        if self.name == "exponential" and p["mean"] <= 0:
            raise ValueError(f"mean must be > 0, got {p['mean']}")
        if self.name == "f":
            if p["d1"] < 1 or p["d2"] < 1 or p["d1"] != int(p["d1"]) or p["d2"] != int(p["d2"]):
                raise ValueError(f"f-distribution degrees must be integers >= 1, got {self.params}")
        if self.name == "gamma" and (p["shape"] <= 0 or p["scale"] <= 0):
            raise ValueError(f"gamma shape and scale must be > 0, got {self.params}")
        if self.name == "uniform" and p["high"] <= 0:
            raise ValueError(f"uniform bound must be > 0, got {p['high']}")

    @classmethod
    def default(cls, name: str) -> "DistributionSpec":
        return cls(name, DISTRIBUTIONS[name][1])

    @property
    def label(self) -> str:
        return self.name

    def to_json(self) -> dict:
        names, _ = DISTRIBUTIONS[self.name]
        return {"name": self.name, **dict(zip(names, self.params))}

    @classmethod
    def from_json(cls, obj: dict) -> "DistributionSpec":
        if not isinstance(obj, dict) or "name" not in obj:
            raise InstanceParseError("dist must be an object with a 'name' field")
        name = obj["name"]
        if not isinstance(name, str) or name not in DISTRIBUTIONS:
            raise InstanceParseError(f"unknown distribution {name!r} in dist field")
        params = []
        for key in DISTRIBUTIONS[name][0]:
            try:
                params.append(_number(obj[key]))
            except KeyError:
                raise InstanceParseError(f"dist field missing parameter {key!r}") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise InstanceParseError(f"dist parameter {key!r} is not a number: {exc}") from exc
        try:
            return cls(name, params)
        except ValueError as exc:
            raise InstanceParseError(str(exc)) from exc


class Sampler:
    """Distribution sampling on top of one SplitMix64 stream.

    Normal pairs come from Box-Muller with the second variate cached, the
    exponential from inversion, Poisson from Knuth's product method, gamma
    from Marsaglia-Tsang (with the power boost below shape 1), and the
    F-distribution as a ratio of scaled chi-square draws.

    ``draws`` returns values in stream order: the same draws from the
    stream, in the same order and through the same arithmetic, as one value
    at a time, so a block of n equals n consecutive blocks of one.  It asks
    a sampler for ``CHUNK`` values at a time.  Every call reads its units
    with ``rng.next_units`` and leaves the stream just past the last one it
    used, so the cached Box-Muller variate is the only state carried
    between calls.  Normal, exponential and uniform blocks read exactly
    their units; the others step back over what they did not use:

    - A gamma block (shape >= 1) lays out candidates with ``_candidates``
      and keeps a prefix with ``_commit``: with no boost draw, which units
      a candidate reads does not depend on which earlier ones were
      accepted, up to the first candidate with 1 + c*z <= 0.  From there
      it hands the rest of the chunk to ``_gammas``.
    - One value per loop (Poisson; F, gamma below shape 1 and the gamma
      block's remainder through ``_gammas``) reads prefetched units through
      a cursor local to the call.  Here the layout depends on every earlier
      value: the product method takes a variable number of draws, a
      1 + c*z <= 0 candidate takes no acceptance draw, a boost draw
      precedes each value below shape 1, and F interleaves two gammas
      (shapes d1/2, d2/2).
    """

    def __init__(self, rng: SplitMix64):
        self.rng = rng
        self._gauss_cache: float | None = None

    def draws(self, dist: DistributionSpec, count: int) -> np.ndarray:
        """The next ``count`` values of ``dist`` as a float64 array."""
        block = getattr(self, "_" + dist.name + "_block")
        out = np.empty(count)
        for lo in range(0, count, CHUNK):
            hi = min(lo + CHUNK, count)
            out[lo:hi] = block(hi - lo, *dist.params)
        return out

    # blocks: they read exactly their units

    def _normal_block(self, count: int, mu: float, sigma: float) -> np.ndarray:
        g = np.empty(count)
        start = 0 if self._gauss_cache is None else 1
        if start:
            g[0], self._gauss_cache = self._gauss_cache, None
        pairs = (count - start + 1) // 2
        u = self.rng.next_units(2 * pairs)
        both = np.empty(2 * pairs)
        both[0::2], both[1::2] = _box_muller(u[0::2], u[1::2])
        g[start:] = both[:count - start]
        if start + 2 * pairs > count:
            self._gauss_cache = float(both[-1])
        return mu + sigma * g

    def _exponential_block(self, count: int, mean: float) -> np.ndarray:
        return -mean * _per_element(math.log, 1.0 - self.rng.next_units(count))

    def _uniform_block(self, count: int, high: float) -> np.ndarray:
        return high * self.rng.next_units(count)

    # Gaussian candidates, each with the unit after it: gamma blocks and planted values

    def _candidates(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """At least ``count`` standard normal candidates ``z``, each with the
        unit drawn after it: a cached variate takes the next unit, then each
        Box-Muller pair [u1, u2] is followed by the units after its cosine
        and its sine variate.  ``_commit`` steps the stream back."""
        lead = 0 if self._gauss_cache is None else 1
        pairs = (count - lead + 1) // 2
        units = self.rng.next_units(lead + 4 * pairs)
        quads = units[lead:].reshape(pairs, 4)
        z = np.empty(lead + 2 * pairs)
        z[lead::2], z[lead + 1::2] = _box_muller(quads[:, 0], quads[:, 1])
        after = np.empty_like(z)
        after[lead:] = quads[:, 2:].ravel()
        if lead:
            z[0], after[0] = self._gauss_cache, units[0]
        return z, after

    def _commit(self, z: np.ndarray, stop: int) -> None:
        """Keep candidates [0, stop) of ``z``, each with its unit after; a
        cosine's sine partner stays cached."""
        lead = len(z) % 2  # _candidates draws a cached variate and whole pairs
        pairs_used, cosine = divmod(stop - lead, 2)
        self._gauss_cache = float(z[stop]) if cosine else None
        self.rng.skip(4 * pairs_used + 3 * cosine - 2 * (len(z) - lead))

    def _gamma_block(self, count: int, shape: float, scale: float) -> np.ndarray | list[float]:
        """``count`` Marsaglia-Tsang values; for shape >= 1 a block of
        candidates worked out at once, and the rest through ``_gammas``.

        A candidate's unit after is its acceptance draw, up to the first
        candidate with 1 + c*z <= 0, which takes none and so shifts the
        layout.  The block keeps the values accepted before that candidate
        and commits the stream there; ``_gammas`` then draws the rest of the
        chunk, starting with that candidate again.
        """
        if shape < 1.0:
            return self._gammas(count, (shape,), scale)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        z, accept = self._candidates(count + count // 16 + 4)  # a little over one per value
        t = 1.0 + c * z
        bad = np.flatnonzero(t <= 0.0)  # pow(t, 3) <= 0 exactly when t <= 0
        stop = int(bad[0]) if len(bad) else len(z)
        zs, vs, us = z[:stop], _per_element(math.pow, t[:stop], 3.0), accept[:stop]
        # Python's z**4 takes the power of |z| and fixes the sign after, so
        # libm's pow never sees a negative base here either
        ok = us < 1.0 - 0.0331 * _per_element(math.pow, np.abs(zs), 4.0)
        miss = np.flatnonzero(~ok)
        zm, vm = zs[miss], vs[miss]
        ok[miss] = _per_element(math.log, us[miss]) < 0.5 * zm * zm + d * (1.0 - vm + _per_element(math.log, vm))
        taken = np.flatnonzero(ok)[:count]
        kept = d * vs[taken] * scale
        if len(taken) == count:
            self._commit(z, int(taken[-1]) + 1)
            return kept
        self._commit(z, stop)
        return np.concatenate((kept, self._gammas(count - len(taken), (shape,), scale)))

    # one value per loop: through a cursor over prefetched units

    def _refill(self, buf: list[float], pos: int) -> tuple[list[float], int, int]:
        """A cursor (units, position, end) over the unread tail of ``buf``
        followed by a fresh chunk."""
        buf = buf[pos:] + self.rng.next_units(CHUNK).tolist()
        return buf, 0, len(buf)

    def _poisson_block(self, count: int, lam: float) -> list[int]:
        limit = math.exp(-lam)
        buf, pos, end = [], 0, 0
        out = [0] * count
        for i in range(count):
            if pos == end:
                buf, pos, end = self._refill(buf, pos)
            prod = buf[pos]
            pos += 1
            k = 0
            while prod > limit:
                k += 1
                if pos == end:
                    buf, pos, end = self._refill(buf, pos)
                prod *= buf[pos]
                pos += 1
            out[i] = k
        self.rng.skip(pos - end)  # step back over the units not read
        return out

    def _f_block(self, count: int, d1: float, d2: float) -> np.ndarray:
        g = np.array(self._gammas(2 * count, (d1 / 2.0, d2 / 2.0), 2.0))
        return (g[0::2] / d1) / (g[1::2] / d2)

    def _gammas(self, count: int, shapes: tuple[float, ...], scale: float) -> list[float]:
        """``count`` Marsaglia-Tsang values at ``scale``, one per loop, with
        shapes cycling through ``shapes``; a shape below 1 is drawn at shape
        + 1 and boosted by a unit draw to the power 1/shape."""
        plans = []
        for shape in shapes:
            power = 1.0 / shape if shape < 1.0 else None
            if power is not None:
                shape += 1.0
            d = shape - 1.0 / 3.0
            plans.append((power, d, 1.0 / math.sqrt(9.0 * d)))
        log, sqrt, cos, sin = math.log, math.sqrt, math.cos, math.sin
        buf, pos, end, gauss = [], 0, 0, self._gauss_cache
        out = [0.0] * count
        for i, (power, d, c) in enumerate(islice(cycle(plans), count)):
            if power is not None:
                if pos == end:
                    buf, pos, end = self._refill(buf, pos)
                boost = buf[pos] ** power
                pos += 1
            while True:
                if end - pos < 3:  # at most one Box-Muller pair and one acceptance draw
                    buf, pos, end = self._refill(buf, pos)
                if gauss is None:
                    r = sqrt(-2.0 * log(buf[pos]))
                    theta = _TWO_PI * buf[pos + 1]
                    pos += 2
                    gauss = r * sin(theta)
                    z = r * cos(theta)
                else:
                    z, gauss = gauss, None
                v = (1.0 + c * z) ** 3
                if v <= 0.0:
                    continue
                u = buf[pos]
                pos += 1
                if u < 1.0 - 0.0331 * z**4 or log(u) < 0.5 * z * z + d * (1.0 - v + log(v)):
                    break
            out[i] = d * v * scale if power is None else d * v * scale * boost
        self._gauss_cache = gauss
        self.rng.skip(pos - end)  # step back over the units not read
        return out


CHUNK = 1024  # values per block call and unit draws per prefetch: bounds the memory a matrix needs
_TWO_PI = 2.0 * math.pi


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosine and the sine variate of each Box-Muller pair (u1, u2)."""
    r = np.sqrt(-2.0 * _per_element(math.log, u1))
    theta = _TWO_PI * u2
    return r * _per_element(math.cos, theta), r * _per_element(math.sin, theta)


def _per_element(fn, values: np.ndarray, *args: float) -> np.ndarray:
    """``fn(value, *args)`` for each element with Python floats (``math`` rounding)."""
    return np.fromiter(map(fn, values.tolist(), *map(repeat, args)), float, len(values))


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One generated benchmark problem: b = A x_true with ||x_true||_0 = k."""

    a: np.ndarray
    b: np.ndarray
    x_true: np.ndarray
    k: int
    dist: DistributionSpec
    seed: int

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


def _draw_support(rng: SplitMix64, n: int, k: int) -> list[int]:
    """Uniform k-subset of range(n) via a Fisher-Yates prefix, returned sorted."""
    idx = list(range(n))
    for i in range(k):
        j = i + rng.next_below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def make_instance(dist: DistributionSpec, m: int, n: int, k: int, seed: int) -> ProblemInstance:
    """Generate one instance deterministically from the seed."""
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    if m >= n:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    rng = SplitMix64(seed)
    sampler = Sampler(rng)
    a = sampler.draws(dist, m * n).reshape(m, n)
    support = _draw_support(rng, n, k)
    z, after = sampler._candidates(k)  # magnitude, then the sign draw after it
    sampler._commit(z, k)
    x_true = np.zeros(n)
    x_true[support] = np.where(after[:k] < 0.5, 1.0, -1.0) * (MIN_NONZERO + np.abs(z[:k]))
    return ProblemInstance(a=a, b=a @ x_true, x_true=x_true, k=k, dist=dist, seed=seed)


def save_instance(inst: ProblemInstance, path) -> None:
    doc = {
        "m": inst.m,
        "n": inst.n,
        "k": inst.k,
        "dist": inst.dist.to_json(),
        "seed": inst.seed,
        "A": inst.a.reshape(-1).tolist(),
        "b": inst.b.tolist(),
        "x_true": inst.x_true.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _number(value, integral: bool = False) -> float | int:
    """float(value), or int(value) if ``integral``, of a JSON number: a string or a
    boolean (float() and int() take both) or a value int() would truncate raises."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"could not convert {'string' if isinstance(value, str) else 'boolean'} to float: {value!r}")
    if integral and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not integral")
    return int(value) if integral else float(value)


def load_instance(path) -> ProblemInstance:
    """Load and validate an instance file; raises InstanceParseError /
    InstanceValidationError with field context on bad input."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InstanceParseError("instance file must contain a JSON object")
    for fld in ("m", "n", "k", "dist", "seed", "A", "b", "x_true"):
        if fld not in doc:
            raise InstanceParseError(f"missing field {fld!r}")
    try:
        m, n, k, seed = (_number(doc[fld], integral=True) for fld in ("m", "n", "k", "seed"))
    except (TypeError, ValueError) as exc:
        raise InstanceParseError(f"m, n, k, seed must be integers: {exc}") from exc
    dist = DistributionSpec.from_json(doc["dist"])
    try:
        flat, b, x_true = (as_vector([_number(v) for v in doc[fld]]) for fld in ("A", "b", "x_true"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceParseError(f"A, b, x_true must be arrays of finite reals: {exc}") from exc
    if flat.shape[0] != m * n:
        raise InstanceParseError(f"field 'A' has {flat.shape[0]} entries, expected m*n = {m * n}")
    if b.shape[0] != m:
        raise InstanceParseError(f"field 'b' has length {b.shape[0]}, expected m = {m}")
    if x_true.shape[0] != n:
        raise InstanceParseError(f"field 'x_true' has length {x_true.shape[0]}, expected n = {n}")
    if not 1 <= m <= n:
        raise InstanceValidationError(f"need a system with 1 <= m <= n, got m={m}, n={n}")
    a = as_matrix(flat.reshape(m, n))
    nnz = count_nonzeros(x_true)
    if nnz != k:
        raise InstanceValidationError(f"x_true has {nnz} nonzeros, expected k = {k}")
    if not np.allclose(a @ x_true, b, rtol=0.0, atol=1e-9 * max(1.0, float(np.max(np.abs(b)) if b.size else 1.0))):
        raise InstanceValidationError("b does not equal A @ x_true")
    return ProblemInstance(a=a, b=b, x_true=x_true, k=k, dist=dist, seed=seed)
