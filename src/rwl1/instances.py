"""Benchmark instance generation: random matrices from six distributions,
planted k-sparse solutions, and a JSON file format for round-tripping.

Everything is driven by a single SplitMix64 stream per instance, so an
instance is a pure function of (distribution, m, n, k, seed).  Draw order
is fixed: the matrix entries row by row, then the support via a
Fisher-Yates prefix, then the nonzero values (magnitude, then sign).

The matrix is generated in blocks (``Sampler.draws``) that consume the
stream in exactly that order, so the output is bit-identical to drawing
one entry at a time; the k planted magnitudes, one at a time, take the
scalar Box-Muller step ``Sampler.gauss`` instead of a one-value block.  Only exact operations go to numpy: the splitmix64
integer mix, the unit mapping, + - * /, sqrt and comparisons, all
correctly rounded alike in numpy and in Python.  Every log, exp, cos, sin
and power is evaluated per element by the ``math`` module, because numpy's
versions round differently on some inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
        if name not in DISTRIBUTIONS:
            raise InstanceParseError(f"unknown distribution {name!r} in dist field")
        names, _ = DISTRIBUTIONS[name]
        try:
            params = tuple(float(obj[k]) for k in names)
        except KeyError as exc:
            raise InstanceParseError(f"dist field missing parameter {exc.args[0]!r}") from exc
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
    at a time, so a block of n equals n consecutive blocks of one.  Unit
    draws are prefetched in chunks of ``CHUNK``; normal, exponential and
    uniform map a whole chunk at once, while Poisson, gamma and F, which
    reject a variable number of draws, read the chunk through a cursor.
    Each call steps the stream back over the draws it prefetched but did
    not use.  The cached Box-Muller variate carries across chunks and calls.
    """

    def __init__(self, rng: SplitMix64):
        self.rng = rng
        self._gauss_cache: float | None = None
        self._buf: list[float] = []  # cursor over a prefetched chunk
        self._pos = 0

    def draws(self, dist: DistributionSpec, count: int) -> np.ndarray:
        """The next ``count`` values of ``dist`` as a float64 array."""
        block = getattr(self, "_" + dist.name + "_block")
        out = np.empty(count)
        for lo in range(0, count, CHUNK):
            hi = min(lo + CHUNK, count)
            out[lo:hi] = block(hi - lo, *dist.params)
        self.rng.skip(self._pos - len(self._buf))  # hand back what the cursor did not read
        self._buf, self._pos = [], 0
        return out

    def gauss(self) -> float:
        """The next standard normal draw: one Box-Muller step of ``draws`` on
        the normal distribution, sharing its cached variate."""
        g = self._gauss_cache
        if g is not None:
            self._gauss_cache = None
            return g
        r = math.sqrt(-2.0 * math.log(self.rng.next_unit()))
        theta = _TWO_PI * self.rng.next_unit()
        self._gauss_cache = r * math.sin(theta)
        return r * math.cos(theta)

    # whole-chunk maps

    def _normal_block(self, count: int, mu: float, sigma: float) -> np.ndarray:
        g = np.empty(count)
        start = 0
        if self._gauss_cache is not None:
            g[0] = self._gauss_cache
            self._gauss_cache = None
            start = 1
        pairs = (count - start + 1) // 2
        u = self.rng.next_units(2 * pairs)
        r = np.sqrt(-2.0 * _per_element(math.log, u[0::2]))
        theta = _TWO_PI * u[1::2]
        both = np.empty(2 * pairs)
        both[0::2] = r * _per_element(math.cos, theta)
        both[1::2] = r * _per_element(math.sin, theta)
        g[start:] = both[:count - start]
        if start + 2 * pairs > count:
            self._gauss_cache = float(both[-1])
        return mu + sigma * g

    def _exponential_block(self, count: int, mean: float) -> np.ndarray:
        return -mean * _per_element(math.log, 1.0 - self.rng.next_units(count))

    def _uniform_block(self, count: int, high: float) -> np.ndarray:
        return high * self.rng.next_units(count)

    # rejection samplers: one value at a time through the cursor

    def _refill(self, buf: list[float], pos: int) -> list[float]:
        """The unread tail of ``buf`` followed by a fresh chunk."""
        return buf[pos:] + self.rng.next_units(CHUNK).tolist()

    def _poisson_block(self, count: int, lam: float) -> list[float]:
        limit = math.exp(-lam)
        buf, pos = self._buf, self._pos
        out = []
        for _ in range(count):
            k = 0
            if pos == len(buf):
                buf, pos = self._refill(buf, pos), 0
            prod = buf[pos]
            pos += 1
            while prod > limit:
                k += 1
                if pos == len(buf):
                    buf, pos = self._refill(buf, pos), 0
                prod *= buf[pos]
                pos += 1
            out.append(float(k))
        self._buf, self._pos = buf, pos
        return out

    def _gamma_block(self, count: int, shape: float, scale: float) -> list[float]:
        return [self._gamma(shape, scale) for _ in range(count)]

    def _f_block(self, count: int, d1: float, d2: float) -> list[float]:
        gamma = self._gamma
        return [(gamma(d1 / 2.0, 2.0) / d1) / (gamma(d2 / 2.0, 2.0) / d2) for _ in range(count)]

    def _gamma(self, shape: float, scale: float) -> float:
        buf, pos = self._buf, self._pos
        boost = None
        if shape < 1.0:
            if pos == len(buf):
                buf, pos = self._refill(buf, pos), 0
            boost = buf[pos] ** (1.0 / shape)
            pos += 1
            shape += 1.0
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        log = math.log
        gauss = self._gauss_cache
        while True:
            if len(buf) - pos < 3:  # at most one Box-Muller pair and one acceptance draw
                buf, pos = self._refill(buf, pos), 0
            if gauss is None:
                r = math.sqrt(-2.0 * log(buf[pos]))
                theta = _TWO_PI * buf[pos + 1]
                pos += 2
                gauss = r * math.sin(theta)
                z = r * math.cos(theta)
            else:
                z, gauss = gauss, None
            v = (1.0 + c * z) ** 3
            if v <= 0.0:
                continue
            u = buf[pos]
            pos += 1
            if u < 1.0 - 0.0331 * z**4 or log(u) < 0.5 * z * z + d * (1.0 - v + log(v)):
                break
        self._buf, self._pos, self._gauss_cache = buf, pos, gauss
        value = d * v * scale
        return value if boost is None else value * boost


CHUNK = 1024  # values per block call and unit draws per prefetch: bounds the memory a matrix needs
_TWO_PI = 2.0 * math.pi


def _per_element(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` applied to each element with Python floats (``math`` rounding)."""
    return np.fromiter(map(fn, values.tolist()), float, len(values))


@dataclass(frozen=True)
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

    def __eq__(self, other):
        if not isinstance(other, ProblemInstance):
            return NotImplemented
        return (
            self.k == other.k
            and self.dist == other.dist
            and self.seed == other.seed
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
            and np.array_equal(self.x_true, other.x_true)
        )


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
    x_true = np.zeros(n)
    for idx in support:
        magnitude = MIN_NONZERO + abs(sampler.gauss())
        sign = 1.0 if rng.next_unit() < 0.5 else -1.0
        x_true[idx] = sign * magnitude
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


def _as_int(value) -> int:
    """int(value), refusing to truncate a non-integral number."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not integral")
    return int(value)


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
        m, n, k, seed = (_as_int(doc[fld]) for fld in ("m", "n", "k", "seed"))
    except (TypeError, ValueError) as exc:
        raise InstanceParseError(f"m, n, k, seed must be integers: {exc}") from exc
    dist = DistributionSpec.from_json(doc["dist"])
    try:
        flat = as_vector([float(v) for v in doc["A"]])
        b = as_vector([float(v) for v in doc["b"]])
        x_true = as_vector([float(v) for v in doc["x_true"]])
    except (TypeError, ValueError) as exc:
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
