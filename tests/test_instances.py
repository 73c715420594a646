import json
import math
from itertools import combinations

import numpy as np
import pytest

from oracles import (f_scalar_draws, gamma_scalar_draws, planted_scalar_draws, poisson_scalar_draws,
                     same_instance)
from rwl1.instances import (CHUNK, MIN_NONZERO, DistributionSpec, InstanceParseError,
                            InstanceValidationError, Sampler, load_instance, make_instance,
                            save_instance)
from rwl1.rng import SplitMix64

N_MOMENT_DRAWS = 100_000


def draws(name, count=N_MOMENT_DRAWS, seed=314159):
    return Sampler(SplitMix64(seed)).draws(DistributionSpec.default(name), count)


class TestSamplerMoments:
    """Mean/variance bands: analytic value +/- a generous multiple of the
    standard error at 1e5 draws (computed from the distribution's variance)."""

    def test_normal_variance(self):
        x = draws("normal")
        assert abs(float(np.var(x))) == pytest.approx(1.0, abs=0.05)
        assert float(np.mean(x)) == pytest.approx(0.0, abs=0.05)

    def test_poisson_mean_and_integrality(self):
        x = draws("poisson")
        assert float(np.mean(x)) == pytest.approx(2.0, abs=0.05)
        assert np.all(x >= 0)
        assert np.all(x == np.floor(x))

    def test_exponential_mean(self):
        x = draws("exponential")
        assert float(np.mean(x)) == pytest.approx(5.0, abs=0.15)
        assert np.all(x >= 0)

    def test_uniform_support_and_mean(self):
        x = draws("uniform")
        assert np.all((x > 0.0) & (x < 10.0))
        assert float(np.mean(x)) == pytest.approx(5.0, abs=0.1)

    def test_gamma_mean(self):
        # shape 5, scale 10: mean 50, sd sqrt(5)*10 ~ 22.36 -> se ~ 0.071
        x = draws("gamma")
        assert float(np.mean(x)) == pytest.approx(50.0, abs=0.5)
        assert np.all(x > 0)

    def test_f_mean(self):
        # F(1, 6): mean d2/(d2-2) = 1.5, variance 11.25 -> se ~ 0.0106
        x = draws("f")
        assert float(np.mean(x)) == pytest.approx(1.5, abs=0.15)
        assert np.all(x > 0)

    def test_gamma_boost_below_shape_one(self):
        # exercised by the F sampler; check the mean of a bare shape-0.5 draw
        sampler = Sampler(SplitMix64(99))
        x = sampler.draws(DistributionSpec("gamma", (0.5, 2.0)), N_MOMENT_DRAWS)
        assert float(np.mean(x)) == pytest.approx(1.0, abs=0.05)  # chi2(1) mean


STREAM_SPECS = [DistributionSpec.default(name) for name in
                ("normal", "poisson", "exponential", "f", "gamma", "uniform")] + [
    DistributionSpec("gamma", (0.5, 2.0)), DistributionSpec("gamma", (1.0, 1.0)),
    DistributionSpec("f", (2.0, 3.0)),
    DistributionSpec("poisson", (30.0,))]


class TestSamplerStream:
    """A block of draws is the stream in order: splitting it into several
    calls changes no value, the final stream state or the Gaussian cache."""

    @pytest.mark.parametrize("spec", STREAM_SPECS, ids=lambda s: f"{s.name}{s.params}")
    @pytest.mark.parametrize("split", [(3, 4), (1, 1024, 1)], ids=str)
    def test_split_calls_equal_one_call(self, spec, split):
        whole = Sampler(SplitMix64(2024))
        parts = Sampler(SplitMix64(2024))
        expected = whole.draws(spec, sum(split))
        got = np.concatenate([parts.draws(spec, count) for count in split])
        assert got.dtype == np.float64 and got.shape == (sum(split),)
        assert got.tobytes() == expected.tobytes()
        assert parts.rng.state == whole.rng.state
        assert parts._gauss_cache == whole._gauss_cache

    def test_odd_normal_count_leaves_the_pair_cached(self):
        sampler = Sampler(SplitMix64(5))
        spec = DistributionSpec.default("normal")
        sampler.draws(spec, 7)
        cached = sampler._gauss_cache
        assert cached is not None
        assert sampler.draws(spec, 1)[0] == cached
        assert sampler._gauss_cache is None

    def test_zero_draws_leave_the_stream_untouched(self):
        for spec in STREAM_SPECS:
            sampler = Sampler(SplitMix64(11))
            assert sampler.draws(spec, 0).shape == (0,)
            assert sampler.rng.state == 11


def _oracle_pair(seed, lead):
    """Two samplers on one stream after ``lead`` normal draws (an odd lead
    leaves a Box-Muller variate cached)."""
    pair = Sampler(SplitMix64(seed)), Sampler(SplitMix64(seed))
    for sampler in pair:
        sampler.draws(DistributionSpec.default("normal"), lead)
    return pair


def _assert_same_stream(got, expected, sampler, oracle):
    assert got.tobytes() == expected.tobytes()
    assert sampler.rng.state == oracle.rng.state
    assert sampler._gauss_cache == oracle._gauss_cache


class TestGammaOracle:
    """Gamma and F against the scalar Marsaglia-Tsang sampler that the block
    path and the one-value loop replaced (``oracles.gamma_scalar``), and
    Poisson against Knuth's product method: the same bytes, stream state
    and cached variate."""

    @pytest.mark.parametrize("shape", [1.0, 1.05, 1.3, 2.0, 5.0, 30.0])
    @pytest.mark.parametrize("count", [1, 7, CHUNK - 1, CHUNK + 1, 3 * CHUNK])
    @pytest.mark.parametrize("lead", [0, 3], ids=lambda c: f"after{c}")
    def test_block_path(self, shape, count, lead):
        # at shape 1 about 0.7% of candidates have 1 + c*z <= 0 and end the block
        sampler, oracle = _oracle_pair(17, lead)
        got = sampler.draws(DistributionSpec("gamma", (shape, 3.0)), count)
        _assert_same_stream(got, gamma_scalar_draws(oracle, count, shape, 3.0), sampler, oracle)

    def test_block_path_ends_a_run_at_a_cached_candidate(self):
        # seed 10 leaves z = -2.60 cached after one normal draw: at shape 1
        # 1 + z/sqrt(6) < 0, so the block hands off at its first candidate
        sampler, oracle = _oracle_pair(10, 1)
        assert 1.0 + sampler._gauss_cache / math.sqrt(6.0) < 0.0
        got = sampler.draws(DistributionSpec("gamma", (1.0, 1.0)), 5)
        _assert_same_stream(got, gamma_scalar_draws(oracle, 5, 1.0, 1.0), sampler, oracle)

    @pytest.mark.parametrize("seed,ends_at", [(4, "cosine"), (2, "sine"), (313, None)],
                             ids=["cosine", "sine", "short"])
    def test_block_hands_the_rest_to_the_one_value_loop(self, seed, ends_at, monkeypatch):
        # seeds found by search for 64 values at shape 1, whose block lays
        # out 64 + 64 // 16 + 4 = 72 candidates: the first with 1 + c*z <= 0
        # is a cosine variate (seed 4) or a sine variate (seed 2); seed 313
        # has none, and fewer than 64 of its candidates are accepted
        count = 64
        sampler, oracle = _oracle_pair(seed, 0)
        z, _ = Sampler(SplitMix64(seed))._candidates(count + count // 16 + 4)
        bad = np.flatnonzero(1.0 + z / math.sqrt(6.0) <= 0.0)
        assert (("cosine", "sine")[bad[0] % 2] if len(bad) else None) == ends_at
        handed = []
        loop = sampler._gammas
        monkeypatch.setattr(sampler, "_gammas", lambda n, *args: handed.append(n) or loop(n, *args))
        got = sampler.draws(DistributionSpec("gamma", (1.0, 1.0)), count)
        assert len(handed) == 1 and 0 < handed[0] < count
        _assert_same_stream(got, gamma_scalar_draws(oracle, count, 1.0, 1.0), sampler, oracle)

    @pytest.mark.parametrize("spec,scalar", [
        (DistributionSpec("gamma", (1.0, 2.0)), gamma_scalar_draws),
        (DistributionSpec("gamma", (5.0, 2.0)), gamma_scalar_draws),
        (DistributionSpec("gamma", (0.5, 2.0)), gamma_scalar_draws),
        (DistributionSpec("f", (1.0, 6.0)), f_scalar_draws),
        (DistributionSpec("poisson", (2.0,)), poisson_scalar_draws),
    ], ids=["1.0", "5.0", "0.5", "f", "poisson"])
    def test_block_calls_leave_the_stream_just_past_their_units(self, spec, scalar):
        # each block call, not only each draws call, ends at the exact stream
        # position, and the cached variate is all a sampler carries over
        sampler, oracle = _oracle_pair(41, 3)
        block = getattr(sampler, f"_{spec.name}_block")
        for count in (1, 5, 64, CHUNK):
            got = np.asarray(block(count, *spec.params), dtype=float)
            _assert_same_stream(got, scalar(oracle, count, *spec.params), sampler, oracle)
            assert vars(sampler).keys() == {"rng", "_gauss_cache"}

    @pytest.mark.parametrize("shape", [0.3, 0.5, 0.99, 1.0, 5.0])
    @pytest.mark.parametrize("count", [7, CHUNK + 1])
    @pytest.mark.parametrize("lead", [0, 3], ids=lambda c: f"after{c}")
    def test_draws(self, shape, count, lead):
        sampler, oracle = _oracle_pair(23, lead)
        got = sampler.draws(DistributionSpec("gamma", (shape, 2.0)), count)
        _assert_same_stream(got, gamma_scalar_draws(oracle, count, shape, 2.0), sampler, oracle)

    @pytest.mark.parametrize("degrees", [(1.0, 1.0), (1.0, 6.0), (2.0, 3.0), (5.0, 7.0)], ids=str)
    @pytest.mark.parametrize("count", [7, CHUNK + 1])
    @pytest.mark.parametrize("lead", [0, 3], ids=lambda c: f"after{c}")
    def test_f(self, degrees, count, lead):
        sampler, oracle = _oracle_pair(29, lead)
        got = sampler.draws(DistributionSpec("f", degrees), count)
        _assert_same_stream(got, f_scalar_draws(oracle, count, *degrees), sampler, oracle)


class TestDistributionSpec:
    def test_defaults_match_protocol(self):
        assert DistributionSpec.default("normal").params == (0.0, 1.0)
        assert DistributionSpec.default("poisson").params == (2.0,)
        assert DistributionSpec.default("exponential").params == (5.0,)
        assert DistributionSpec.default("f").params == (1.0, 6.0)
        assert DistributionSpec.default("gamma").params == (5.0, 10.0)
        assert DistributionSpec.default("uniform").params == (10.0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec("normal", (0.0, -1.0))
        with pytest.raises(ValueError):
            DistributionSpec("f", (1.5, 6.0))
        with pytest.raises(ValueError):
            DistributionSpec("triangular", (1.0,))
        with pytest.raises(ValueError, match="700"):
            DistributionSpec("poisson", (1000.0,))  # product method underflows
        with pytest.raises(ValueError, match="takes parameters"):
            DistributionSpec("normal", (0.0,))
        with pytest.raises(ValueError, match="mean must be > 0"):
            DistributionSpec("exponential", (0.0,))
        with pytest.raises(ValueError, match="shape and scale must be > 0"):
            DistributionSpec("gamma", (5.0, -1.0))
        with pytest.raises(ValueError, match="uniform bound must be > 0"):
            DistributionSpec("uniform", (0.0,))
        for name, params in [
            ("normal", (math.nan, 1.0)), ("normal", (math.inf, 1.0)), ("normal", (0.0, math.nan)),
            ("normal", (0.0, math.inf)), ("poisson", (math.nan,)), ("exponential", (math.nan,)),
            ("exponential", (math.inf,)), ("f", (math.inf, 6.0)), ("f", (1.0, math.nan)),
            ("gamma", (math.nan, 10.0)), ("gamma", (5.0, math.inf)), ("uniform", (math.inf,)),
            ("uniform", (-math.inf,)),
        ]:
            with pytest.raises(ValueError, match="parameters must be finite"):
                DistributionSpec(name, params)

    def test_json_round_trip(self):
        spec = DistributionSpec("gamma", (2.5, 3.0))
        assert DistributionSpec.from_json(spec.to_json()) == spec


class TestMakeInstance:
    def test_contract_fields(self):
        inst = make_instance(DistributionSpec.default("normal"), 50, 200, 5, 42)
        assert inst.a.shape == (50, 200)
        assert inst.b.shape == (50,)
        assert int(np.sum(np.abs(inst.x_true) > 1e-6)) == 5
        assert np.min(np.abs(inst.x_true[inst.x_true != 0.0])) >= 0.1
        np.testing.assert_array_equal(inst.b, inst.a @ inst.x_true)

    def test_reproducible_bit_exact(self):
        spec = DistributionSpec.default("exponential")
        a = make_instance(spec, 12, 40, 4, 42)
        b = make_instance(spec, 12, 40, 4, 42)
        assert same_instance(a, b)

    def test_distinct_seeds_differ(self):
        spec = DistributionSpec.default("normal")
        a = make_instance(spec, 5, 12, 2, 1)
        b = make_instance(spec, 5, 12, 2, 2)
        assert not np.array_equal(a.a, b.a)

    def test_boundary_sparsity(self):
        inst = make_instance(DistributionSpec.default("uniform"), 6, 15, 6, 8)
        assert int(np.sum(inst.x_true != 0.0)) == 6

    def test_input_validation(self):
        spec = DistributionSpec.default("normal")
        with pytest.raises(ValueError, match="k <= m"):
            make_instance(spec, 5, 12, 6, 1)
        with pytest.raises(ValueError, match="m < n"):
            make_instance(spec, 12, 12, 3, 1)

    @pytest.mark.parametrize("m,n,lead", [(6, 9, 0), (7, 9, 1)], ids=["lead0", "lead1"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_planted_values_equal_scalar_draws(self, m, n, lead, k):
        # the planted values are one Box-Muller step and one sign draw per
        # support index, in support order, after the matrix (an odd count of
        # normal entries leaves a variate cached) and the Fisher-Yates prefix
        spec = DistributionSpec.default("normal")
        oracle = Sampler(SplitMix64(97))
        oracle.draws(spec, m * n)
        assert (oracle._gauss_cache is not None) == lead
        for i in range(k):
            oracle.rng.next_below(n - i)
        inst = make_instance(spec, m, n, k, 97)
        expected = np.zeros(n)
        expected[np.flatnonzero(inst.x_true)] = planted_scalar_draws(oracle, k, MIN_NONZERO)
        assert inst.x_true.tobytes() == expected.tobytes()

    def test_support_pairs_near_uniform(self):
        # n=10, k=2: 45 possible supports, expect frequency 1/45 +/- 0.01
        spec = DistributionSpec.default("normal")
        counts = {pair: 0 for pair in combinations(range(10), 2)}
        total = 10_000
        for t in range(total):
            inst = make_instance(spec, 5, 10, 2, 60_000 + t)
            support = tuple(np.flatnonzero(inst.x_true != 0.0))
            counts[support] += 1
        for pair, cnt in counts.items():
            assert abs(cnt / total - 1.0 / 45.0) < 0.01, pair


# a valid file: a square identity system, whose unique solution is b itself
IDENTITY_INSTANCE = {"m": 2, "n": 2, "k": 2, "dist": {"name": "normal", "mu": 0.0, "sigma": 1.0},
                     "seed": 0, "A": [1.0, 0.0, 0.0, 1.0], "b": [3.0, -4.0],
                     "x_true": [3.0, -4.0]}

# fields replacing IDENTITY_INSTANCE's (or a whole document) and what the error says
BAD_FILES = [
    ([1.0, 2.0], "must contain a JSON object"),
    ({"m": "two"}, "m, n, k, seed must be integers"),
    ({"seed": None}, "m, n, k, seed must be integers"),
    ({"k": 2.7}, "m, n, k, seed must be integers: 2.7 is not integral"),
    ({"seed": 0.9}, "m, n, k, seed must be integers: 0.9 is not integral"),
    ({"n": float("inf")}, "m, n, k, seed must be integers: inf is not integral"),
    ({"A": [1.0, "zero", 0.0, 1.0]}, "A, b, x_true must be arrays of finite reals"),
    ({"A": [1.0, 0.0, 0.0]}, "field 'A' has 3 entries, expected m*n = 4"),
    ({"x_true": [3.0, -4.0, 0.0]}, "field 'x_true' has length 3, expected n = 2"),
    ({"dist": "normal"}, "dist must be an object with a 'name' field"),
    ({"dist": {"name": "cauchy"}}, "unknown distribution 'cauchy'"),
    ({"dist": {"name": "normal", "mu": 0.0}}, "dist field missing parameter 'sigma'"),
    ({"dist": {"name": "normal", "mu": 0.0, "sigma": 0.0}}, "sigma must be > 0"),
    ({"dist": {"name": "normal", "mu": 0.0, "sigma": float("nan")}},
     "normal parameters must be finite"),
    ({"dist": {"name": "f", "d1": float("inf"), "d2": 6.0}}, "f parameters must be finite"),
    ({"dist": {"name": "normal", "mu": None, "sigma": 1.0}},
     "dist parameter 'mu' is not a number"),
    ({"dist": {"name": "normal", "mu": 0.0, "sigma": [1.0]}},
     "dist parameter 'sigma' is not a number"),
    ({"dist": {"name": ["normal"], "mu": 0.0, "sigma": 1.0}},
     "unknown distribution ['normal'] in dist field"),
    ({"dist": {"name": "normal", "mu": "zero", "sigma": 1.0}},
     "dist parameter 'mu' is not a number: could not convert string to float: 'zero'"),
    ({"dist": {"name": "normal", "mu": 10**400, "sigma": 1.0}},
     "dist parameter 'mu' is not a number: int too large"),
    ({"b": [10**400, -4.0]}, "A, b, x_true must be arrays of finite reals: int too large"),
    # only JSON numbers are numbers: float() and int() would take these strings and booleans
    ({"A": "1001"}, "A, b, x_true must be arrays of finite reals: "
                    "could not convert string to float: '1'"),
    ({"m": "2"}, "m, n, k, seed must be integers: could not convert string to float: '2'"),
    ({"seed": True}, "m, n, k, seed must be integers: could not convert boolean to float: True"),
    ({"b": [True, -4.0], "x_true": [1.0, -4.0]},
     "A, b, x_true must be arrays of finite reals: could not convert boolean to float: True"),
    ({"k": 1, "x_true": [False, True], "b": [0.0, 1.0]},
     "A, b, x_true must be arrays of finite reals: could not convert boolean to float: False"),
    ({"dist": {"name": "normal", "mu": "0", "sigma": 1.0}},
     "dist parameter 'mu' is not a number: could not convert string to float: '0'"),
]


class TestInstanceFiles:
    def test_identity_file_loads(self, tmp_path):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(IDENTITY_INSTANCE))
        assert load_instance(path).x_true.tolist() == IDENTITY_INSTANCE["x_true"]

    def test_integral_float_fields_load(self, tmp_path):
        path = tmp_path / "floats.json"
        path.write_text(json.dumps({**IDENTITY_INSTANCE, "k": 2.0, "seed": 7.0}))
        inst = load_instance(path)
        assert (inst.k, inst.seed) == (2, 7)
        assert isinstance(inst.k, int) and isinstance(inst.seed, int)

    def test_round_trip_identity(self, tmp_path):
        inst = make_instance(DistributionSpec.default("f"), 8, 20, 3, 77)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert same_instance(load_instance(path), inst)

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"m": 2,\n "n": }')
        with pytest.raises(InstanceParseError, match="line 2"):
            load_instance(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"m": 2, "n": 4, "k": 1}))
        with pytest.raises(InstanceParseError, match="dist"):
            load_instance(path)

    def test_wrong_b_length(self, tmp_path):
        inst = make_instance(DistributionSpec.default("normal"), 4, 9, 2, 5)
        doc = json.loads(_dump(inst))
        doc["b"] = doc["b"][:-1]
        path = tmp_path / "shortb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceParseError, match="'b'"):
            load_instance(path)

    def test_wrong_support_size(self, tmp_path):
        inst = make_instance(DistributionSpec.default("normal"), 4, 9, 2, 5)
        doc = json.loads(_dump(inst))
        doc["k"] = 3
        path = tmp_path / "badk.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceValidationError, match="nonzeros"):
            load_instance(path)

    def test_inconsistent_b_rejected(self, tmp_path):
        inst = make_instance(DistributionSpec.default("normal"), 4, 9, 2, 5)
        doc = json.loads(_dump(inst))
        doc["b"][0] += 1.0
        path = tmp_path / "badb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceValidationError, match="x_true"):
            load_instance(path)

    def test_tall_system_rejected(self, tmp_path):
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(TALL_INSTANCE))
        with pytest.raises(InstanceValidationError, match="m=3, n=2"):
            load_instance(path)

    @pytest.mark.parametrize("n", [3, 0])
    def test_system_without_rows_rejected(self, n, tmp_path):
        path = tmp_path / "norows.json"
        path.write_text(json.dumps({**NO_ROWS_INSTANCE, "n": n, "x_true": [0.0] * n}))
        with pytest.raises(InstanceValidationError, match=f"m=0, n={n}"):
            load_instance(path)

    @pytest.mark.parametrize("patch,fragment", BAD_FILES, ids=[f for _, f in BAD_FILES])
    def test_malformed_file_rejected(self, patch, fragment, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**IDENTITY_INSTANCE, **patch}
                                   if isinstance(patch, dict) else patch))
        with pytest.raises(InstanceParseError) as exc:
            load_instance(path)
        assert fragment in str(exc.value)


# consistent in every field, but with more rows than columns
TALL_INSTANCE = {"m": 3, "n": 2, "k": 2, "dist": {"name": "normal", "mu": 0.0, "sigma": 1.0},
                 "seed": 0, "A": [1.0, 0.0, 0.0, 1.0, 1.0, 1.0], "b": [3.0, -4.0, -1.0],
                 "x_true": [3.0, -4.0]}

# consistent in every field, but with no rows: A x = b holds for any x
NO_ROWS_INSTANCE = {"m": 0, "n": 3, "k": 0, "dist": {"name": "normal", "mu": 0.0, "sigma": 1.0},
                    "seed": 0, "A": [], "b": [], "x_true": [0.0, 0.0, 0.0]}


def _dump(inst):
    import os
    import tempfile

    fd, name = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        save_instance(inst, name)
        with open(name) as fh:
            return fh.read()
    finally:
        os.unlink(name)
