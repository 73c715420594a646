import numpy as np
import pytest

from rwl1.rng import SplitMix64, mix64

from oracles import next_unit, splitmix64_reference


def test_published_reference_vector_seed_zero():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_matches_independent_implementation():
    for seed in [0, 1, 42, 2**63, 2**64 - 1, 0xDEADBEEF]:
        rng = SplitMix64(seed)
        got = [rng.next_u64() for _ in range(200)]
        assert got == splitmix64_reference(seed, 200)


def test_identical_seeds_identical_streams():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(1000)] == [b.next_u64() for _ in range(1000)]


def test_unit_draws_strictly_inside_open_interval():
    rng = SplitMix64(7)
    for _ in range(10000):
        u = next_unit(rng)
        assert 0.0 < u < 1.0


def test_mix64_is_the_stateless_step():
    rng = SplitMix64(12345)
    assert mix64(12345) == rng.next_u64()


def test_next_below_range():
    rng = SplitMix64(5)
    draws = [rng.next_below(7) for _ in range(1000)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7
    with pytest.raises(ValueError, match="bound must be positive"):
        rng.next_below(0)


def test_block_matches_independent_implementation_and_scalar_stream():
    for seed in [0, 1, 42, 2**63, 2**64 - 1, 0xDEADBEEF]:
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        got = block.next_u64s(200)
        assert got.dtype == np.uint64
        assert got.tolist() == splitmix64_reference(seed, 200)
        assert got.tolist() == [scalar.next_u64() for _ in range(200)]
        assert block.state == scalar.state


def test_block_wraps_around_at_max_seed():
    seed = 2**64 - 1
    rng = SplitMix64(seed)
    steps = [(seed + i * 0x9E3779B97F4A7C15) % 2**64 for i in range(4)]
    assert rng.next_u64s(4).tolist() == [mix64(s) for s in steps]
    assert rng.state == (seed + 4 * 0x9E3779B97F4A7C15) % 2**64


def test_consecutive_blocks_continue_the_stream():
    whole = SplitMix64(2**64 - 1)
    parts = SplitMix64(2**64 - 1)
    expected = whole.next_u64s(1030).tolist()
    got = []
    for count in (5, 0, 1, 1024):
        got += parts.next_u64s(count).tolist()
    assert got == expected
    assert parts.state == whole.state


def test_unit_block_matches_scalar_draws():
    block, scalar = SplitMix64(7), SplitMix64(7)
    units = block.next_units(10000)
    assert units.tolist() == [next_unit(scalar) for _ in range(10000)]
    assert np.all((units > 0.0) & (units < 1.0))
    assert block.state == scalar.state


def test_skip_back_replays_outputs():
    rng = SplitMix64(2**63)
    first = rng.next_u64s(10).tolist()
    rng.skip(-4)
    assert rng.next_u64s(4).tolist() == first[6:]
    rng.skip(-10)
    assert rng.state == 2**63
