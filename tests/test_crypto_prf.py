"""PRG / deterministic RNG tests."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prf import Prg, Rng


class TestPrg:
    def test_determinism(self):
        assert Prg(b"seed").read(64) == Prg(b"seed").read(64)

    def test_different_seeds_differ(self):
        assert Prg(b"a").read(32) != Prg(b"b").read(32)

    def test_stream_continuity(self):
        one = Prg(b"s")
        chunked = one.read(10) + one.read(22)
        assert chunked == Prg(b"s").read(32)

    @given(st.lists(st.integers(0, 100), max_size=12))
    @settings(max_examples=60)
    def test_stream_independent_of_read_sizes(self, sizes):
        prg = Prg(b"split")
        chunked = b"".join(prg.read(n) for n in sizes)
        assert chunked == Prg(b"split").read(sum(sizes))
        # The next read continues the same stream either way.
        assert prg.read(40) == Prg(b"split").read(sum(sizes) + 40)[-40:]

    def test_read_zero(self):
        assert Prg(b"s").read(0) == b""

    def test_negative_read_rejected(self):
        with pytest.raises(ValueError):
            Prg(b"s").read(-1)

    def test_non_bytes_seed_rejected(self):
        with pytest.raises(TypeError):
            Prg(123)


class TestRng:
    def test_seed_types(self):
        for seed in (7, "label", b"bytes", (1, "mix")):
            assert isinstance(Rng(seed).getrandbits(8), int)

    def test_determinism_across_types(self):
        assert Rng(42).randbytes(8) == Rng(42).randbytes(8)

    def test_fork_independence(self):
        root = Rng(1)
        a = root.fork("a").randbytes(16)
        b = root.fork("b").randbytes(16)
        assert a != b

    def test_fork_reproducible(self):
        assert Rng(1).fork("x").randbytes(8) == Rng(1).fork("x").randbytes(8)

    @pytest.mark.parametrize("drawn", [0, 5, 32, 33])
    def test_deepcopy_continues_the_stream(self, drawn):
        rng = Rng(3)
        rng.randbytes(drawn)
        twin = copy.deepcopy(rng)
        assert twin.randbytes(50) == rng.randbytes(50)
        assert twin.fork("x").randbytes(8) == rng.fork("x").randbytes(8)

    def test_randrange_bounds(self):
        rng = Rng(2)
        for _ in range(200):
            assert 0 <= rng.randrange(7) < 7
        for _ in range(200):
            assert 3 <= rng.randrange(3, 9) < 9

    def test_randrange_empty(self):
        with pytest.raises(ValueError):
            Rng(1).randrange(5, 5)

    def test_randint_inclusive(self):
        rng = Rng(3)
        values = {rng.randint(1, 3) for _ in range(100)}
        assert values == {1, 2, 3}

    def test_random_unit_interval(self):
        rng = Rng(4)
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_choice(self):
        rng = Rng(5)
        seq = ["a", "b", "c"]
        assert {rng.choice(seq) for _ in range(100)} == set(seq)

    def test_choice_empty(self):
        with pytest.raises(IndexError):
            Rng(1).choice([])

    def test_shuffle_is_permutation(self):
        rng = Rng(6)
        xs = list(range(20))
        shuffled = list(xs)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == xs

    def test_sample(self):
        rng = Rng(7)
        picked = rng.sample(range(10), 4)
        assert len(picked) == 4 and len(set(picked)) == 4

    def test_sample_too_large(self):
        with pytest.raises(ValueError):
            Rng(1).sample(range(3), 4)

    def test_coin_bias(self):
        rng = Rng(8)
        heads = sum(rng.coin(0.25) for _ in range(4000))
        assert 850 <= heads <= 1150  # ~5 sigma around 1000

    def test_coin_invalid_probability(self):
        with pytest.raises(ValueError):
            Rng(1).coin(1.5)

    def test_getrandbits_zero(self):
        assert Rng(1).getrandbits(0) == 0

    def test_getrandbits_negative(self):
        with pytest.raises(ValueError):
            Rng(1).getrandbits(-1)

    @given(st.integers(1, 64))
    @settings(max_examples=30)
    def test_getrandbits_width(self, k):
        assert 0 <= Rng(9).getrandbits(k) < (1 << k)

    def test_uniformity_chi_square_ish(self):
        rng = Rng(10)
        buckets = [0] * 8
        for _ in range(8000):
            buckets[rng.randrange(8)] += 1
        assert all(850 <= b <= 1150 for b in buckets)


class TestSeedEncoding:
    """Canonical composite-seed encoding (the regression for the old
    repr-based scheme, where a string equal to a tuple's repr collided)."""

    def test_int_vs_str_components_differ(self):
        assert Rng(("cli", 1)).randbytes(16) != Rng(("cli", "1")).randbytes(16)

    def test_tuple_vs_its_repr_string_differ(self):
        # The historical collision: Rng("('cli', 1)") == Rng(("cli", 1)).
        assert (
            Rng(("cli", 1)).randbytes(16)
            != Rng("('cli', 1)").randbytes(16)
        )

    def test_nesting_structure_matters(self):
        assert (
            Rng(("a", ("b", "c"))).randbytes(16)
            != Rng((("a", "b"), "c")).randbytes(16)
        )

    def test_adjacent_component_boundaries_matter(self):
        assert Rng(("ab", "c")).randbytes(16) != Rng(("a", "bc")).randbytes(16)

    def test_bytes_vs_str_components_differ(self):
        assert Rng((b"x", 0)).randbytes(16) != Rng(("x", 0)).randbytes(16)

    def test_bool_vs_int_components_differ(self):
        assert Rng((True, "s")).randbytes(16) != Rng((1, "s")).randbytes(16)

    def test_composite_seeds_are_deterministic(self):
        seed = ("sweep", 3, ("t", 2))
        assert Rng(seed).randbytes(32) == Rng(seed).randbytes(32)

    def test_encode_seed_is_canonical(self):
        from repro.crypto.prf import encode_seed

        assert encode_seed(("a", 1)) == encode_seed(("a", 1))
        assert encode_seed(("a", 1)) != encode_seed(("a", "1"))
        assert encode_seed([1, 2]) == encode_seed((1, 2))  # list ≡ tuple

    def test_primitive_seeds_keep_legacy_streams(self):
        # int/str/bytes fast paths are untouched by the canonical encoder:
        # int seeds are 16-byte big-endian, str seeds are utf-8.
        assert Rng(7).randbytes(8) == Rng((7).to_bytes(16, "big", signed=True)).randbytes(8)
        assert Rng("label").randbytes(8) == Rng(b"label").randbytes(8)


class TestPrgLargeReads:
    def test_large_read_matches_chunked(self):
        # Regression guard for the quadratic buffer-growth bug: one big
        # read must equal the same stream drawn in small pieces.
        big = Prg(b"large").read(1 << 18)
        prg = Prg(b"large")
        chunked = b"".join(prg.read(4096) for _ in range(1 << 6))
        assert big[: len(chunked)] == chunked

    def test_large_read_is_linear_ish(self):
        # 256 KiB through the block accumulator; with the old
        # bytes-concatenation loop this was ~16k reallocations of an
        # ever-growing buffer.  No timing assertion (CI clocks are
        # noisy) — the chunk-equality test above pins the semantics and
        # this one just exercises the large-read path end to end.
        out = Prg(b"bulk").read(256 * 1024)
        assert len(out) == 256 * 1024
        assert out != bytes(256 * 1024)
