"""Tests for the paper's hash function family (repro.core.hashing)."""

import gc
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hashing
from repro.core.config import IntervalSpec, ProfilerConfig
from repro.core.hashing import (HashFunctionFamily, TupleHashFunction, flip,
                                xor_fold)
from repro.core.multi_hash import MultiHashProfiler, build_profiler
from repro.core.single_hash import SingleHashProfiler

U64 = st.integers(min_value=0, max_value=2 ** 64 - 1)


class TestXorFold:
    def test_value_below_width_is_identity(self):
        assert xor_fold(0x1F, 9) == 0x1F

    def test_folds_chunks(self):
        # Two 8-bit chunks: 0xAB ^ 0xCD.
        assert xor_fold(0xABCD, 8) == 0xAB ^ 0xCD

    def test_zero(self):
        assert xor_fold(0, 11) == 0

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            xor_fold(5, 0)

    @given(U64, st.integers(min_value=1, max_value=30))
    def test_result_within_width(self, value, bits):
        assert 0 <= xor_fold(value, bits) < (1 << bits)

    @given(U64, U64, st.integers(min_value=1, max_value=30))
    def test_linear_over_xor(self, a, b, bits):
        # xor-fold is a GF(2)-linear map, so it distributes over XOR.
        assert (xor_fold(a, bits) ^ xor_fold(b, bits)
                == xor_fold(a ^ b, bits))


class TestFlip:
    def test_reverses_bytes(self):
        assert flip(0x0102030405060708) == 0x0807060504030201

    @given(U64)
    def test_involution(self, value):
        assert flip(flip(value)) == value

    def test_moves_low_byte_high(self):
        assert flip(0xFF) == 0xFF << 56


class TestTupleHashFunction:
    def test_index_in_range(self):
        function = TupleHashFunction(index_bits=9, seed=1)
        for event in [(0, 0), (0x1000, 42), (2 ** 64 - 1, 2 ** 64 - 1)]:
            assert 0 <= function(event) < 512

    def test_deterministic_per_seed(self):
        a = TupleHashFunction(9, seed=7)
        b = TupleHashFunction(9, seed=7)
        events = [(i * 8, i * i) for i in range(100)]
        assert [a(e) for e in events] == [b(e) for e in events]

    def test_different_seeds_differ(self):
        a = TupleHashFunction(9, seed=7)
        b = TupleHashFunction(9, seed=8)
        events = [(i * 8, i * i) for i in range(200)]
        assert [a(e) for e in events] != [b(e) for e in events]

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            TupleHashFunction(0, seed=1)
        with pytest.raises(ValueError):
            TupleHashFunction(31, seed=1)

    def test_distribution_is_balanced(self):
        # Section 5.3: "a very even distribution using the above hash
        # function".  Hash 8K distinct tuples into 256 buckets and check
        # occupancy against a loose chi-square-style bound.
        function = TupleHashFunction(8, seed=3)
        counts = [0] * 256
        for i in range(8192):
            counts[function((0x1000 + 8 * i, i * 2654435761))] += 1
        mean = 8192 / 256
        # Poisson-ish spread: no bucket wildly over- or under-loaded.
        assert max(counts) < mean * 2.2
        assert min(counts) > mean * 0.2

    @given(st.lists(st.tuples(U64, U64), min_size=1, max_size=50,
                    unique=True),
           st.integers(min_value=1, max_value=30), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_vectorized_matches_scalar(self, events, bits, wide):
        if wide:
            # Both fields at or above 2**48 keep every 16-bit chunk live.
            events = events + [(2 ** 64 - 1, 2 ** 48)]
        function = TupleHashFunction(bits, seed=11)
        pcs = np.array([e[0] for e in events], dtype=np.uint64)
        values = np.array([e[1] for e in events], dtype=np.uint64)
        vectorized = function.index_array(pcs, values).tolist()
        assert vectorized == [function(e) for e in events]


class TestHashFunctionFamily:
    def test_members_are_pairwise_independent_ish(self):
        family = HashFunctionFamily(index_bits=8, seed=42)
        first, second = family.take(2)
        events = [(i * 8, i) for i in range(1000)]
        collisions = sum(1 for e in events if first(e) == second(e))
        # Two independent 8-bit functions agree ~1/256 of the time.
        assert collisions < 1000 * (4 / 256)

    def test_reproducible(self):
        one = HashFunctionFamily(9, seed=5).take(3)
        two = HashFunctionFamily(9, seed=5).take(3)
        event = (0xDEAD, 0xBEEF)
        assert [f(event) for f in one] == [f(event) for f in two]

    def test_grows_lazily(self):
        family = HashFunctionFamily(9, seed=5)
        assert family[4].index_bits == 9
        assert len(family.take(5)) == 5

    def test_rejects_negative_index(self):
        with pytest.raises(IndexError):
            HashFunctionFamily(9)[(-1)]


class TestTableConstruction:
    """The NumPy table builds are bit-exact against scalar references."""

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_draw_matches_per_byte_getrandbits(self, seed):
        def reference(rng):
            return [[rng.getrandbits(8) for _ in range(256)]
                    for _ in range(8)]

        drawn, expected = random.Random(seed), random.Random(seed)
        for _ in range(2):  # back to back, as for the PC then value field
            assert hashing._draw_tables(drawn) == reference(expected)
        assert drawn.random() == expected.random()

    @pytest.mark.parametrize("index_bits", range(1, 31))
    def test_fold_tables_match_scalar_xor_fold(self, index_bits):
        function = TupleHashFunction(index_bits, seed=index_bits)
        fold_pc, fold_value, base = function._build_fold_tables()
        expected_base = 0
        for tables, fold, flipped in (
                (function._pc_tables, fold_pc, True),
                (function._value_tables, fold_value, False)):
            per_byte = []
            for position in range(8):
                placed = 7 - position if flipped else position
                per_byte.append(np.array(
                    [xor_fold(entry << (8 * placed), index_bits)
                     for entry in tables[position]], dtype=np.int32))
            for chunk in range(4):
                low, high = per_byte[2 * chunk], per_byte[2 * chunk + 1]
                table = low[np.newaxis, :] ^ high[:, np.newaxis]
                zero = int(table[0, 0])
                expected_base ^= zero
                assert np.array_equal(fold[chunk],
                                      (table ^ zero).reshape(-1))
        assert base == expected_base


SPEC = IntervalSpec(length=1_000, threshold=0.01)


def profiler_config(**overrides) -> ProfilerConfig:
    base = dict(interval=SPEC, total_entries=256, num_tables=1,
                retaining=False, resetting=True)
    base.update(overrides)
    return ProfilerConfig(**base)


class TestSharedFunctions:
    """One live function per ``(index_bits, seed)``, held only weakly."""

    def test_equal_single_hash_configs_share_one_function(self):
        one = build_profiler(profiler_config())
        two = build_profiler(profiler_config())
        assert one.hash_function is two.hash_function

    def test_equal_multi_hash_configs_share_all_functions(self):
        one = build_profiler(profiler_config(num_tables=4))
        two = build_profiler(profiler_config(num_tables=4))
        assert len(one.hash_functions) == 4
        assert all(a is b for a, b in zip(one.hash_functions,
                                           two.hash_functions))

    def test_different_seed_or_width_gets_a_different_function(self):
        base = build_profiler(profiler_config()).hash_function
        reseeded = build_profiler(profiler_config(hash_seed=1)).hash_function
        wider = build_profiler(
            profiler_config(total_entries=512)).hash_function
        assert reseeded is not base
        assert wider is not base and wider.index_bits == 9

    def test_explicit_functions_are_kept(self):
        function = TupleHashFunction(8, seed=0x5EED)
        single = SingleHashProfiler(profiler_config(),
                                    hash_function=function)
        assert single.custom_hash and single.hash_function is function
        functions = [TupleHashFunction(6, seed=s) for s in range(4)]
        multi = MultiHashProfiler(profiler_config(num_tables=4),
                                  hash_functions=functions)
        assert multi.custom_hash
        assert all(a is b for a, b in zip(multi.hash_functions, functions))

    def test_registry_forgets_dropped_seeds(self):
        # Seeds arrive in clients' open configs: dropping the profilers
        # must drop their functions and fold tables too.
        def build_and_hash(seed):
            profiler = build_profiler(profiler_config(hash_seed=seed))
            events = np.arange(4, dtype=np.uint64)
            profiler.hash_function.index_array(events, events)
            return profiler

        seeds = range(0xC11E47, 0xC11E47 + 100)
        profilers = [build_and_hash(seed) for seed in seeds]
        keys = [(8, hashing._derive_seed(seed, 0)) for seed in seeds]
        assert all(key in hashing._LIVE_FUNCTIONS for key in keys)
        del profilers
        gc.collect()
        assert not any(key in hashing._LIVE_FUNCTIONS for key in keys)

    def test_concurrent_first_use_hashes_correctly(self):
        # Threads racing on a function's first lookup and first
        # index_array may build twice; every caller must still hash
        # with complete, identical tables.
        events = np.arange(1, 2 ** 12, dtype=np.uint64) << np.uint64(40)
        reference = TupleHashFunction(
            11, seed=hashing._derive_seed(0xACE, 0)).index_array(events,
                                                                 events)
        results = []

        def hash_once():
            function = HashFunctionFamily(11, seed=0xACE)[0]
            results.append(function.index_array(events, events))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hash_once) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert all(np.array_equal(result, reference) for result in results)
