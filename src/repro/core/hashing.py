"""The paper's hardware hash function family (Section 5.3).

For a tuple ``<pc, value>`` the hash index is computed as::

    npc   = flip(randomize(pc))
    nv    = randomize(value)
    index = xor_fold(npc ^ nv, index_bits)

where

* ``randomize`` substitutes every byte of its input through a 256-entry
  random number table (an S-box), magnifying the small variation between
  temporally-close PCs and values,
* ``flip`` reverses the byte order, moving the PC's variation into the
  high-order bytes so that XOR-ing with the value spreads entropy, and
* ``xor_fold(v, n)`` splits ``v`` into ``n``-bit chunks and XORs them
  down to an ``n``-bit table index.

The multi-hash architecture (Section 6) needs many *independent* hash
functions; per the paper these are obtained "by just choosing different
random number tables used by the function randomize".
:class:`HashFunctionFamily` derives any number of such functions from a
single seed.
"""

from __future__ import annotations

import random
import weakref
from typing import List, Sequence, Tuple

import numpy as np

from .tuples import FIELD_BITS, ProfileTuple

#: Bytes per hashed field (64-bit fields).
_FIELD_BYTES = FIELD_BITS // 8

#: Size of each random substitution table -- one entry per byte value.
RANDOM_TABLE_ENTRIES = 256


def xor_fold(value: int, index_bits: int) -> int:
    """Fold *value* down to ``index_bits`` bits by XOR-ing chunks.

    ``xor-fold(v, n) splits v into chunks of n-bits and xors those
    chunks to get the final value`` (Section 5.3).
    """
    if index_bits <= 0:
        raise ValueError(f"index_bits must be positive, got {index_bits}")
    mask = (1 << index_bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= index_bits
    return folded


def flip(value: int, width_bytes: int = _FIELD_BYTES) -> int:
    """Reverse the byte order of *value* (``flip(v)`` in the paper)."""
    flipped = 0
    for _ in range(width_bytes):
        flipped = (flipped << 8) | (value & 0xFF)
        value >>= 8
    return flipped


class TupleHashFunction:
    """One hardware hash function: ``xor_fold(flip(rand(pc)) ^ rand(value))``.

    The substitution tables would be hardwired into the table lookup in a
    real implementation; here they are derived deterministically from
    *seed* so experiments are reproducible.  A separate 256-entry byte
    table is drawn for every byte position of each field, which keeps the
    substitution a pure per-byte operation (implementable as eight
    parallel 256x8 ROMs per field) while decorrelating byte positions.

    Like those ROMs, a function is fixed once built.  Profilers get theirs
    from :class:`HashFunctionFamily`, which hands out one shared instance
    per ``(index_bits, seed)`` per process for as long as any holder keeps
    it alive (see :func:`shared_function`).

    Parameters
    ----------
    index_bits:
        Width of the produced index; the function addresses a table of
        ``2**index_bits`` counters.
    seed:
        Seed for the random number tables.  Functions built from
        different seeds are independent in the sense required by the
        multi-hash analysis of Section 6.2.
    """

    __slots__ = ("index_bits", "table_size", "_pc_tables", "_value_tables",
                 "_fold", "__weakref__")

    def __init__(self, index_bits: int, seed: int) -> None:
        if not 1 <= index_bits <= 30:
            raise ValueError(
                f"index_bits must be in [1, 30] for a realistic table, "
                f"got {index_bits}")
        self.index_bits = index_bits
        self.table_size = 1 << index_bits
        rng = random.Random(seed)
        self._pc_tables = _draw_tables(rng)
        self._value_tables = _draw_tables(rng)
        #: ``(fold_pc, fold_value, base)``, built on the first
        #: :meth:`index_array` call and assigned as one tuple, so threads
        #: sharing the function never see half of it.
        self._fold = None

    def randomize_pc(self, pc: int) -> int:
        """Apply the per-byte substitution to a PC field."""
        return _substitute(pc, self._pc_tables)

    def randomize_value(self, value: int) -> int:
        """Apply the per-byte substitution to a value field."""
        return _substitute(value, self._value_tables)

    def __call__(self, event: ProfileTuple) -> int:
        """Return the table index for *event*."""
        pc, value = event
        npc = flip(self.randomize_pc(pc))
        nv = self.randomize_value(value)
        return xor_fold(npc ^ nv, self.index_bits)

    def index_array(self, pcs: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__` over arrays of PCs and values.

        Used by trace preprocessing to hash a whole interval at once.
        Inputs must be ``uint64`` arrays of equal shape; the result is an
        ``int64`` array of table indices.

        The whole ``xor_fold(flip(rand(pc)) ^ rand(value))`` pipeline is
        XOR-linear in the per-byte substitutions, so it precomputes into
        one folded lookup table per 16-bit input chunk (zero-normalized:
        entry 0 is 0, with the all-zero-bytes contribution hoisted into a
        constant).  A chunk above the data's actual width then costs
        nothing, which collapses the usual case -- PCs and values far
        narrower than 64 bits -- to a couple of gathers and XORs.

        The fold tables (2 MiB: eight 64K-entry ``int32`` tables) are
        built on the first call, so once per process per
        ``(index_bits, seed)`` for functions from
        :class:`HashFunctionFamily`, and are shared by every profiler
        holding the function.
        """
        if self._fold is None:
            self._fold = self._build_fold_tables()
        fold_pc, fold_value, base = self._fold
        out = None
        mask = np.uint64(0xFFFF)
        for tables, field in ((fold_pc, pcs), (fold_value, values)):
            top = int(field.max()) if field.size else 0
            for chunk in range(_FIELD_BYTES // 2):
                if chunk and not top >> (16 * chunk):
                    break
                piece = (field if chunk == 0 and top < 0x10000
                         else (field >> np.uint64(16 * chunk)) & mask)
                gathered = tables[chunk].take(piece.astype(np.intp))
                if out is None:
                    out = gathered
                else:
                    out ^= gathered
        if base:
            out ^= np.int32(base)
        return out.astype(np.int64)

    def _build_fold_tables(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """Precompute the zero-normalized folded 16-bit chunk tables.

        Returns ``(fold_pc, fold_value, base)``: per field, a read-only
        ``(4, 65536)`` ``int32`` array whose row ``c`` maps input bits
        ``16c..16c+15`` to their folded contribution, plus the XOR of
        every table's all-zero entry.
        """
        positions = np.arange(_FIELD_BYTES, dtype=np.uint64)
        # flip() moves PC byte i to position 7 - i; values stay put.
        base = 0
        folds = []
        for tables, shifts in ((self._pc_tables,
                                8 * (_FIELD_BYTES - 1 - positions)),
                               (self._value_tables, 8 * positions)):
            placed = (np.array(tables, dtype=np.uint64)
                      << shifts[:, np.newaxis])
            per_byte = _xor_fold_array(placed, self.index_bits)
            # Zero-normalize each byte's row before pairing them up.
            base ^= int(np.bitwise_xor.reduce(per_byte[:, 0]))
            per_byte ^= per_byte[:, :1]
            low = per_byte[0::2]
            high = per_byte[1::2]
            fold = (low[:, np.newaxis, :] ^ high[:, :, np.newaxis]).reshape(
                _FIELD_BYTES // 2, -1)
            fold.setflags(write=False)
            folds.append(fold)
        return folds[0], folds[1], base


def _xor_fold_array(values: np.ndarray, index_bits: int) -> np.ndarray:
    """Element-wise :func:`xor_fold` of ``uint64`` *values*, as ``int32``."""
    mask = np.uint64((1 << index_bits) - 1)
    folded = np.zeros(values.shape, dtype=np.uint64)
    for shift in range(0, FIELD_BITS, index_bits):
        folded ^= (values >> np.uint64(shift)) & mask
    return folded.astype(np.int32)


def _draw_tables(rng: random.Random) -> List[List[int]]:
    """Draw one 256-entry random byte table per byte position.

    Bit for bit the same as ``rng.getrandbits(8)`` called once per entry,
    and leaves *rng* in the same state: for ``k <= 32`` CPython's
    ``getrandbits(k)`` is the next 32-bit Mersenne Twister word shifted
    right by ``32 - k``, and ``getrandbits(32 * n)`` packs the next ``n``
    words least significant first.
    """
    count = _FIELD_BYTES * RANDOM_TABLE_ENTRIES
    packed = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    words = np.frombuffer(packed, dtype="<u4")
    return (words >> 24).reshape(_FIELD_BYTES,
                                 RANDOM_TABLE_ENTRIES).tolist()


def _substitute(value: int, tables: Sequence[Sequence[int]]) -> int:
    """Per-byte substitution of *value* through per-position tables."""
    out = 0
    for position in range(_FIELD_BYTES):
        byte = (value >> (8 * position)) & 0xFF
        out |= tables[position][byte] << (8 * position)
    return out


class HashFunctionFamily:
    """A family of independent hash functions sharing one master seed.

    ``family[i]`` is the i-th function; the family grows lazily, so a
    multi-hash profiler with ``n`` tables simply takes ``family.take(n)``.
    Two families with the same seed produce identical functions, which
    makes profiler runs reproducible -- and while both are alive they
    produce the *same* function objects (:func:`shared_function`), so
    every profiler of one configuration shares one set of tables.
    """

    def __init__(self, index_bits: int, seed: int = 0x5EED) -> None:
        self.index_bits = index_bits
        self.seed = seed
        self._functions: List[TupleHashFunction] = []

    def __getitem__(self, position: int) -> TupleHashFunction:
        if position < 0:
            raise IndexError("hash function index must be non-negative")
        while len(self._functions) <= position:
            ordinal = len(self._functions)
            self._functions.append(
                shared_function(self.index_bits,
                                _derive_seed(self.seed, ordinal)))
        return self._functions[position]

    def take(self, count: int) -> List[TupleHashFunction]:
        """Return the first *count* functions of the family."""
        return [self[i] for i in range(count)]


#: Live functions by ``(index_bits, seed)``.  Weak-valued, so an entry
#: lasts exactly as long as some profiler holds the function: seeds that
#: clients choose cannot grow a process's memory past what its live
#: profilers already hold, and no size limit is needed.
_LIVE_FUNCTIONS: weakref.WeakValueDictionary[Tuple[int, int],
                                              TupleHashFunction] = (
    weakref.WeakValueDictionary())


def shared_function(index_bits: int, seed: int) -> TupleHashFunction:
    """Return this process's live ``TupleHashFunction(index_bits, seed)``.

    Builds it if no holder keeps one alive.  Concurrent first calls may
    both build; the builds are identical, so either result is correct.
    """
    key = (index_bits, seed)
    function = _LIVE_FUNCTIONS.get(key)
    if function is None:
        function = TupleHashFunction(index_bits, seed)
        _LIVE_FUNCTIONS[key] = function
    return function


def _derive_seed(master: int, ordinal: int) -> int:
    """Mix *ordinal* into *master* (splitmix64 finalizer)."""
    mixed = (master + 0x9E3779B97F4A7C15 * (ordinal + 1)) & (2 ** 64 - 1)
    mixed ^= mixed >> 30
    mixed = (mixed * 0xBF58476D1CE4E5B9) & (2 ** 64 - 1)
    mixed ^= mixed >> 27
    mixed = (mixed * 0x94D049BB133111EB) & (2 ** 64 - 1)
    mixed ^= mixed >> 31
    return mixed
