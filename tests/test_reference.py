"""Every fast path against the slow reference it replaced (``gfref``).

Field: the 4-bit table build, the 4-bit and 8-bit table kernels (also
around the block iterator's chunk size), generic ``mul``, squaring,
``pow``, ``inv``, ``sqrt`` and ``order_divisor``, and a key's tables
built on first use from eight threads at once.  Hashes: all three at
lengths 0-600 bits, at 127, 128 and 129 hashed blocks (either side of the
8-bit table threshold), around the chunk size and at 2-8 KiB, partial
blocks included, HCTR's hash of (payload, tweak) parts against the hash of
their join, and the block iterator's memory on 4 MiB.  ``BitString``:
XOR, ``lsb``, ``parse_n`` and concatenation at lengths 0-600.  Modes: all
six in both directions against the ``BitString``-level bodies, at
bit-granular payloads and tweaks.  Counter offsets: the closed-form
``W_r`` sets and counts against exhaustive enumeration at widths 1-12 and
against the full-depth carry-chain search up to width 64, and that search
against brute force.
"""

import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfref
from wideblock import analysis, field, modes, polyhash
from wideblock.field import FieldElement
from wideblock.polyhash import BitString, hctr_hash, parse_n, xcb_hash

elements = st.integers(min_value=0, max_value=(1 << 128) - 1).map(FieldElement)
nonzero = st.integers(min_value=1, max_value=(1 << 128) - 1).map(FieldElement)


@st.composite
def bit_strings(draw, min_bits=0, max_bits=600):
    nbits = draw(st.integers(min_value=min_bits, max_value=max_bits))
    return BitString.from_int(draw(st.integers(min_value=0, max_value=(1 << nbits) - 1)), nbits)


def random_bits(seed: int, nbits: int) -> BitString:
    return BitString.from_int(random.Random(seed).getrandbits(nbits), nbits)


#: 2-8 KiB bit strings, all hashed with the 8-bit table.
long_bit_strings = st.builds(
    random_bits, st.integers(min_value=0), st.integers(min_value=8 * 2048, max_value=8 * 8192)
)


# ---------------------------------------------------------------------------
# Field


@settings(max_examples=200, deadline=None)
@given(elements, elements)
def test_table_kernel(a, h):
    expect = gfref.mul(a, h)
    assert expect == gfref.mul_oracle(a, h)
    assert field._horner(h._mul_table, a.value, (0,)) == expect.value


@pytest.mark.parametrize("value", [0, 1, 1 << 127])
def test_key_table_edge_keys(value):
    assert FieldElement(value)._mul_table == gfref.key_table(FieldElement(value))


@settings(max_examples=50, deadline=None)
@given(elements)
def test_key_table(h):
    assert h._mul_table == gfref.key_table(h)


@settings(max_examples=30, deadline=None)
@given(elements, elements, st.integers(min_value=0, max_value=160), st.integers(min_value=0))
def test_byte_table_kernel(h, acc, blocks, seed):
    data = random.Random(seed).randbytes(16 * blocks)
    expect = field._horner(h._mul_table, acc.value, field._blocks((data,)))
    assert field._horner_bytes(h._byte_table, acc.value, field._blocks((data,))) == expect


_CHUNK = field._CHUNK_BLOCKS
_AROUND_CHUNKS = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


@pytest.mark.parametrize("blocks", _AROUND_CHUNKS)
def test_kernels_across_whole_chunks(blocks):
    """Both kernels, from a nonzero accumulator, over whole blocks split at
    and around the block iterator's chunk size: acc folds into the first
    block of the reference sum."""
    r = random.Random(blocks)
    h, acc = FieldElement(r.getrandbits(128)), r.getrandbits(128)
    data = r.randbytes(16 * blocks)
    folded = (int.from_bytes(data[:16], "big") ^ acc).to_bytes(16, "big") + data[16:]
    expect = gfref.xcb_hash_oracle(h, BitString(folded), BitString.empty(), False).value
    assert field._horner(h._mul_table, acc, field._blocks((data,))) == expect
    assert field._horner_bytes(h._byte_table, acc, field._blocks((data,))) == expect


@pytest.mark.parametrize("blocks", _AROUND_CHUNKS)
@pytest.mark.parametrize("tail_bits", [0, 1, 37, 127])
def test_hash_parts_across_whole_chunks(blocks, tail_bits):
    """``_hash`` over three parts: ``blocks`` blocks whose last one holds
    ``tail_bits`` bits (all 128 at 0), a part shorter than a block and a
    part of one block and one bit.  Each part is padded on its own."""
    r = random.Random(blocks * 128 + tail_bits)
    h = FieldElement(r.getrandbits(128))
    x = random_bits(r.getrandbits(32), 128 * (blocks - 1) + (tail_bits or 128))
    t = random_bits(r.getrandbits(32), 45)
    u = random_bits(r.getrandbits(32), 129)
    padded_x = gfref.concat(x, BitString.from_int(0, -x.bitlen % 128))
    expect = gfref.xcb_hash_oracle(h, gfref.concat(padded_x, t), u, False)
    assert field._hash(h, x.data, t.data, u.data) == expect.value


def test_block_iterator_holds_one_chunk_at_a_time():
    """Hashing 4 MiB allocates under 1 MiB beyond the input.  Under the
    zero key every product is the cached int 0, so what tracemalloc sees
    is the block iterator's own allocations, not the arithmetic's (about
    20 ints a block, which take a traced 4 MiB hash from 2 s to 9 s)."""
    h = FieldElement(0)
    assert h._byte_table  # built before tracing starts
    data = random.Random(4).randbytes(4 << 20)
    tracemalloc.start()
    try:
        assert field._hash(h, data, data[:5]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=200, deadline=None)
@given(elements, elements)
def test_mul(a, b):
    assert field.mul(a, b) == gfref.mul(a, b) == gfref.mul_oracle(a, b)


@settings(max_examples=200, deadline=None)
@given(elements)
def test_square(a):
    assert field.pow(a, 2) == gfref.mul(a, a)


@settings(max_examples=40, deadline=None)
@given(elements, st.integers(min_value=0, max_value=1 << 130))
def test_pow(a, e):
    assert field.pow(a, e) == gfref.pow(a, e)


@settings(max_examples=20, deadline=None)
@given(nonzero)
def test_inv(a):
    assert field.inv(a) == gfref.inv(a)


@settings(max_examples=20, deadline=None)
@given(elements)
def test_sqrt(a):
    assert field.sqrt(a) == gfref.sqrt(a)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([1, 3, 5, 15, 17, 51, 255, 257, 641]),
    st.integers(min_value=1, max_value=1 << 20),
    st.integers(min_value=0, max_value=1 << 12),
)
def test_order_divisor(order, k, max_order):
    """Powers of an element of small order have every order dividing it."""
    h = field.pow(field.element_of_order(order), k) if order > 1 else field.ONE
    assert field.order_divisor(h, max_order) == gfref.order_divisor(h, max_order)


@settings(max_examples=5, deadline=None)
@given(nonzero)
def test_order_divisor_random_key(h):
    assert field.order_divisor(h, 300) == gfref.order_divisor(h, 300)


def test_cached_table_leaves_the_element_unchanged():
    h = FieldElement(0x0123456789ABCDEF0123456789ABCDEF)
    twin = FieldElement(h.value)
    table = h._mul_table
    byte_table = h._byte_table
    assert h._mul_table is table
    assert h._byte_table is byte_table
    assert h == twin and hash(h) == hash(twin) and {h: 1}[twin] == 1
    assert h.value == twin.value and repr(h) == repr(twin)
    for name in ("value", "_mul_table", "_byte_table"):
        with pytest.raises(AttributeError):
            setattr(h, name, 0)
    assert h._mul_table is table
    assert h._byte_table is byte_table


def test_tables_built_on_first_use_from_several_threads():
    """Eight threads, released at once, each hash one input of at least
    ``BYTE_TABLE_BLOCKS`` blocks under one fresh key, so all race to build
    its tables, with the switch interval shortened so that they interleave.
    ``cached_property`` takes a lock on CPython 3.10-3.11 and none from
    3.12 on, where a table may be built more than once; either way every
    hash is right and a further hash reuses the kept tables."""
    h = FieldElement(random.Random(8).getrandbits(128))
    inputs = [random.Random(i).randbytes(16 * field.BYTE_TABLE_BLOCKS + 5 * i) for i in range(8)]
    barrier = threading.Barrier(len(inputs), timeout=30)
    results = [None] * len(inputs)

    def run(i):
        barrier.wait()
        results[i] = field._hash(h, inputs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expect = [
        gfref.xcb_hash_oracle(h, BitString(data), BitString.empty(), False).value
        for data in inputs
    ]
    assert results == expect
    tables = vars(h)["_mul_table"], vars(h)["_byte_table"]
    assert field._hash(h, inputs[0]) == expect[0]
    assert vars(h)["_mul_table"] is tables[0] and vars(h)["_byte_table"] is tables[1]


# ---------------------------------------------------------------------------
# Hashes


@settings(max_examples=60, deadline=None)
@given(elements, bit_strings(), bit_strings())
def test_xcb_hash(h, x, t):
    """``xcb_hash``, and its kernel without the length block."""
    assert xcb_hash(h, x, t) == gfref.xcb_hash_oracle(h, x, t)
    assert field._hash(h, x.data, t.data) == gfref.xcb_hash_oracle(h, x, t, False).value


@settings(max_examples=60, deadline=None)
@given(elements, bit_strings())
def test_hctr_hash(h, p):
    assert hctr_hash(h, p) == gfref.hctr_hash_oracle(h, p)


@settings(max_examples=60, deadline=None)
@given(elements, bit_strings())
def test_hctr_hash_fixed(h, p):
    appended = BitString.from_int(p.to_int() << 1 | 1, p.bitlen + 1)
    assert hctr_hash(h, p + BitString.from_int(1, 1)) == gfref.hctr_hash_oracle(h, appended)


#: Payload byte counts either side of a block and of a 4 KiB sector.
_HCTR_P_BYTES = [0, 1, 15, 16, 17, 31, 32, 33, 4079, 4080, 4081, 4095, 4096, 4097, 4112]


@settings(max_examples=60, deadline=None)
@given(
    elements,
    st.booleans(),
    st.sampled_from(_HCTR_P_BYTES),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=320),
    st.integers(min_value=0),
)
def test_hctr_hash_of_payload_and_tweak_parts(h, fixed, nbytes, short, t_bits, seed):
    """``_hctr_hash`` over the parts (p, t), p given as bytes or as a view,
    equals the reference hash of the joined p || t.  p is up to 7 bits short
    of whole bytes; t has 0-40 bytes, with a 1 bit appended if ``fixed``,
    as the repaired hash's modes append it."""
    p = random_bits(seed, max(8 * nbytes - short, 0))
    t = random_bits(seed + 1, t_bits)
    if fixed:
        t = gfref.concat(t, BitString.from_int(1, 1))
    expect = gfref.hctr_hash_oracle(h, gfref.concat(p, t)).value
    for data in (p.data, memoryview(p.data)):
        assert polyhash._hctr_hash(h, data, p.bitlen, t.data, t.bitlen) == expect


@pytest.mark.parametrize("blocks", [127, 128, 129])
@pytest.mark.parametrize("tail_bits", [0, 37])
def test_hashes_at_the_byte_table_threshold(blocks, tail_bits):
    """Inputs hashed as exactly ``blocks`` blocks, length block included,
    the last payload block full or holding ``tail_bits`` bits."""
    h = FieldElement(random.Random(blocks).getrandbits(128))
    p = random_bits(tail_bits, 128 * (blocks - 2) + (tail_bits or 128))
    assert hctr_hash(h, p) == gfref.hctr_hash_oracle(h, p)
    t = random_bits(1, 128)
    x = random_bits(2, p.bitlen - 128)
    assert xcb_hash(h, x, t) == gfref.xcb_hash_oracle(h, x, t)
    assert field._hash(h, x.data, p.data) == gfref.xcb_hash_oracle(h, x, p, False).value


def test_byte_table_is_built_from_the_threshold_on():
    """A 127-block hash call, longer than any attack demo makes, builds no
    8-bit table; a 128-block call builds it."""
    short_key, long_key = FieldElement(3), FieldElement(5)
    payload = BitString(bytes(16 * (field.BYTE_TABLE_BLOCKS - 2)))
    xcb_hash(short_key, payload, BitString.empty())
    hctr_hash(short_key, payload)
    assert "_mul_table" in vars(short_key) and "_byte_table" not in vars(short_key)
    hctr_hash(long_key, payload + payload.msb(128))
    assert "_byte_table" in vars(long_key)


@settings(max_examples=8, deadline=None)
@given(elements, long_bit_strings, bit_strings())
def test_xcb_hash_long(h, x, t):
    assert xcb_hash(h, x, t) == gfref.xcb_hash_oracle(h, x, t)
    assert field._hash(h, x.data, t.data) == gfref.xcb_hash_oracle(h, x, t, False).value


@settings(max_examples=8, deadline=None)
@given(elements, long_bit_strings)
def test_hctr_hashes_long(h, p):
    assert hctr_hash(h, p) == gfref.hctr_hash_oracle(h, p)
    appended = BitString.from_int(p.to_int() << 1 | 1, p.bitlen + 1)
    assert hctr_hash(h, p + BitString.from_int(1, 1)) == gfref.hctr_hash_oracle(h, appended)


# ---------------------------------------------------------------------------
# BitString


@st.composite
def equal_length_pairs(draw):
    a = draw(bit_strings(min_bits=1))
    b = BitString.from_int(draw(st.integers(min_value=0, max_value=(1 << a.bitlen) - 1)), a.bitlen)
    return a, b


@settings(max_examples=200, deadline=None)
@given(equal_length_pairs())
def test_xor(pair):
    a, b = pair
    assert a ^ b == gfref.xor(a, b)


@settings(max_examples=200, deadline=None)
@given(bit_strings(min_bits=1), st.data())
def test_lsb(x, data):
    r = data.draw(st.integers(min_value=0, max_value=x.bitlen))
    assert x.lsb(r) == gfref.lsb(x, r)


@settings(max_examples=200, deadline=None)
@given(bit_strings(min_bits=1))
def test_parse_n(x):
    assert parse_n(x) == gfref.parse_n(x)


@settings(max_examples=200, deadline=None)
@given(bit_strings(), bit_strings())
def test_concat(a, b):
    assert a + b == gfref.concat(a, b)


# ---------------------------------------------------------------------------
# Modes


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(modes.MODES)),
    st.binary(min_size=32, max_size=32),
    bit_strings(min_bits=128, max_bits=1500),
    bit_strings(max_bits=300),
    st.booleans(),
)
def test_modes_against_the_bitstring_bodies(name, master, payload, tweak, allow_partial):
    """Each mode's encryption and decryption of the payload equal the
    reference bodies'; the v2 variants refuse a partial payload unless
    allowed, as before."""
    mode = modes.MODES[name]
    keys = mode.derive(master[:16] if mode.scheme == "xcbv1" else master)
    if mode.scheme == "xcbv2" and payload.bitlen % 128 and not allow_partial:
        for encrypt in (True, False):
            with pytest.raises(modes.PartialBlockRejected):
                mode.crypt(keys, tweak, payload, encrypt, allow_partial)
        return
    for encrypt in (True, False):
        if mode.scheme == "hctr":
            expect = gfref.hctr_crypt(keys, tweak, payload, mode.fixed_hash, encrypt)
        else:
            expect = gfref.xcb_crypt(mode, keys, tweak, payload, encrypt)
        assert mode.crypt(keys, tweak, payload, encrypt, allow_partial) == expect


# ---------------------------------------------------------------------------
# Counter offsets


@pytest.mark.parametrize("width", range(1, 13))
def test_w_cardinalities_split_points(width):
    """Every W_r set over the full range, and the counts up to r_max on
    either side of 2^(w-1), the last r with a non-empty W_r."""
    table = gfref.compute_inc_sets(width, (1 << width) - 1)
    for r, expect in enumerate(table.w_sets):
        assert analysis.w_set(width, r) == expect
    full = table.w_cardinalities
    for r_max in sorted({0, 1, (1 << (width - 1)) - 1, 1 << (width - 1), (1 << width) - 1}):
        assert analysis.inc_set_counts(width, r_max) == list(full[: r_max + 1])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.data())
def test_w_cardinalities(width, data):
    r_max = data.draw(st.integers(min_value=0, max_value=(2 << width) + 3))
    expect = gfref.compute_inc_sets(width, r_max).w_cardinalities
    assert analysis.inc_set_counts(width, r_max) == list(expect)


def test_carry_class_offsets_w32_small_r():
    seen: set[int] = set()
    for r in range(600):
        ys = gfref.carry_class_offsets(32, r)
        assert analysis.w_set(32, r) == ys - seen
        seen |= ys


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.data())
def test_w_set_against_the_full_depth_search(width, data):
    r = data.draw(st.integers(min_value=0, max_value=40))
    earlier = set().union(*(gfref.carry_class_offsets(width, i) for i in range(r)))
    assert analysis.w_set(width, r) == gfref.carry_class_offsets(width, r) - earlier


def test_carry_class_offsets():
    """The full-depth search against brute force at every r for widths 1-7;
    widths 8 and 12 are checked in test_analysis."""
    for width in range(1, 8):
        for r in range(1 << width):
            assert gfref.carry_class_offsets(width, r) == gfref.exhaustive_offsets(width, r)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=128), st.integers(min_value=0, max_value=300))
def test_inc_set_counts_are_the_w_set_sizes(width, r_max):
    expect = [len(analysis.w_set(width, r)) for r in range(r_max + 1)]
    assert analysis.inc_set_counts(width, r_max) == expect
