import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfref import FeistelCipher, inc
from wideblock import field, modes
from wideblock.attacks import IdealPermutationOracle
from wideblock.blockcipher import BadKeyLength
from wideblock.field import FieldElement
from wideblock.modes import (
    MXCBV1,
    MXCBV2,
    VARIANTS,
    XCBV1,
    XCBV2,
    LengthBounds,
    Mode,
    PartialBlockRejected,
    TesKeySet,
    derive_keys_v1,
    derive_keys_v2,
    hctr_decrypt,
    hctr_encrypt,
    hctr_keys,
    inject_subkeys,
    xcb_decrypt,
    xcb_encrypt,
)
from wideblock.polyhash import BitString, field_to_block, xcb_hash

rng = random.Random(0xA0DE5)

V1_VARIANTS = [XCBV1, MXCBV1]
V2_VARIANTS = [XCBV2, MXCBV2]


def rand_bits(nbits: int) -> BitString:
    if nbits == 0:
        return BitString.empty()
    return BitString.from_int(rng.getrandbits(nbits), nbits)


def fresh_v1_keys():
    return derive_keys_v1(rng.randbytes(16), factory=FeistelCipher)


def fresh_v2_keys(klen=16):
    return derive_keys_v2(rng.randbytes(klen), factory=FeistelCipher)


def fresh_hctr_keys():
    return hctr_keys(rng.randbytes(32), factory=FeistelCipher)


# ---------------------------------------------------------------------------
# Key derivation


def test_derive_v1_replays_the_definition():
    master = bytes(16)
    em = FeistelCipher(master)
    keys = derive_keys_v1(master, factory=FeistelCipher)
    const = lambda b: bytes(15) + bytes([b])
    assert keys.h1 == FieldElement.from_bytes(em.encrypt_block(const(0x01)))
    assert keys.h2 == FieldElement.from_bytes(em.encrypt_block(const(0x03)))
    assert keys.ke.key == em.encrypt_block(const(0x00))
    assert keys.kd.key == em.encrypt_block(const(0x04))
    assert keys.kc.key == em.encrypt_block(const(0x02))


def test_derive_v1_distinct_masters_and_hash_keys():
    a = fresh_v1_keys()
    b = fresh_v1_keys()
    assert (a.h1, a.h2, a.ke.key) != (b.h1, b.h2, b.ke.key)
    assert a.h1 != a.h2  # images of distinct constants under a permutation


def test_derive_v1_rejects_non_128_bit_masters():
    with pytest.raises(BadKeyLength):
        derive_keys_v1(bytes(24), factory=FeistelCipher)


def test_derive_v2_128():
    master = rng.randbytes(16)
    em = FeistelCipher(master)
    keys = derive_keys_v2(master, factory=FeistelCipher)
    const = lambda b: bytes(15) + bytes([b])
    assert keys.h == FieldElement.from_bytes(em.encrypt_block(bytes(16)))
    # at 128 bits the leading-|K| truncation keeps only the first constant
    assert keys.ke.key == em.encrypt_block(const(0x01))
    assert keys.kd.key == em.encrypt_block(const(0x03))
    assert keys.kc.key == em.encrypt_block(const(0x05))


def test_derive_v2_256_uses_both_constants():
    master = rng.randbytes(32)
    em = FeistelCipher(master)
    keys = derive_keys_v2(master, factory=FeistelCipher)
    const = lambda b: bytes(15) + bytes([b])
    assert keys.ke.key == em.encrypt_block(const(0x01)) + em.encrypt_block(const(0x02))
    assert keys.kc.key == em.encrypt_block(const(0x05)) + em.encrypt_block(const(0x06))
    assert len(keys.kd.key) == 32


def test_derive_v2_192():
    keys = derive_keys_v2(rng.randbytes(24), factory=FeistelCipher)
    assert len(keys.ke.key) == 24


@pytest.mark.parametrize("derive,klen", [
    (derive_keys_v1, 16), (derive_keys_v2, 16), (derive_keys_v2, 24), (derive_keys_v2, 32),
])
def test_derivation_is_one_batch_call_on_the_master(derive, klen):
    """Each derivation enciphers its constants in one ``encrypt_blocks`` call
    on the master cipher, and makes no single-block call on any cipher."""
    made = []

    class Counting(FeistelCipher):
        def __init__(self, key):
            super().__init__(key)
            self.calls = Counter()
            made.append(self)

        def encrypt_block(self, block):
            self.calls["encrypt_block"] += 1
            return super().encrypt_block(block)

        def encrypt_blocks(self, data):
            # FeistelCipher's batch call loops over encrypt_block; a plain
            # twin keeps those inner calls out of the count.
            self.calls["encrypt_blocks"] += 1
            return FeistelCipher(self.key).encrypt_blocks(data)

    master = rng.randbytes(klen)
    keys = derive(master, factory=Counting)
    assert made[0].key == master and made[0].calls == {"encrypt_blocks": 1}
    assert [c.calls for c in made[1:]] == [Counter()] * 3
    assert {keys.ke.key, keys.kd.key, keys.kc.key} == {c.key for c in made[1:]}


# ---------------------------------------------------------------------------
# Round trips and length preservation


@pytest.mark.parametrize("variant", V1_VARIANTS + V2_VARIANTS)
@pytest.mark.parametrize("nbytes", [16, 32, 256, 4096])
def test_xcb_round_trip_bytes(variant, nbytes):
    keys = fresh_v1_keys() if variant.scheme == "xcbv1" else fresh_v2_keys()
    for _ in range(3):
        tweak = rand_bits(rng.choice([0, 64, 128, 256]))
        payload = BitString(rng.randbytes(nbytes))
        c = xcb_encrypt(variant, keys, tweak, payload)
        assert c.bitlen == payload.bitlen
        assert xcb_decrypt(variant, keys, tweak, c) == payload


@pytest.mark.parametrize("variant", V1_VARIANTS)
@pytest.mark.parametrize("nbits", [129, 255, 1000])
def test_xcb_v1_round_trip_bit_granular(variant, nbits):
    keys = fresh_v1_keys()
    tweak = rand_bits(40)  # tweaks may be bit-granular too
    payload = rand_bits(nbits)
    c = xcb_encrypt(variant, keys, tweak, payload)
    assert c.bitlen == nbits
    assert xcb_decrypt(variant, keys, tweak, c) == payload


@pytest.mark.parametrize("fixed", [False, True])
@pytest.mark.parametrize("nbits", [128, 129, 255, 256, 2048])
def test_hctr_round_trip(fixed, nbits):
    keys = fresh_hctr_keys()
    tweak = rand_bits(128)
    payload = rand_bits(nbits)
    c = hctr_encrypt(keys, tweak, payload, fixed_hash=fixed)
    assert c.bitlen == nbits
    assert hctr_decrypt(keys, tweak, c, fixed_hash=fixed) == payload


@pytest.mark.parametrize("seed", range(8))
def test_hctr_fix_is_hctr_under_the_tweak_with_a_1_bit_appended(seed):
    """The repaired hash hashes rest || T || 1, so hctr-fix under T is hctr
    under T || 1, in both directions: random AES master keys, tweaks of
    0-300 bits and payloads of 128-2,000 bits."""
    r = random.Random(seed)
    fix, plain = modes.MODES["hctr-fix"], modes.MODES["hctr"]
    one = BitString.from_int(1, 1)
    for _ in range(50):
        keys = fix.derive(r.randbytes(32))
        t_bits, p_bits = r.randrange(301), r.randrange(128, 2001)
        tweak = BitString.from_int(r.getrandbits(t_bits), t_bits)
        payload = BitString.from_int(r.getrandbits(p_bits), p_bits)
        for encrypt in (True, False):
            assert fix.crypt(keys, tweak, payload, encrypt, False) == plain.crypt(
                keys, tweak + one, payload, encrypt, False)


def _peak(call) -> int:
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _zero_hash_keys(mode: Mode) -> TesKeySet:
    """Derived keys with every hash key zero, which keeps the hash's products
    out of a trace (every one is the cached int 0)."""
    zero = FieldElement(0)
    hash_keys = {"h1": zero, "h2": zero} if mode.scheme == "xcbv1" else {"h": zero}
    return modes.inject_subkeys(mode.derive(random.Random(1).randbytes(16)), **hash_keys)


@pytest.mark.parametrize("name", ["hctr", "hctr-fix"])
def test_hctr_holds_no_joined_copy_of_the_payload(name):
    """A 1 MiB HCTR call allocates its output and the counter's output, and
    little beyond: both hashes read the payload in place and join only its
    partial last block to the tweak.  The zero hash key keeps the hash's
    products out of the trace."""
    mode = modes.MODES[name]
    keys = mode.derive(random.Random(1).randbytes(16) + bytes(16))
    payload = BitString(random.Random(2).randbytes(1 << 20))
    peak = _peak(lambda: mode.crypt(keys, BitString(b"\x00\x19"), payload, True, False))
    assert peak <= 2.5 * (1 << 20)


@pytest.mark.parametrize("name", list(modes.VARIANTS))
def test_xcb_reads_its_rest_in_place(name):
    """A 256 KiB XCB call allocates its output and the counter's output, and
    little beyond: the rest is a view of the payload, not a copy (about 2.2
    times the payload here; a copied rest makes it 3.2)."""
    mode = modes.MODES[name]
    keys = _zero_hash_keys(mode)
    payload = BitString(random.Random(2).randbytes(1 << 18))
    peak = _peak(lambda: mode.crypt(keys, BitString(b"\x00\x19"), payload, True, False))
    assert peak <= 2.5 * (1 << 18)


@pytest.mark.parametrize("name", ["xcbv2", "mxcbv2"])
def test_v2_rest_that_ends_inside_a_byte_is_not_copied(name):
    """A 2 MiB + 3 bit v2 call peaks, in either direction, within 1.1 times
    an encryption of 2 MiB exactly: its rest, which ends inside a byte, is
    hashed and counted in place, and the join of its output shifts only one
    byte.  A masked copy of the rest and a join through one whole-payload
    int made it 2.0."""
    mode = modes.MODES[name]
    keys = _zero_hash_keys(mode)
    raw = random.Random(2).randbytes(1 << 21)
    tweak, unaligned = BitString(b"\x00\x19"), BitString(raw + b"\xa0", (8 << 21) + 3)
    bound = 1.1 * _peak(lambda: mode.crypt(keys, tweak, BitString(raw), True, True))
    for encrypt in (True, False):
        assert _peak(lambda: mode.crypt(keys, tweak, unaligned, encrypt, True)) <= bound


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(list(modes.MODES)),
    st.integers(min_value=128, max_value=1200),
    st.integers(min_value=0, max_value=320),
    st.randoms(use_true_random=False),
)
def test_round_trip_property(name, nbits, tweak_bits, draw):
    """Every mode inverts itself at every bit length from one block up.  Each
    example also runs the leading 128 bits alone, where the counter layer is
    skipped; the v2 variants get the insecure-mode flag off block boundaries."""
    mode = modes.MODES[name]
    keys = mode.derive(draw.randbytes(32 if mode.scheme == "hctr" else 16))
    tweak = BitString.from_int(draw.getrandbits(tweak_bits), tweak_bits)
    payload = BitString.from_int(draw.getrandbits(nbits), nbits)
    for p in (payload.msb(128), payload):
        partial = p.bitlen % 128 != 0
        c = mode.crypt(keys, tweak, p, encrypt=True, allow_partial=partial)
        assert c.bitlen == p.bitlen
        assert mode.crypt(keys, tweak, c, encrypt=False, allow_partial=partial) == p


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(list(modes.MODES)),
    st.integers(min_value=128, max_value=700),
    st.integers(min_value=0, max_value=200),
    st.randoms(use_true_random=False),
)
def test_mode_outputs_meet_the_bitstring_invariants(name, nbits, tweak_bits, draw):
    """Mode outputs are assembled from cipher outputs and keystream without
    the constructor's checks; they must still pass them and hold bytes."""
    mode = modes.MODES[name]
    keys = mode.derive(draw.randbytes(32 if mode.scheme == "hctr" else 16))
    tweak = BitString.from_int(draw.getrandbits(tweak_bits), tweak_bits)
    payload = BitString.from_int(draw.getrandbits(nbits), nbits)
    partial = nbits % 128 != 0
    for encrypt in (True, False):
        out = mode.crypt(keys, tweak, payload, encrypt=encrypt, allow_partial=partial)
        assert type(out.data) is bytes
        assert BitString(out.data, out.bitlen) == out


# ---------------------------------------------------------------------------
# Hand traces


def test_xcb_v1_single_block_trace():
    keys = fresh_v1_keys()
    tweak = rand_bits(128)
    p1 = rand_bits(128)
    empty = BitString.empty()
    mm = (
        BitString(keys.ke.encrypt_block(p1.data))
        ^ field_to_block(xcb_hash(keys.h1, empty, tweak))
        ^ field_to_block(xcb_hash(keys.h2, empty, tweak))
    )
    expect = BitString(keys.kd.decrypt_block(mm.data))
    assert xcb_encrypt(XCBV1, keys, tweak, p1) == expect


def test_hctr_single_block_identity():
    # with an empty tweak both hash calls see the empty string, so
    # C1 = E_K(x xor h) xor h
    keys = fresh_hctr_keys()
    x = rand_bits(128)
    cc = x ^ field_to_block(keys.h)
    expect = BitString(keys.k.encrypt_block(cc.data)) ^ field_to_block(keys.h)
    assert hctr_encrypt(keys, BitString.empty(), x) == expect


def test_xcbv1_and_mxcbv1_differ_only_in_keystream():
    keys = fresh_v1_keys()
    tweak = rand_bits(64)
    p1 = rand_bits(128)
    zeros_tail = BitString.from_int(0, 3 * 128)
    payload = p1 + zeros_tail

    cc = BitString(keys.ke.encrypt_block(p1.data))
    s = cc ^ field_to_block(xcb_hash(keys.h1, zeros_tail, tweak))

    c_inc = xcb_encrypt(XCBV1, keys, tweak, payload)
    c_xor = xcb_encrypt(MXCBV1, keys, tweak, payload)

    counter = s
    for i in range(3):
        lo = 128 * (1 + i)
        ks_inc = BitString(keys.kc.encrypt_block(counter.data))
        counter = inc(counter)
        ks_xor = BitString(
            keys.kc.encrypt_block((s ^ BitString.from_int(i + 1, 128)).data)
        )
        assert c_inc.lsb(c_inc.bitlen - lo).msb(128) == ks_inc
        assert c_xor.lsb(c_xor.bitlen - lo).msb(128) == ks_xor


def test_tweak_variability():
    keys = fresh_v1_keys()
    payload = BitString(rng.randbytes(48))
    for _ in range(100):
        t1, t2 = rand_bits(64), rand_bits(64)
        if t1 == t2:
            continue
        assert xcb_encrypt(XCBV1, keys, t1, payload) != xcb_encrypt(
            XCBV1, keys, t2, payload
        )


def test_decrypt_under_wrong_tweak_garbles():
    keys = fresh_v2_keys()
    payload = BitString(rng.randbytes(64))
    for _ in range(20):
        t1, t2 = rand_bits(128), rand_bits(128)
        if t1 == t2:
            continue
        c = xcb_encrypt(XCBV2, keys, t1, payload)
        assert xcb_decrypt(XCBV2, keys, t2, c) != payload


def test_ciphertext_bit_flip_avalanche():
    keys = fresh_v1_keys()
    payload = BitString(rng.randbytes(32))
    tweak = rand_bits(128)
    c = xcb_encrypt(XCBV1, keys, tweak, payload)
    for flip_pos in (3, 130, 255):
        flipped = BitString.from_int(c.to_int() ^ (1 << flip_pos), c.bitlen)
        garbled = xcb_decrypt(XCBV1, keys, tweak, flipped)
        diff = garbled.to_int() ^ payload.to_int()
        assert bin(diff).count("1") > 16


# ---------------------------------------------------------------------------
# Bounds and flags


def test_payload_length_bounds():
    keys = fresh_v1_keys()
    with pytest.raises(LengthBounds):
        xcb_encrypt(XCBV1, keys, BitString.empty(), rand_bits(64))
    hkeys = fresh_hctr_keys()
    with pytest.raises(LengthBounds):
        hctr_encrypt(hkeys, BitString.empty(), rand_bits(127))


def test_v2_rejects_partial_blocks_by_default():
    keys = fresh_v2_keys()
    payload = rand_bits(200)
    with pytest.raises(PartialBlockRejected):
        xcb_encrypt(XCBV2, keys, BitString.empty(), payload)
    with pytest.raises(PartialBlockRejected):
        xcb_decrypt(MXCBV2, keys, BitString.empty(), payload)
    # the opt-in flag enables the regime anyway, and it still round-trips
    c = xcb_encrypt(XCBV2, keys, BitString.empty(), payload, allow_partial=True)
    assert c.bitlen == 200
    assert xcb_decrypt(XCBV2, keys, BitString.empty(), c, allow_partial=True) == payload


@pytest.mark.parametrize("rest_bits,zero_bits", [(261, 1), (8 * 37, 8)])
@pytest.mark.parametrize("name,agreements", [
    ("xcbv2", 200), ("mxcbv2", 200), ("xcbv1", 0), ("mxcbv1", 0), ("hctr", 0), ("hctr-fix", 0),
    ("ideal", 0),
])
def test_v2_distinguisher_off_block_boundaries(name, agreements, rest_bits, zero_bits):
    """v2's first hash takes the rest's padded length, so a rest A and
    A || 0^j that pad alike hash alike: enciphered with the same special
    block B under one tweak, A || B and A || 0^j || B share S and so agree
    on their first |A| bits, for every key.  Under the other modes and an
    ideal permutation they agree for none of 200 keys."""
    pad = BitString.from_int(0, zero_bits)
    hits = 0
    for i in range(200):
        if name == "ideal":
            encrypt = IdealPermutationOracle(i).encrypt
        else:
            mode = modes.MODES[name]
            keys = mode.derive(rng.randbytes(32 if mode.scheme == "hctr" else 16))
            encrypt = lambda tweak, payload: mode.crypt(keys, tweak, payload, True, True)
        a, b, tweak = rand_bits(rest_bits), rand_bits(128), rand_bits(64)
        hits += encrypt(tweak, a + b).msb(rest_bits) == encrypt(tweak, a + pad + b).msb(rest_bits)
    assert hits == agreements


def test_scheme_keyset_mismatch():
    with pytest.raises(ValueError):
        xcb_encrypt(XCBV2, fresh_v1_keys(), BitString.empty(), rand_bits(256))


# ---------------------------------------------------------------------------
# Subkey injection


def test_inject_nothing_is_identity():
    keys = fresh_v2_keys()
    assert inject_subkeys(keys) is keys


def test_inject_replaces_the_key_the_mode_uses():
    keys = fresh_v2_keys()
    weak = field.element_of_order(3)
    injected = inject_subkeys(keys, h=weak)
    assert injected.h == weak
    assert injected.ke is keys.ke
    # the injected key set is what the mode actually uses
    payload = BitString(rng.randbytes(48))
    assert xcb_encrypt(XCBV2, injected, BitString.empty(), payload) != xcb_encrypt(
        XCBV2, keys, BitString.empty(), payload
    )


def test_inject_unknown_field_rejected():
    with pytest.raises(TypeError):
        inject_subkeys(fresh_v2_keys(), nonsense=1)


@pytest.mark.parametrize("name", ["scheme"])
def test_inject_rejects_non_subkey_fields(name):
    with pytest.raises(TypeError):
        inject_subkeys(fresh_v2_keys(), **{name: 1})


def test_inject_keeps_untouched_subkeys_as_the_same_objects():
    keys = fresh_v1_keys()
    weak = field.element_of_order(3)
    injected = inject_subkeys(keys, h1=weak)
    assert type(injected) is TesKeySet
    assert injected.h1 is weak
    for name in ("scheme", "h2", "h", "ke", "kd", "kc", "k"):
        assert getattr(injected, name) is getattr(keys, name)


# ---------------------------------------------------------------------------
# Key sets and modes are named tuples


@pytest.mark.parametrize("obj,name", [
    (XCBV1, "scheme"),
    (MXCBV2, "inc32"),
    (hctr_keys(bytes(32), factory=FeistelCipher), "h"),
])
def test_fields_cannot_be_assigned(obj, name):
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(obj, name))


def test_variant_repr():
    assert repr(XCBV1) == "Mode(name='xcbv1', scheme='xcbv1', inc32=True, fixed_hash=False)"


def test_variants_hash_and_compare_by_value():
    assert VARIANTS == {"xcbv1": XCBV1, "xcbv2": XCBV2, "mxcbv1": MXCBV1, "mxcbv2": MXCBV2}
    assert list(modes.MODES) == [*VARIANTS, "hctr", "hctr-fix"]
    by_mode = {m: name for name, m in modes.MODES.items()}
    assert by_mode[Mode("mxcbv2", "xcbv2")] == "mxcbv2"
    assert by_mode[Mode("hctr-fix", "hctr", fixed_hash=True)] == "hctr-fix"
    assert len(by_mode) == 6
    # A mode is a tuple of its fields, and unpacks as one.
    name, scheme, inc32, fixed_hash = XCBV2
    assert (name, scheme, inc32, fixed_hash) == XCBV2 == ("xcbv2", "xcbv2", True, False)


@pytest.mark.parametrize("name", ["hctr", "hctr-fix"])
def test_xcb_body_rejects_an_hctr_mode(name):
    """An HCTR ``Mode`` is refused by the XCB body even with HCTR keys."""
    keys = fresh_hctr_keys()
    payload = BitString(bytes(32))
    for fn in (xcb_encrypt, xcb_decrypt):
        with pytest.raises(ValueError, match="not an XCB mode"):
            fn(modes.MODES[name], keys, BitString.empty(), payload)


def test_counter_span_and_special_block():
    """v2 keeps its special block last; v1 and HCTR keep it first."""
    last = {name for name, mode in modes.MODES.items() if mode.special_last}
    assert last == {"xcbv2", "mxcbv2"}
    for mode in modes.MODES.values():
        assert mode.counter_span(5) == (range(1, 5) if mode.special_last else range(2, 6))


def test_hctr_keys_split():
    master = rng.randbytes(32)
    keys = hctr_keys(master, factory=FeistelCipher)
    assert keys.k.key == master[:16]
    assert keys.h == FieldElement.from_bytes(master[16:])
    with pytest.raises(BadKeyLength):
        hctr_keys(rng.randbytes(16), factory=FeistelCipher)
