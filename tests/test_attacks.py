import random
from fractions import Fraction

import pytest

import gfref
from wideblock import attacks, field, modes
from wideblock.attacks import (
    AttackReport,
    DegenerateSample,
    HctrOracle,
    IdealPermutationOracle,
    IndexOutOfSpan,
    IterationBudgetExhausted,
    OracleFailure,
    hctr_distinguish,
    hctr_keydep_recover,
    hctr_recover_h,
    swap_blocks,
    weak_key_scan,
    xcb_cycling_forge,
)
from wideblock.field import FieldElement
from wideblock.modes import MXCBV1, XCBV1, XCBV2
from wideblock.polyhash import BitString, field_to_block, hctr_hash, parse_n

rng = random.Random(0xA77AC)


def rand_bits(nbits: int) -> BitString:
    return BitString.from_int(rng.getrandbits(nbits), nbits)


def fresh_hctr_keys():
    return modes.hctr_keys(rng.randbytes(32), factory=gfref.FeistelCipher)


class _BrokenOracle(attacks.EncryptionOracle):
    def encrypt(self, tweak, payload):
        return payload.msb(payload.bitlen - 1)  # not length preserving


class _ZeroOracle(attacks.EncryptionOracle):
    def encrypt(self, tweak, payload):
        return BitString.zeros(payload.bitlen)


# ---------------------------------------------------------------------------
# Distinguisher


def test_distinguisher_against_real_hctr():
    report = hctr_distinguish(HctrOracle(fresh_hctr_keys()), trials=3000, seed=5)
    assert report.trials == 3000
    assert 0.45 <= float(report.advantage_estimate) <= 0.55
    assert report.seed == 5


def test_distinguisher_against_ideal_permutation():
    report = hctr_distinguish(IdealPermutationOracle(3), trials=3000, seed=5)
    assert report.successes == 0


def test_distinguisher_against_fixed_hash():
    oracle = HctrOracle(fresh_hctr_keys(), fixed_hash=True)
    report = hctr_distinguish(oracle, trials=2000, seed=5)
    assert report.successes == 0


def test_distinguisher_flags_broken_oracles():
    with pytest.raises(OracleFailure):
        hctr_distinguish(_BrokenOracle(), trials=2, seed=0)


# ---------------------------------------------------------------------------
# Hash-key recovery through the oracle


def test_recover_h_is_exact():
    for i in range(20):
        keys = fresh_hctr_keys()
        report = hctr_recover_h(HctrOracle(keys), max_iters=40, seed=900 + i)
        assert report.successes == 1
        assert report.recovered_material == keys.h
        assert 1 <= report.trials <= 40


def test_recovered_zero_key_is_reported():
    """h = 0 is a recovered key like any other, not an absent one."""
    report = hctr_recover_h(HctrOracle(modes.hctr_keys(bytes(32))), max_iters=40, seed=3)
    assert report.successes == 1 and report.recovered_material == field.ZERO
    assert f"recovered {'0' * 32}" in report.serialize().splitlines()


def test_pad_one_inverse_literal():
    assert field.mul(attacks._PAD_ONE, attacks._PAD_ONE_INV) == field.ONE
    assert attacks._PAD_ONE_INV == gfref.inv(attacks._PAD_ONE)


def test_recover_h_iteration_count_is_geometric():
    totals = []
    for i in range(300):
        keys = fresh_hctr_keys()
        report = hctr_recover_h(HctrOracle(keys), max_iters=64, seed=5000 + i)
        totals.append(report.trials)
    mean = sum(totals) / len(totals)
    assert 1.5 <= mean <= 2.5


def test_recover_h_fails_against_fixed_hash():
    keys = fresh_hctr_keys()
    report = hctr_recover_h(HctrOracle(keys, fixed_hash=True), max_iters=40, seed=7)
    assert report.successes == 0
    assert report.recovered_material is None


def test_recover_h_budget_exhaustion():
    # an all-zero oracle never produces the needed 1 tail bit
    with pytest.raises(IterationBudgetExhausted):
        hctr_recover_h(_ZeroOracle(), max_iters=5, seed=0)


# ---------------------------------------------------------------------------
# Key-dependency recovery


def test_keydep_recovery_is_exact():
    for _ in range(20):
        keys = fresh_hctr_keys()
        while True:
            x = rand_bits(128)
            c = modes.hctr_encrypt(keys, BitString.empty(), x + x)
            try:
                recovered = hctr_keydep_recover(keys.k, x, c)
                break
            except DegenerateSample:
                continue
        assert recovered == keys.h


def test_keydep_recovered_key_predicts_fresh_pairs():
    keys = fresh_hctr_keys()
    x = rand_bits(128)
    c = modes.hctr_encrypt(keys, BitString.empty(), x + x)
    h = hctr_keydep_recover(keys.k, x, c)

    # with h and the compromised cipher key the full ciphertext of a fresh
    # y||y is predictable without querying anything
    y = rand_bits(128)
    cc = y ^ field_to_block(hctr_hash(h, y))
    e_cc = BitString(keys.k.encrypt_block(cc.data))
    s = cc ^ e_cc
    c2 = y ^ BitString(keys.k.encrypt_block((s ^ field_to_block(FieldElement(1))).data))
    c1 = e_cc ^ field_to_block(hctr_hash(h, c2))
    assert modes.hctr_encrypt(keys, BitString.empty(), y + y) == c1 + c2


def test_keydep_degenerate_sample():
    keys = fresh_hctr_keys()
    x = rand_bits(128)
    with pytest.raises(DegenerateSample):
        hctr_keydep_recover(keys.k, x, rand_bits(128) + x)


def test_keydep_validates_shapes():
    keys = fresh_hctr_keys()
    with pytest.raises(ValueError):
        hctr_keydep_recover(keys.k, rand_bits(64), rand_bits(256))


# ---------------------------------------------------------------------------
# Cycling forgery


def _weak_v2_keys(order):
    keys = modes.derive_keys_v2(rng.randbytes(16), factory=gfref.FeistelCipher)
    return modes.inject_subkeys(keys, h=field.element_of_order(order))


def _weak_v1_keys(order):
    keys = modes.derive_keys_v1(rng.randbytes(16), factory=gfref.FeistelCipher)
    weak = field.element_of_order(order)
    return modes.inject_subkeys(keys, h1=weak, h2=field.pow(weak, order - 1))


@pytest.mark.parametrize("order", [3, 5])
def test_cycling_forgery_xcbv2(order):
    keys = _weak_v2_keys(order)
    swap = (1, 1 + order)
    nblocks = swap[1] + 1
    for _ in range(5):
        tweak = rand_bits(128)
        p = BitString(rng.randbytes(16 * nblocks))
        c = modes.xcb_encrypt(XCBV2, keys, tweak, p)
        forged = xcb_cycling_forge(XCBV2, tweak, p, c, order, swap)
        assert forged == modes.xcb_encrypt(XCBV2, keys, tweak, swap_blocks(p, *swap))


@pytest.mark.parametrize("order", [3, 5])
def test_cycling_forgery_xcbv1(order):
    keys = _weak_v1_keys(order)
    swap = (2, 2 + order)
    nblocks = swap[1]
    for _ in range(5):
        tweak = rand_bits(128)
        p = BitString(rng.randbytes(16 * nblocks))
        c = modes.xcb_encrypt(XCBV1, keys, tweak, p)
        forged = xcb_cycling_forge(XCBV1, tweak, p, c, order, swap)
        assert forged == modes.xcb_encrypt(XCBV1, keys, tweak, swap_blocks(p, *swap))


def test_cycling_forgery_works_for_larger_multiples():
    order = 3
    keys = _weak_v2_keys(order)
    tweak = rand_bits(64)
    p = BitString(rng.randbytes(16 * 8))  # swap distance 6 = 2*order
    c = modes.xcb_encrypt(XCBV2, keys, tweak, p)
    forged = xcb_cycling_forge(XCBV2, tweak, p, c, order, (1, 7))
    assert forged == modes.xcb_encrypt(XCBV2, keys, tweak, swap_blocks(p, 1, 7))


def test_cycling_forgery_fails_for_honest_keys():
    keys = modes.derive_keys_v2(rng.randbytes(16), factory=gfref.FeistelCipher)
    for _ in range(10):
        tweak = rand_bits(64)
        p = BitString(rng.randbytes(16 * 5))
        c = modes.xcb_encrypt(XCBV2, keys, tweak, p)
        forged = xcb_cycling_forge(XCBV2, tweak, p, c, 3, (1, 4))
        assert forged != modes.xcb_encrypt(XCBV2, keys, tweak, swap_blocks(p, 1, 4))


def test_cycling_identity_swap():
    p = BitString(rng.randbytes(16 * 5))
    c = BitString(rng.randbytes(16 * 5))
    assert xcb_cycling_forge(XCBV2, BitString.empty(), p, c, 3, (2, 2)) == c


def test_cycling_span_checks():
    p = BitString(rng.randbytes(16 * 5))
    c = BitString(rng.randbytes(16 * 5))
    # v2's counter span excludes the last block, v1's the first
    with pytest.raises(IndexOutOfSpan):
        xcb_cycling_forge(XCBV2, BitString.empty(), p, c, 3, (2, 5))
    with pytest.raises(IndexOutOfSpan):
        xcb_cycling_forge(XCBV1, BitString.empty(), p, c, 3, (1, 4))
    with pytest.raises(ValueError):
        xcb_cycling_forge(XCBV2, BitString.empty(), p, c, 3, (1, 3))


def _swap_reference(data, i, j):
    blocks = parse_n(data)
    blocks[i - 1], blocks[j - 1] = blocks[j - 1], blocks[i - 1]
    out = BitString.empty()
    for b in blocks:
        out = out + b
    return out


@pytest.mark.parametrize("nbits", [128, 129, 256, 383, 640, 647])
def test_swap_blocks_matches_block_list_reference(nbits):
    data = rand_bits(nbits)
    full = nbits // 128
    for i in range(1, full + 1):
        for j in range(1, full + 1):
            swapped = swap_blocks(data, i, j)
            assert swapped == _swap_reference(data, i, j)
            # Built unchecked, so it must pass the checked constructor.
            assert BitString(swapped.data, swapped.bitlen) == swapped
    assert swap_blocks(data, 1, 1) is data
    m = -(-nbits // 128)
    for i, j in [(0, 1), (1, m + 1), (-1, 1)]:
        with pytest.raises(IndexOutOfSpan, match="out of range"):
            swap_blocks(data, i, j)
    if nbits % 128:
        with pytest.raises(IndexOutOfSpan, match="full 128-bit"):
            swap_blocks(data, 1, m)
        with pytest.raises(IndexOutOfSpan, match="full 128-bit"):
            swap_blocks(data, m, m)


def test_cycling_forge_is_counter_family_agnostic():
    order = 3
    keys = modes.derive_keys_v1(rng.randbytes(16), factory=gfref.FeistelCipher)
    weak = field.element_of_order(order)
    keys = modes.inject_subkeys(keys, h1=weak, h2=weak)
    tweak = rand_bits(64)
    p = BitString(rng.randbytes(16 * 6))
    c = modes.xcb_encrypt(MXCBV1, keys, tweak, p)
    forged = xcb_cycling_forge(MXCBV1, tweak, p, c, order, (2, 5))
    assert forged == modes.xcb_encrypt(MXCBV1, keys, tweak, swap_blocks(p, 2, 5))


# ---------------------------------------------------------------------------
# Weak-key scan and report plumbing


def test_weak_key_scan():
    report = weak_key_scan(field.element_of_order(17), max_order=100)
    assert report.recovered_order == 17
    assert report.successes == 1
    assert weak_key_scan(field.ONE, 10).recovered_order == 1
    random_h = FieldElement(rng.getrandbits(128) | 1)
    assert weak_key_scan(random_h, 1 << 20).recovered_order is None


def test_report_serialization_is_stable():
    report = AttackReport(
        attack_name="demo",
        trials=4,
        successes=2,
        advantage_estimate=Fraction(1, 2),
        seed=9,
        transcript=[("q", "r")],
    )
    text = report.serialize()
    assert text.splitlines() == [
        "attack demo",
        "seed 9",
        "trials 4",
        "successes 2",
        "advantage 1/2",
        "advantage_float 0.500000",
        "recovered none",
        "order none",
        "transcript[0] q -> r",
    ]
    assert report.successes <= report.trials
