"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, not calibrated elsewhere.
"""

import random

import pytest

from gfref import check_field_laws, compute_inc_sets, mul_oracle
from wideblock import attacks, field, modes
from wideblock.analysis import (
    DEFAULT_PARAMS,
    inc_set_counts,
    sample_w32,
    table1_report,
)
from wideblock.attacks import (
    HctrOracle,
    IdealPermutationOracle,
    hctr_distinguish,
    hctr_keydep_recover,
    hctr_recover_h,
    swap_blocks,
    xcb_cycling_forge,
)
from wideblock.field import FieldElement
from wideblock.modes import (
    MXCBV1,
    MXCBV2,
    XCBV1,
    XCBV2,
    derive_keys_v1,
    derive_keys_v2,
    hctr_decrypt,
    hctr_encrypt,
    hctr_keys,
    inject_subkeys,
    xcb_decrypt,
    xcb_encrypt,
)
from wideblock.polyhash import BitString, hctr_hash, hctr_hash_fixed

# Frozen by the exhaustive pre-build oracle at width 8, r <= 255.
WIDTH8_WMAX = 8


def _report(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def _rand_bits(rng: random.Random, nbits: int) -> BitString:
    return BitString.from_int(rng.getrandbits(nbits), nbits)


def test_criterion_1_round_trips():
    rng = random.Random(101)
    byte_lengths = [16] * 40 + [32] * 30 + [256] * 20 + [4096] * 10
    bit_lengths = [129] * 5 + [255] * 5
    failures = 0
    cases = 0

    def check(encrypt, decrypt):
        nonlocal failures, cases
        for nbytes in byte_lengths:
            tweak = BitString(rng.randbytes(rng.choice([0, 8, 16])))
            payload = BitString(rng.randbytes(nbytes))
            c = encrypt(tweak, payload)
            cases += 1
            failures += not (c.bitlen == payload.bitlen and decrypt(tweak, c) == payload)

    def check_bits(encrypt, decrypt):
        nonlocal failures, cases
        for nbits in bit_lengths:
            tweak = BitString(rng.randbytes(8))
            payload = _rand_bits(rng, nbits)
            c = encrypt(tweak, payload)
            cases += 1
            failures += not (c.bitlen == payload.bitlen and decrypt(tweak, c) == payload)

    for variant in (XCBV1, MXCBV1):
        keys = derive_keys_v1(rng.randbytes(16))
        enc = lambda t, p: xcb_encrypt(variant, keys, t, p)
        dec = lambda t, c: xcb_decrypt(variant, keys, t, c)
        check(enc, dec)
        check_bits(enc, dec)
    for variant in (XCBV2, MXCBV2):
        keys = derive_keys_v2(rng.randbytes(16))
        check(
            lambda t, p: xcb_encrypt(variant, keys, t, p),
            lambda t, c: xcb_decrypt(variant, keys, t, c),
        )
    for fixed in (False, True):
        keys = hctr_keys(rng.randbytes(32))
        enc = lambda t, p: hctr_encrypt(keys, t, p, fixed_hash=fixed)
        dec = lambda t, c: hctr_decrypt(keys, t, c, fixed_hash=fixed)
        check(enc, dec)
        check_bits(enc, dec)

    _report(1, "round-trip correctness", failures == 0, f"{cases - failures}/{cases} cases")


def test_criterion_2_bound_table():
    reference = {
        "tet": -50.40,
        "hctr": -49.81,
        "cmc": -49.18,
        "eme": -49.18,
        "heh": -47.66,
        "xcb-2007": -48.96,
        "xcbv2fb-old": -29.98,
        "xcbv1-old-table": -29.98,
        "xcbv2fb-repaired": -46.78,
        "xcbv1-repaired": -46.87,
        "mxcbv2fb": -51.99,
        "mxcbv1": -51.99,
    }
    table = table1_report(DEFAULT_PARAMS)
    worst = max(abs(row.advantage_log2 - reference[row.scheme]) for row in table.rows)
    _report(
        2,
        "bound-table reproduction",
        len(table.rows) == 12 and worst <= 0.05,
        f"max |delta log2| = {worst:.4f} over {len(table.rows)} rows",
    )


def test_criterion_3_distinguisher():
    rng = random.Random(303)
    keys = hctr_keys(rng.randbytes(32))
    real = hctr_distinguish(HctrOracle(keys), trials=10_000, seed=303)
    rate = float(real.advantage_estimate)
    ideal = hctr_distinguish(IdealPermutationOracle(304), trials=10_000, seed=303)
    _report(
        3,
        "distinguisher",
        0.48 <= rate <= 0.52 and ideal.successes == 0,
        f"real rate {rate:.4f}, ideal collisions {ideal.successes}",
    )


def test_criterion_4_hash_key_recovery():
    rng = random.Random(404)
    recovered = 0
    iterations = []
    for _ in range(100):
        keys = hctr_keys(rng.randbytes(32))
        report = hctr_recover_h(HctrOracle(keys), max_iters=40, seed=rng.getrandbits(32))
        recovered += report.recovered_material == keys.h
        iterations.append(report.trials)
    mean = sum(iterations) / len(iterations)
    _report(
        4,
        "hash-key recovery",
        recovered == 100 and 1.5 <= mean <= 2.5,
        f"{recovered}/100 exact, mean iterations {mean:.2f}",
    )


def test_criterion_5_key_dependency_recovery():
    rng = random.Random(505)
    recovered = 0
    for _ in range(100):
        keys = hctr_keys(rng.randbytes(32))
        while True:
            x = _rand_bits(rng, 128)
            c = hctr_encrypt(keys, BitString.empty(), x + x)
            try:
                h = hctr_keydep_recover(keys.k, x, c)
                break
            except attacks.DegenerateSample:
                continue  # resample on the measure-zero x == C2 case
        recovered += h == keys.h
    _report(5, "key-dependency recovery", recovered == 100, f"{recovered}/100 exact")


def test_criterion_6_cycling_forgery():
    rng = random.Random(606)
    good = 0
    total = 0
    for order in (3, 5, 17):
        weak = field.element_of_order(order)
        swap = (1, 1 + order)
        keys2 = inject_subkeys(derive_keys_v2(rng.randbytes(16)), h=weak)
        keys1 = inject_subkeys(derive_keys_v1(rng.randbytes(16)), h1=weak, h2=weak)
        for _ in range(50):
            tweak = _rand_bits(rng, 128)
            p = BitString(rng.randbytes(16 * (swap[1] + 1)))
            c = xcb_encrypt(XCBV2, keys2, tweak, p)
            forged = xcb_cycling_forge(XCBV2, tweak, p, c, order, swap)
            good += forged == xcb_encrypt(XCBV2, keys2, tweak, swap_blocks(p, *swap))
            total += 1

            swap1 = (2, 2 + order)
            p = BitString(rng.randbytes(16 * swap1[1]))
            c = xcb_encrypt(XCBV1, keys1, tweak, p)
            forged = xcb_cycling_forge(XCBV1, tweak, p, c, order, swap1)
            good += forged == xcb_encrypt(XCBV1, keys1, tweak, swap_blocks(p, *swap1))
            total += 1

    honest_failures = 0
    for _ in range(100):
        keys = derive_keys_v2(rng.randbytes(16))
        tweak = _rand_bits(rng, 128)
        p = BitString(rng.randbytes(16 * 5))
        c = xcb_encrypt(XCBV2, keys, tweak, p)
        forged = xcb_cycling_forge(XCBV2, tweak, p, c, 3, (1, 4))
        honest_failures += forged != xcb_encrypt(XCBV2, keys, tweak, swap_blocks(p, 1, 4))

    _report(
        6,
        "cycling forgery",
        good == total == 300 and honest_failures == 100,
        f"{good}/{total} weak-key forgeries valid, {honest_failures}/100 honest-key forgeries fail",
    )


def test_criterion_6_cycling_forgery_on_hctr():
    """The same forgery on HCTR with either hash, whose one hash key is the
    master key's second half: no subkey is injected.  Payloads may end in a
    partial block; the first swap of each group moves the last full block
    before it, and tweaks of 0-39 bits join the payload's last block."""
    rng = random.Random(616)
    good = 0
    total = 0
    for order in (3, 5, 17):
        weak = field.element_of_order(order)
        for name in ("hctr", "hctr-fix"):
            mode = modes.MODES[name]
            keys = mode.derive(rng.randbytes(16) + weak.to_bytes())
            assert keys.h == weak
            for trial in range(50):
                full = order + 2 + rng.randrange(4)
                tail = rng.randrange(1, 128) if trial == 0 else rng.randrange(128)
                i = full - order if trial == 0 else rng.randrange(2, full - order + 1)
                tweak = _rand_bits(rng, rng.randrange(40))
                p = _rand_bits(rng, 128 * full + tail)
                c = mode.crypt(keys, tweak, p, True, False)
                j = i + order
                forged = xcb_cycling_forge(mode, tweak, p, c, order, (i, j))
                good += forged == mode.crypt(keys, tweak, swap_blocks(p, i, j), True, False)
                total += 1

    honest_failures = 0
    for name in ("hctr", "hctr-fix") * 50:
        mode = modes.MODES[name]
        keys = mode.derive(rng.randbytes(32))
        tweak = _rand_bits(rng, rng.randrange(40))
        p = _rand_bits(rng, 128 * 5 + rng.randrange(128))
        c = mode.crypt(keys, tweak, p, True, False)
        forged = xcb_cycling_forge(mode, tweak, p, c, 3, (2, 5))
        honest_failures += forged != mode.crypt(keys, tweak, swap_blocks(p, 2, 5), True, False)
    # Block 1 is HCTR's special block, outside the counter span.
    with pytest.raises(attacks.IndexOutOfSpan):
        xcb_cycling_forge(modes.MODES["hctr"], tweak, p, c, 3, (1, 4))

    _report(
        6,
        "cycling forgery on HCTR",
        good == total == 300 and honest_failures == 100,
        f"{good}/{total} weak-key forgeries valid, {honest_failures}/100 honest-key forgeries fail",
    )


def test_criterion_7_hash_collision_and_fix():
    rng = random.Random(707)
    empty = BitString.empty()
    zero_bit = BitString.from_int(0, 1)
    collisions = 0
    separations = 0
    for _ in range(1000):
        h = FieldElement(rng.getrandbits(128) | 1)  # nonzero
        collisions += (
            hctr_hash(h, empty) == hctr_hash(h, zero_bit) == h
        )
        separations += hctr_hash_fixed(h, empty) != hctr_hash_fixed(h, zero_bit)
    _report(
        7,
        "hash collision and fix",
        collisions == 1000 and separations == 1000,
        f"collision {collisions}/1000, fixed-hash separation {separations}/1000",
    )


def test_criterion_8_inc_sets():
    table = compute_inc_sets(width=8, r_max=255)
    union_w: set[int] = set()
    union_y: set[int] = set()
    partition_ok = True
    for r in range(256):
        if table.w_sets[r] & union_w:
            partition_ok = False
        union_w |= table.w_sets[r]
        union_y |= table.y_sets[r]
        if union_w != union_y:
            partition_ok = False
    membership_ok = all(
        (((x + r) & 0xFF) ^ x) in table.y_sets[r] for r in range(256) for x in range(256)
    )
    counts = inc_set_counts(8, 255)
    wide = sample_w32(r_max=1 << 10)
    _report(
        8,
        "inc-set analysis",
        partition_ok
        and membership_ok
        and table.w_max == WIDTH8_WMAX
        and counts == list(table.w_cardinalities)
        and max(counts) == WIDTH8_WMAX
        and wide.w_max_observed <= 32,
        f"width-8 w_max {table.w_max}, closed form {max(counts)} (frozen {WIDTH8_WMAX}), "
        f"width-32 max w_r {wide.w_max_observed} over r<=1024",
    )


def test_criterion_9_field_suite():
    rng = random.Random(909)
    check_field_laws(rng, 10_000)
    oracle_ok = all(
        field.mul(a, b) == mul_oracle(a, b)
        for a, b in (
            (FieldElement(rng.getrandbits(128)), FieldElement(rng.getrandbits(128)))
            for _ in range(1000)
        )
    )
    sqrt_ok = all(
        field.sqrt(field.square(a)) == a and field.square(field.sqrt(a)) == a
        for a in (FieldElement(rng.getrandbits(128)) for _ in range(1000))
    )
    order_ok = True
    for r in (3, 5, 17, 257):
        t = field.element_of_order(r)
        order_ok &= field.pow(t, r) == field.ONE
        order_ok &= all(
            field.pow(t, d) != field.ONE for d in range(1, r) if r % d == 0
        )
    _report(
        9,
        "field suite",
        oracle_ok and sqrt_ok and order_ok,
        "laws 10^4 cases, oracle 10^3 pairs, sqrt bijection 10^3, orders exact",
    )
