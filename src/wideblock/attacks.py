"""Executable attacks against the enciphering modes.

Everything here plays by oracle rules: attack code sees only the encryption
boundary of a hidden key set and judges success from responses alone.  The
harness (tests, CLI) holds the hidden keys and checks recovered material.

Implemented attacks:

* HCTR distinguisher -- exploits the hash collision between the empty
  string and a single 0 bit to force an internal counter collision; the
  first ciphertext blocks of an n-bit and an (n+1)-bit query then collide
  with probability 1/2, which no random permutation family approaches.
* HCTR hash-key recovery -- the same query pair with a 1 tail bit instead
  leaks pad(1)*h^2 as the XOR of the two first blocks, giving h after one
  constant division and a square root (unique in characteristic 2).
* HCTR key-dependency recovery -- with the block-cipher key compromised,
  a single known plaintext of the form x||x pins (x xor C2)*h^2 to a
  computable constant, solved exactly for the hash key.
* Cycling forgery -- with a hash key of small multiplicative order t,
  swapping plaintext blocks at distance t leaves both hash layers fixed,
  so the keystream recovered from one known pair re-encrypts the swapped
  message without the key.  Every mode's hashes are Horner sums in their
  key, so it forges HCTR too, with the repaired hash or without.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Optional

from . import field, modes
from .blockcipher import BlockCipher
from .field import FieldElement
from .modes import Mode, TesKeySet
from .polyhash import BLOCK_BITS, BitString, block_to_field, field_to_block, hctr_hash

# pad of a single 1 bit: the x^127 monomial, and its inverse x^-127
_PAD_ONE = FieldElement(1 << 127)
_PAD_ONE_INV = FieldElement(0xB604395D27EF1A8B604395D27EF1A8EE)

_ZERO_BIT = BitString.from_int(0, 1)
_EMPTY = BitString.empty()


class OracleFailure(RuntimeError):
    """Raised when an oracle responds with the wrong shape or raises."""


class IterationBudgetExhausted(RuntimeError):
    """Raised when an iterative attack runs out of its query budget."""


class DegenerateSample(ValueError):
    """Raised on the measure-zero sample an algebraic attack cannot use."""


class IndexOutOfSpan(ValueError):
    """Raised when a forgery names blocks outside the counter-covered span."""


class AttackReport(NamedTuple):
    """Structured outcome of one attack run."""

    attack_name: str
    trials: int
    successes: int
    advantage_estimate: Fraction
    recovered_material: Optional[FieldElement] = None
    recovered_order: Optional[int] = None
    seed: Optional[int] = None
    transcript: tuple[tuple[str, str], ...] = ()

    def serialize(self) -> str:
        """Line-oriented key/value form with a stable field order."""
        found = self.recovered_material
        lines = [
            f"attack {self.attack_name}",
            f"seed {self.seed if self.seed is not None else 'none'}",
            f"trials {self.trials}",
            f"successes {self.successes}",
            f"advantage {self.advantage_estimate.numerator}/{self.advantage_estimate.denominator}",
            f"advantage_float {float(self.advantage_estimate):.6f}",
            f"recovered {found.to_hex() if found is not None else 'none'}",
            f"order {self.recovered_order if self.recovered_order is not None else 'none'}",
        ]
        for i, (q, r) in enumerate(self.transcript):
            lines.append(f"transcript[{i}] {q} -> {r}")
        return "\n".join(lines)


class EncryptionOracle:
    """Boundary an adversary queries: tweak and payload in, ciphertext out."""

    def encrypt(self, tweak: BitString, payload: BitString) -> BitString:
        raise NotImplementedError


class HctrOracle(EncryptionOracle):
    """Encryption boundary of a hidden HCTR key set."""

    def __init__(self, keys: TesKeySet, fixed_hash: bool = False):
        self._keys = keys
        self._fixed_hash = fixed_hash

    def encrypt(self, tweak: BitString, payload: BitString) -> BitString:
        return modes.hctr_encrypt(self._keys, tweak, payload, fixed_hash=self._fixed_hash)


class IdealPermutationOracle(EncryptionOracle):
    """Lazily sampled random length-preserving tweak-indexed permutation."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._maps: dict[tuple[bytes, int, int], dict[BitString, BitString]] = {}
        self._used: dict[tuple[bytes, int, int], set[BitString]] = {}

    def encrypt(self, tweak: BitString, payload: BitString) -> BitString:
        if payload.bitlen == 0:
            return payload
        slot = (tweak.data, tweak.bitlen, payload.bitlen)
        table = self._maps.setdefault(slot, {})
        if payload in table:
            return table[payload]
        used = self._used.setdefault(slot, set())
        while True:
            cand = BitString.from_int(self._rng.getrandbits(payload.bitlen), payload.bitlen)
            if cand not in used:
                break
        table[payload] = cand
        used.add(cand)
        return cand


def _query(oracle: EncryptionOracle, tweak: BitString, payload: BitString) -> BitString:
    try:
        response = oracle.encrypt(tweak, payload)
    except Exception as exc:  # noqa: BLE001 - the boundary is untrusted
        raise OracleFailure(f"oracle raised: {exc!r}") from exc
    if not isinstance(response, BitString) or response.bitlen != payload.bitlen:
        raise OracleFailure("oracle response is not length preserving")
    return response


def _query_pair(
    oracle: EncryptionOracle, rng: random.Random
) -> tuple[BitString, BitString, BitString]:
    """Draw a block x and query x and x||0 under the empty tweak: the pair
    on which unrepaired HCTR's hash collides."""
    x = BitString.from_int(rng.getrandbits(BLOCK_BITS), BLOCK_BITS)
    return x, _query(oracle, _EMPTY, x), _query(oracle, _EMPTY, x + _ZERO_BIT)


def hctr_distinguish(oracle: EncryptionOracle, trials: int, seed: int) -> AttackReport:
    """Count first-block collisions between x and x||0 under an empty tweak.

    Against unrepaired HCTR the collision fires whenever the 1-bit tail of
    the longer ciphertext is 0, i.e. with probability 1/2; against an ideal
    permutation the rate is 2^-128.
    """
    rng = random.Random(seed)
    successes = 0
    transcript: list[tuple[str, str]] = []
    for _ in range(trials):
        x, c_short, c_long = _query_pair(oracle, rng)
        hit = c_long.msb(BLOCK_BITS) == c_short
        successes += hit
        if len(transcript) < 6:
            transcript.append(
                (f"P={x.data.hex()}(+0)", f"collision={'yes' if hit else 'no'}")
            )
    return AttackReport(
        attack_name="hctr-distinguish",
        trials=trials,
        successes=successes,
        advantage_estimate=Fraction(successes, trials),
        seed=seed,
        transcript=tuple(transcript),
    )


def hctr_recover_h(oracle: EncryptionOracle, max_iters: int, seed: int) -> AttackReport:
    """Recover the HCTR hash key through the encryption boundary alone.

    Repeats the (x, x||0) query pair with fresh x until the 1-bit tail of
    the longer ciphertext is 1 (probability 1/2 per attempt).  Then the XOR
    of the two first blocks equals pad(1)*h^2, so h follows from one field
    division and a square root.  The candidate is verified by predicting a
    fresh response pair exactly; a failed prediction is reported as an
    unsuccessful attack (as happens against the repaired hash).
    """
    rng = random.Random(seed)
    transcript: list[tuple[str, str]] = []
    for iteration in range(1, max_iters + 1):
        x, c_short, c_long = _query_pair(oracle, rng)
        tail = c_long.lsb(1).to_int()
        if len(transcript) < 6:
            transcript.append((f"P={x.data.hex()}(+0)", f"tail={tail}"))
        if tail != 1:
            continue
        delta = block_to_field(c_short ^ c_long.msb(BLOCK_BITS))
        h = field.sqrt(field.mul(delta, _PAD_ONE_INV))

        # Prediction check on an independent pair: with the right h, the
        # first block of E(y||0) is E_K(CC) xor H_h(tail bit), and E_K(CC)
        # is readable off E(y) as its first block xor h.
        y, v_short, v_long = _query_pair(oracle, rng)
        e_cc = v_short ^ field_to_block(h)
        predicted = e_cc ^ field_to_block(hctr_hash(h, v_long.lsb(1)))
        verified = predicted == v_long.msb(BLOCK_BITS)
        transcript.append(
            (f"verify P={y.data.hex()}(+0)", "prediction ok" if verified else "prediction wrong")
        )
        return AttackReport(
            attack_name="hctr-recover-h",
            trials=iteration,
            successes=1 if verified else 0,
            advantage_estimate=Fraction(1 if verified else 0),
            recovered_material=h if verified else None,
            seed=seed,
            transcript=tuple(transcript),
        )
    raise IterationBudgetExhausted(
        f"no usable tail bit in {max_iters} attempts (p=1/2 each)"
    )


def hctr_keydep_recover(k1: BlockCipher, x: BitString, ciphertext: BitString) -> FieldElement:
    """Recover the hash key from a compromised cipher key and one known pair.

    The pair must be (x||x, ciphertext) under an empty tweak.  The counter
    seed is reconstructed as S = D_K1(C2 xor x) xor 1, which turns the first
    ciphertext block equation into (x xor C2)*h^2 = C1 xor S xor x; the hash
    key is the square root of the solved quotient.  Exact, no probability.
    """
    if x.bitlen != BLOCK_BITS or ciphertext.bitlen != 2 * BLOCK_BITS:
        raise ValueError("expected a 128-bit x and the 256-bit ciphertext of x||x")
    c1 = ciphertext.msb(BLOCK_BITS)
    c2 = ciphertext.lsb(BLOCK_BITS)
    if c2 == x:
        raise DegenerateSample("x equals the second ciphertext block; resample x")
    s = BitString(k1.decrypt_block((c2 ^ x).data)) ^ field_to_block(FieldElement(1))
    v = block_to_field(c1 ^ s ^ x)
    h_squared = field.mul(v, field.inv(block_to_field(x ^ c2)))
    return field.sqrt(h_squared)


def swap_blocks(data: BitString, i: int, j: int) -> BitString:
    """Swap 128-bit blocks i and j (1-based) of a bit string: one join of
    byte slices, so the cost is linear in the length.  Only full blocks
    move and the tail byte stays last, so the join is a valid bit string."""
    m = -(-data.bitlen // BLOCK_BITS)
    if not (1 <= i <= m and 1 <= j <= m):
        raise IndexOutOfSpan(f"block index out of range 1..{m}")
    if BLOCK_BITS * max(i, j) > data.bitlen:
        raise IndexOutOfSpan("only full 128-bit blocks can be swapped")
    if i == j:
        return data
    a, b = 16 * (min(i, j) - 1), 16 * (max(i, j) - 1)
    raw = data.data
    return BitString._of(
        raw[:a] + raw[b : b + 16] + raw[a + 16 : b] + raw[a : a + 16] + raw[b + 16 :],
        data.bitlen,
    )


def xcb_cycling_forge(
    mode: Mode,
    tweak: BitString,
    plaintext: BitString,
    ciphertext: BitString,
    weak_order: int,
    swap: tuple[int, int],
) -> BitString:
    """Forge the ciphertext of the block-swapped plaintext without any key.

    Requires one known (tweak, plaintext, ciphertext) triple.  Blocks i and
    j (1-based, j-i a multiple of weak_order) must both lie in the counter
    span of the mode.  When every hash key of the hidden key set has
    multiplicative order dividing j-i, both hash layers are unchanged by
    the swap, the keystream P xor C carries over, and the forgery
    C xor P xor swap(P) equals the true encryption of the swapped
    plaintext; for honest random keys it fails.  The forge itself is
    key-blind and always returns a candidate.
    """
    if plaintext.bitlen != ciphertext.bitlen:
        raise ValueError("plaintext and ciphertext lengths differ")
    i, j = swap
    if i > j:
        i, j = j, i
    if weak_order < 1 or (j - i) % weak_order != 0:
        raise ValueError(f"swap distance {j - i} is not a multiple of {weak_order}")
    m = (plaintext.bitlen + BLOCK_BITS - 1) // BLOCK_BITS
    span = mode.counter_span(m)
    if i not in span or j not in span:
        raise IndexOutOfSpan(
            f"blocks {i},{j} outside counter span {span.start}..{span.stop - 1}"
        )
    return ciphertext ^ plaintext ^ swap_blocks(plaintext, i, j)


def weak_key_scan(h: FieldElement, max_order: int) -> AttackReport:
    """Membership test for the small-subgroup weak-key classes."""
    order = field.order_divisor(h, max_order)
    return AttackReport(
        attack_name="weak-key-scan",
        trials=1,
        successes=1 if order is not None else 0,
        advantage_estimate=Fraction(1 if order is not None else 0),
        recovered_order=order,
        transcript=((f"h={h.to_hex()}", f"order={'none' if order is None else order}"),),
    )
