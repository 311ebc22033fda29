"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths:

* ``mul_oracle`` is a schoolbook 256-bit polynomial product followed by
  long division;
* ``mul``, ``pow``, ``inv``, ``sqrt`` and ``order_divisor`` are the original
  bit-serial field code that the table arithmetic in ``wideblock.field``
  replaced, kept as its reference;
* the hash oracles read blocks off the payload's integer value and evaluate
  explicit powers of the key instead of Horner's rule;
* ``xor``, ``lsb`` and ``parse_n`` are the original per-byte and big-int
  ``BitString`` code that the slicing and int-XOR paths replaced;
* ``inc`` is the block-at-a-time 32-bit counter increment that the
  counter layers in ``wideblock.ctr`` replaced with integer arithmetic
  over all counters at once;
* ``carry_class_offsets`` is the original full-depth carry-chain search
  for Y_r that the closed form of W_r in ``wideblock.analysis`` replaced.
"""

from wideblock import field
from wideblock.blockcipher import BadBlockLength
from wideblock.field import FieldElement
from wideblock.polyhash import BitString, _mask_tail

# x^128 + x^7 + x^2 + x + 1 with explicit degree-128 bit
_MODULUS = (1 << 128) | 0x87
_MASK128 = (1 << 128) - 1


def mul_oracle(a: FieldElement, b: FieldElement) -> FieldElement:
    """Schoolbook polynomial product, then long division by the modulus."""
    prod = 0
    x = a.value
    i = 0
    y = b.value
    while y:
        if y & 1:
            prod ^= x << i
        y >>= 1
        i += 1
    while prod.bit_length() > 128:
        prod ^= _MODULUS << (prod.bit_length() - 129)
    return FieldElement(prod)


# ---------------------------------------------------------------------------
# The bit-serial field code


def mul(a: FieldElement, b: FieldElement) -> FieldElement:
    """Shift-and-add over the bits of b; the running multiple of a is
    reduced whenever it reaches degree 128."""
    x = a.value
    y = b.value
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if x >> 128:
            x ^= _MODULUS
    return FieldElement(acc)


def pow(a: FieldElement, e: int) -> FieldElement:  # noqa: A001 - mirrors field.pow
    """Right-to-left square-and-multiply; pow(a, 0) == 1."""
    result = field.ONE
    base = a
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


def inv(a: FieldElement) -> FieldElement:
    """a^(2^128 - 2)."""
    return pow(a, field.GROUP_ORDER - 1)


def sqrt(a: FieldElement) -> FieldElement:
    """a^(2^127)."""
    return pow(a, 1 << 127)


def order_divisor(h: FieldElement, max_order: int) -> int | None:
    """Smallest r <= max_order dividing 2^128 - 1 with h^r = 1, by trial of
    every divisor in increasing order."""
    divisors = [1]
    for p in field.GROUP_ORDER_FACTORS:
        divisors += [d * p for d in divisors]
    for r in sorted(divisors):
        if r > max_order:
            break
        if pow(h, r) == field.ONE:
            return r
    return None


# ---------------------------------------------------------------------------
# Hash oracles


def _padded_blocks(x: BitString) -> list[int]:
    """x's 128-bit blocks as integers, the last one zero-padded on the right."""
    nblocks = -(-x.bitlen // 128)
    v = x.to_int() << (128 * nblocks - x.bitlen)
    return [(v >> (128 * k)) & _MASK128 for k in reversed(range(nblocks))]


def _sum_of_powers(h: FieldElement, terms: list[int]) -> FieldElement:
    """sum of terms[i] * h^(m - i) for m terms, each power built explicitly."""
    powers = [field.ONE]
    for _ in terms:
        powers.append(mul_oracle(powers[-1], h))
    total = 0
    for idx, term in enumerate(terms):
        total ^= mul_oracle(FieldElement(term), powers[len(terms) - idx]).value
    return FieldElement(total)


def xcb_hash_oracle(
    h: FieldElement,
    x: BitString,
    t: BitString,
    include_length: bool = True,
) -> FieldElement:
    terms = _padded_blocks(x) + _padded_blocks(t)
    if include_length:
        terms.append(x.bitlen << 64 | t.bitlen)
    return _sum_of_powers(h, terms)


def hctr_hash_oracle(h: FieldElement, p: BitString) -> FieldElement:
    if p.bitlen == 0:
        return h
    return _sum_of_powers(h, _padded_blocks(p) + [p.bitlen])


# ---------------------------------------------------------------------------
# The per-byte and big-int BitString code


def xor(a: BitString, b: BitString) -> BitString:
    raw = bytes(p ^ q for p, q in zip(a.data, b.data))
    return BitString(_mask_tail(raw, a.bitlen), a.bitlen)


def lsb(x: BitString, r: int) -> BitString:
    return BitString.from_int(x.to_int() & ((1 << r) - 1), r)


def parse_n(x: BitString) -> list[BitString]:
    v = x.to_int()
    blocks = []
    remaining = x.bitlen
    while remaining > 0:
        width = min(128, remaining)
        remaining -= width
        blocks.append(BitString.from_int((v >> remaining) & ((1 << width) - 1), width))
    return blocks


def inc(x: BitString) -> BitString:
    """Increment the low 32 bits of a 128-bit block modulo 2^32."""
    if x.bitlen != 128:
        raise BadBlockLength("inc operates on full 128-bit blocks")
    low = (int.from_bytes(x.data[12:], "big") + 1) & 0xFFFFFFFF
    return BitString(x.data[:12] + low.to_bytes(4, "big"), 128)


def carry_class_offsets(width: int, r: int) -> frozenset[int]:
    """Y_r by following every carry chain through all ``width`` bits."""
    mask = (1 << width) - 1
    r &= mask
    out = set()
    stack = [(0, 0)]  # (bit position, carry word so far)
    while stack:
        pos, carry = stack.pop()
        if pos == width:
            out.add(r ^ carry)
            continue
        r_bit = (r >> pos) & 1
        c_bit = (carry >> pos) & 1
        nxt = pos + 1
        if c_bit == r_bit:
            # forced carry; the final carry-out is discarded by the wrap
            stack.append((nxt, carry | (r_bit << nxt) if nxt < width else carry))
        else:
            stack.append((nxt, carry))
            if nxt < width:
                stack.append((nxt, carry | (1 << nxt)))
    return frozenset(out)


def check_field_laws(rng, cases: int) -> None:
    """Commutativity, associativity and distributivity on random triples."""
    for _ in range(cases):
        a = FieldElement(rng.getrandbits(128))
        b = FieldElement(rng.getrandbits(128))
        c = FieldElement(rng.getrandbits(128))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )
