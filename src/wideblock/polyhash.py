"""Polynomial-evaluation hash families over GF(2^128).

Two families are implemented: the two-argument hash used by the XCB modes
(message blocks at the highest powers of the key, tweak blocks below them,
and a final 64+64-bit length block at power one) and the single-argument
HCTR hash (blocks from power m+1 down to 2, bit length at power one, and
the bare key for the empty string).  Inputs are bit strings: the last block
of either argument may be partial and is zero-padded on the right before
being used as a coefficient.

Coefficients are read straight from the bytes of a ``BitString``: its bits
are left-aligned with a zero tail, so a partial last block padded with zero
bytes is already the zero-padded block.  ``field._hash`` then runs Horner's
rule on plain ints with one of the hash key's tables: the 4-bit table for
inputs below 2 KiB (``field.BYTE_TABLE_BLOCKS`` blocks) in total, the 8-bit
table from there on, whose larger build pays off only over long inputs.
Lookups in either table are key-dependent memory accesses: the hash is not
constant time.

Each family has a private entry point (``_xcb_hash``, ``_hctr_hash``) that
takes its inputs as parts, bytes with bit lengths, and returns the hash
value as an int; the public functions are thin wrappers that take
``BitString`` arguments and return a ``FieldElement``.  The modes call the
private entry points, so they hold plain ints and bytes inside, hash the
payload where it lies, and make one ``BitString`` per result.  Both read
a payload through ``_split``: a view of its whole blocks and a copy of its
partial last block, with the bits past its end cleared; ``BitString.msb``
joins the two.  ``_cat`` joins two bit strings' bytes at any bit offset: a
plain join on a byte boundary, one shift of b into a's last byte otherwise.

The public ``BitString`` constructor converts its data to ``bytes`` and
checks the length and the zero tail.  Results that meet both by
construction (concatenation, XOR, ``msb``/``lsb``, ``from_int``,
``parse_n``, ``field_to_block``, the outputs of ``ctr.xcb_ctr`` and
``ctr.xor_ctr``, each mode's output in ``modes`` and
``attacks.swap_blocks``) are built by the private ``BitString._of``, which
sets the two slots without either.
"""

from __future__ import annotations

from . import field
from .field import FieldElement

BLOCK_BITS = 128


class EmptyString(ValueError):
    """Raised when parsing an empty string into blocks."""


class BadLength(ValueError):
    """Raised on a bit length outside an operation's allowed range."""


def _split(data: bytes, bits: int) -> tuple[memoryview, bytes]:
    """The first ``bits`` bits of data as two parts that pad to their
    blocks: a view of the whole blocks, and a copy of the partial last
    block (empty if there is none) with the bits past ``bits`` cleared."""
    whole = bits >> 7 << 4
    view = memoryview(data)
    tail = bytes(view[whole : (bits + 7) >> 3])
    if bits % 8:
        tail = tail[:-1] + bytes([tail[-1] & 0xFF00 >> bits % 8])
    return view[:whole], tail


def _cat(a: bytes, abits: int, b: bytes, bbits: int) -> bytes:
    """The bytes of the bit string a || b, with a and b laid out as in a
    ``BitString`` (left-aligned, zero tail).

    A join when a ends on a byte boundary; otherwise b is shifted into a's
    last byte in one int, and the bytes that only held tails are cut off.
    """
    shift = -abits % 8
    if not shift or not b:
        return a + b
    joined = (a[-1] << (8 * len(b))) | (int.from_bytes(b, "big") << shift)
    cut = (abits + bbits + 7) // 8 - (len(a) - 1)
    return b"".join((memoryview(a)[:-1], joined.to_bytes(len(b) + 1, "big")[:cut]))


class BitString:
    """An immutable bit string: bytes plus an explicit bit count.

    Bits are left-aligned (the first bit is the most significant bit of the
    first byte) and unused trailing bits of the last byte must be zero.
    """

    __slots__ = ("data", "bitlen")

    def __init__(self, data: bytes, bitlen: int | None = None):
        if type(data) is not bytes:
            data = bytes(memoryview(data))  # TypeError unless data is bytes-like
        if bitlen is None:
            bitlen = 8 * len(data)
        if bitlen < 0 or len(data) != (bitlen + 7) // 8:
            raise ValueError("byte count does not match bit length")
        if bitlen % 8 and data[-1] & (0xFF >> bitlen % 8):
            raise ValueError("unused trailing bits must be zero")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "bitlen", bitlen)

    @classmethod
    def _of(cls, data: bytes, bitlen: int) -> "BitString":
        """A bit string from bytes that already meet the invariants (exactly
        (bitlen + 7) // 8 of them, zero tail), without the copy or checks."""
        s = object.__new__(cls)
        object.__setattr__(s, "data", data)
        object.__setattr__(s, "bitlen", bitlen)
        return s

    def __setattr__(self, name, _value):
        raise AttributeError("BitString is immutable")

    @classmethod
    def empty(cls) -> "BitString":
        return cls(b"", 0)

    @classmethod
    def from_int(cls, value: int, nbits: int) -> "BitString":
        """The nbits-bit big-endian representation of value."""
        if value < 0 or (nbits < value.bit_length()):
            raise ValueError("value does not fit in the requested width")
        nbytes = (nbits + 7) // 8
        return cls._of((value << (8 * nbytes - nbits)).to_bytes(nbytes, "big"), nbits)

    def to_int(self) -> int:
        """The bits read as a big-endian integer (empty string is 0)."""
        return int.from_bytes(self.data, "big") >> (8 * len(self.data) - self.bitlen)

    def to_bytes(self) -> bytes:
        if self.bitlen % 8:
            raise BadLength("bit string is not byte-aligned")
        return self.data

    def __len__(self) -> int:
        return self.bitlen

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.bitlen == other.bitlen
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((BitString, self.data, self.bitlen))

    def __repr__(self) -> str:
        return f"BitString({self.data.hex()!r}[:{self.bitlen}b])"

    def __add__(self, other: "BitString") -> "BitString":
        """Concatenation."""
        total = self.bitlen + other.bitlen
        return BitString._of(_cat(self.data, self.bitlen, other.data, other.bitlen), total)

    def __xor__(self, other: "BitString") -> "BitString":
        """One int XOR; both zero tails stay zero."""
        if self.bitlen != other.bitlen:
            raise BadLength("XOR requires equal bit lengths")
        n = len(self.data)
        raw = int.from_bytes(self.data, "big") ^ int.from_bytes(other.data, "big")
        return BitString._of(raw.to_bytes(n, "big"), self.bitlen)

    def msb(self, r: int) -> "BitString":
        """The leading r bits."""
        if not 0 <= r <= self.bitlen:
            raise BadLength("msb length out of range")
        return BitString._of(b"".join(_split(self.data, r)), r)

    def lsb(self, r: int) -> "BitString":
        """The trailing r bits."""
        if not 0 <= r <= self.bitlen:
            raise BadLength("lsb length out of range")
        cut = self.bitlen - r
        if cut % 8 == 0:
            return BitString._of(self.data[cut // 8 :], r)
        return BitString.from_int(self.to_int() & ((1 << r) - 1), r)


def parse_n(x: BitString) -> list[BitString]:
    """Split into 128-bit blocks; the last block may be 1..128 bits.

    Blocks start on byte boundaries whatever the bit length, and the last
    one keeps x's zero tail, so every block is a slice of x's bytes.
    """
    if x.bitlen == 0:
        raise EmptyString("cannot parse an empty string into blocks")
    return [
        BitString._of(x.data[i : i + 16], min(BLOCK_BITS, x.bitlen - 8 * i))
        for i in range(0, len(x.data), 16)
    ]


def block_to_field(block: BitString) -> FieldElement:
    if block.bitlen != BLOCK_BITS:
        raise BadLength("field elements are full 128-bit blocks")
    return FieldElement(block.to_int())


def field_to_block(element: FieldElement) -> BitString:
    return BitString._of(element.to_bytes(), BLOCK_BITS)


def _xcb_hash(h: FieldElement, x_bits: int, t_bits: int, *parts: bytes) -> int:
    """``xcb_hash`` with the length block of ``x_bits`` and ``t_bits``, over
    x's bytes then t's, as parts that are each padded to whole blocks."""
    return field._hash(h, *parts, ((x_bits << 64) | t_bits).to_bytes(16, "big"))


def xcb_hash(h: FieldElement, x: BitString, t: BitString) -> FieldElement:
    """Two-argument polynomial hash used by the XCB modes.

    Horner evaluation over the block sequence (x blocks, then t blocks,
    then the length block), so x_1 lands at power m+p+1 and the length
    block at power one.  Either argument may be empty, in which case its
    term group vanishes; the length block is appended regardless.
    """
    return FieldElement(_xcb_hash(h, x.bitlen, t.bitlen, x.data, t.data))


def _hctr_hash(h: FieldElement, p: bytes, p_bits: int, t: bytes, t_bits: int) -> int:
    """``hctr_hash`` of p || t on the bytes and bit lengths of p and t,
    without joining them: p is split with ``_split``, and only its partial
    last block is joined to t; the length block is the last part."""
    n = p_bits + t_bits
    if n == 0:
        return h.value
    whole, tail = _split(p, p_bits)
    tail = _cat(tail, p_bits % BLOCK_BITS, t, t_bits)
    return field._hash(h, whole, tail, n.to_bytes(16, "big"))


def hctr_hash(h: FieldElement, p: BitString) -> FieldElement:
    """HCTR polynomial hash: the bare key for the empty string, otherwise
    blocks at powers m+1..2 with the bit length at power one.

    Hence the empty string and a single 0 bit both hash to the bare key.
    hctr-fix removes that collision by hashing p || 1, which is never
    empty: it is HCTR under the tweak T || 1 (``modes._hctr``).
    """
    return FieldElement(_hctr_hash(h, p.data, p.bitlen, b"", 0))
