"""Counter-collision combinatorics and security-bound evaluation.

The first half computes, for a w-bit wrapping counter, the sets of XOR
offsets realizable by r-fold increments:

    Y_r = { ((y + r) mod 2^w) xor y : y in {0,1}^w }
    W_0 = Y_0,   W_r = Y_r minus the union of all earlier Y_i

The cardinality of W_r is what bounds the counter-collision term in the
hash-counter-hash security proofs.  Exhaustive enumeration, which stores
every Y_r, works up to width 16 and is the reference; a carry-chain
enumeration gives the same counts at those widths and at the deployed
32-bit width.  That enumeration follows carries only through the
low L = bit_length(r_max) bits.  It is exact because every r <= r_max is
zero above them: a carry out of bit L-1 runs on as ones that may stop at
any bit, giving the same width - L high parts to every such low pattern.

The second half evaluates the advantage-bound formulas of the compared
enciphering schemes at concrete adversary resources, exactly (rational
arithmetic, floating point only in the final base-2 logarithm).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .field import GROUP_ORDER_FACTORS


class WidthTooLarge(ValueError):
    """Raised when exhaustive enumeration is requested beyond width 16."""


class UnknownWidth(ValueError):
    """Raised for a block width n whose factorization of 2^n - 1 is unknown."""


class UnknownScheme(KeyError):
    """Raised for a scheme name missing from the bound registry."""


# ---------------------------------------------------------------------------
# Increment-offset sets


def exhaustive_offsets(width: int, r: int) -> frozenset[int]:
    """Y_r by brute force over all 2^width counter values."""
    mask = (1 << width) - 1
    return frozenset((((y + r) & mask) ^ y) for y in range(1 << width))


def _carry_split(bits: int, r: int) -> tuple[set[int], set[int]]:
    """Low ``bits``-bit offset patterns of adding r, split by carry-out.

    Adding the constant r to y makes the XOR offset ((y+r) xor y) equal to
    r xor c, where c is the carry word of the addition.  The carry word is
    constrained bit by bit: carry-in 0 at the bottom, and the next carry
    equals the current r bit whenever carry and r bit agree, while a
    disagreement lets y choose the next carry freely.  Enumerating that
    branching process over bits 0..bits-1 yields the realizable low
    patterns, in time proportional to their number; they are returned as
    (A, B), those whose carry out of bit bits-1 is 0 and 1.  r < 2^bits.
    """
    mask = (1 << bits) - 1
    low: set[int] = set()
    high: set[int] = set()
    stack = [(0, 0)]  # (bit position, carry word so far)
    while stack:
        pos, carry = stack.pop()
        if pos == bits:
            (high if carry >> bits else low).add((r ^ carry) & mask)
            continue
        r_bit = (r >> pos) & 1
        nxt = pos + 1
        if (carry >> pos) & 1 == r_bit:
            stack.append((nxt, carry | (r_bit << nxt)))
        else:
            stack.append((nxt, carry))
            stack.append((nxt, carry | (1 << nxt)))
    return low, high


def carry_class_offsets(width: int, r: int) -> frozenset[int]:
    """Y_r via carry chains, without touching the 2^width value space.

    With L = bit_length(r), every bit of r at or above L is zero, so a
    carry out of bit L-1 continues as a run of ones that y may stop at any
    bit: Y_r is A joined with every b in B followed by 1..width-L ones
    (A, B from ``_carry_split``).  At L = width the carry-out is discarded
    by the wrap and Y_r = A | B.
    """
    r &= (1 << width) - 1
    bits = r.bit_length()
    low, high = _carry_split(bits, r)
    if bits == width:
        return frozenset(low | high)
    runs = [((1 << k) - 1) << bits for k in range(1, width - bits + 1)]
    return frozenset(low).union(b | run for b in high for run in runs)


def _w_cardinalities(width: int, r_max: int) -> list[int]:
    """|W_r| for r = 0..r_max, storing only L = bit_length(r_max) low bits.

    Split as in ``carry_class_offsets``, with one L for every r:
    |W_r| = |A_r - U A_{<r}| + (width - L) |B_r - U B_{<r}|.  This holds
    at L = width too, where the factor is 0: the wrap drops the carry-out,
    and each offset of B_r is also reached without one, at r itself when
    r <= 2^(width-1) (y's top bit chose the carry-out) and otherwise at
    2^width - r < r (Y_r = Y_{-r}).
    """
    bits = min(r_max.bit_length(), width)
    mask = (1 << bits) - 1
    runs = width - bits
    seen_low: set[int] = set()
    seen_high: set[int] = set()
    counts = []
    for r in range(r_max + 1):
        low, high = _carry_split(bits, r & mask)
        low -= seen_low
        high -= seen_high
        counts.append(len(low) + runs * len(high))
        seen_low |= low
        seen_high |= high
    return counts


@dataclass(frozen=True)
class IncSetTable:
    """Exhaustively computed offset sets for r = 0..r_max."""

    width: int
    r_max: int
    y_sets: tuple[frozenset[int], ...]
    w_sets: tuple[frozenset[int], ...]
    w_max: int

    @property
    def w_cardinalities(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.w_sets)


def _check_exhaustive_range(width: int, r_max: int) -> None:
    if width > 16:
        raise WidthTooLarge("exhaustive mode is limited to width <= 16")
    if width < 1 or r_max < 0:
        raise ValueError("width must be >= 1 and r_max >= 0")


def compute_inc_sets(width: int, r_max: int) -> IncSetTable:
    """Exact Y_r and W_r for all r <= r_max by exhaustive enumeration."""
    _check_exhaustive_range(width, r_max)
    y_sets = []
    w_sets = []
    seen: set[int] = set()
    for r in range(r_max + 1):
        ys = exhaustive_offsets(width, r)
        y_sets.append(ys)
        w_sets.append(frozenset(ys - seen))
        seen |= ys
    return IncSetTable(
        width=width,
        r_max=r_max,
        y_sets=tuple(y_sets),
        w_sets=tuple(w_sets),
        w_max=max(len(w) for w in w_sets),
    )


def inc_set_counts(width: int, r_max: int) -> list[int]:
    """|W_r| for r = 0..r_max over the widths ``compute_inc_sets`` takes,
    with the same counts and errors, by carry chains: only the low
    bit_length(r_max)-bit patterns are stored, not every Y_r."""
    _check_exhaustive_range(width, r_max)
    return _w_cardinalities(width, r_max)


@dataclass(frozen=True)
class WideCounterSample:
    """Carry-chain W_r cardinalities at the full 32-bit counter width."""

    width: int
    r_max: int
    w_cardinalities: dict[int, int]  # reported r -> #W_r
    w_max_observed: int


def sample_w32(
    r_max: int,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> WideCounterSample:
    """W_r cardinalities at width 32 for r <= r_max via carry chains.

    Carries are followed through the low bit_length(r_max) bits only and
    the runs of ones above them are counted (``_w_cardinalities``).  The
    running union over earlier Y_i makes the computation sequential in r,
    so every |W_r| up to r_max is computed; ``samples`` (with ``seed``)
    limits which cardinalities are reported, not which are computed.  The
    observed maximum is over all computed r.
    """
    if samples is None or samples > r_max + 1:
        report_r = set(range(r_max + 1))
    else:
        rng = random.Random(seed)
        report_r = set(rng.sample(range(r_max + 1), samples))
    counts = _w_cardinalities(32, r_max)
    return WideCounterSample(
        width=32,
        r_max=r_max,
        w_cardinalities={r: w for r, w in enumerate(counts) if r in report_r},
        w_max_observed=max(counts),
    )


# ---------------------------------------------------------------------------
# Security-bound evaluation


@dataclass(frozen=True)
class BoundParams:
    """Adversary resources: query count q, max blocks per query ell, total
    query complexity sigma (blocks, tweak included), block bits n."""

    q: int
    ell: int
    sigma: int
    n: int = 128

    def __post_init__(self):
        if self.q < 1 or self.ell < 1:
            raise ValueError("q and ell must be at least 1")
        if self.sigma < self.q:
            raise ValueError("sigma counts blocks across queries, so sigma >= q")


#: Default resource point: 2^42 bytes of data split into 2^30 queries of one
#: 4 KB disk sector (2^8 blocks) each, sigma = 2^38 payload blocks plus 2^30
#: tweak blocks.  sigma is kept as the exact sum, not a rounded exponent.
DEFAULT_PARAMS = BoundParams(q=1 << 30, ell=(1 << 8) + 1, sigma=(1 << 38) + (1 << 30))

# phi(2^n - 1) from known complete prime factorizations.
_MERSENNE_FACTORS = {
    128: GROUP_ORDER_FACTORS,
    64: (3, 5, 17, 257, 641, 65537, 6700417),
}


def _totient_of_mersenne(n: int) -> int:
    factors = _MERSENNE_FACTORS.get(n)
    if factors is None:
        known = sorted(_MERSENNE_FACTORS)
        raise UnknownWidth(f"phi(2^n - 1) is tabulated only for n in {known}, got {n}")
    assert math.prod(factors) == (1 << n) - 1
    return math.prod(f - 1 for f in factors)


def _pow2(n: int) -> int:
    return 1 << n


_FORMULAS: dict[str, tuple[str, Callable[[BoundParams], Fraction]]] = {
    "tet": (
        "3*sigma^2 / (2*phi(2^n - 1))",
        lambda p: Fraction(3 * p.sigma**2, 2 * _totient_of_mersenne(p.n)),
    ),
    "hctr": (
        "4.5*sigma^2 / 2^n",
        lambda p: Fraction(9 * p.sigma**2, 2 * _pow2(p.n)),
    ),
    "cmc": (
        "7*sigma^2 / 2^n",
        lambda p: Fraction(7 * p.sigma**2, _pow2(p.n)),
    ),
    "eme": (
        "7*sigma^2 / 2^n",
        lambda p: Fraction(7 * p.sigma**2, _pow2(p.n)),
    ),
    "heh": (
        "20*sigma^2 / 2^n",
        lambda p: Fraction(20 * p.sigma**2, _pow2(p.n)),
    ),
    "xcb-2007": (
        "8*q^2*(ell+2)^2 / 2^n",
        lambda p: Fraction(8 * p.q**2 * (p.ell + 2) ** 2, _pow2(p.n)),
    ),
    "xcbv2fb-old": (
        "(5+2^22)*ell*q*sigma / 2^n",
        lambda p: Fraction((5 + (1 << 22)) * p.ell * p.q * p.sigma, _pow2(p.n)),
    ),
    "xcbv1-old-table": (
        "(5+2^22)*ell*q*sigma / 2^n",
        lambda p: Fraction((5 + (1 << 22)) * p.ell * p.q * p.sigma, _pow2(p.n)),
    ),
    "xcbv1-old-theorem": (
        "(3+2^22)*ell*q*sigma / 2^n",
        lambda p: Fraction((3 + (1 << 22)) * p.ell * p.q * p.sigma, _pow2(p.n)),
    ),
    "xcbv2fb-repaired": (
        "(5+2^5)*ell*q*sigma / 2^n",
        lambda p: Fraction((5 + (1 << 5)) * p.ell * p.q * p.sigma, _pow2(p.n)),
    ),
    "xcbv1-repaired": (
        "(3+2^5)*ell*q*sigma / 2^n",
        lambda p: Fraction((3 + (1 << 5)) * p.ell * p.q * p.sigma, _pow2(p.n)),
    ),
    "mxcbv2fb": (
        "(3.5*q^2 + sigma^2) / 2^n",
        lambda p: Fraction(7 * p.q**2, 2 * _pow2(p.n)) + Fraction(p.sigma**2, _pow2(p.n)),
    ),
    "mxcbv1": (
        "(2.5*q^2 + sigma^2) / 2^n",
        lambda p: Fraction(5 * p.q**2, 2 * _pow2(p.n)) + Fraction(p.sigma**2, _pow2(p.n)),
    ),
}

SCHEMES = tuple(_FORMULAS)

#: Row order of the comparison report.  Both pre-repair rows use the
#: (5+2^22) constant; the (3+2^22) form of the pre-repair v1 bound is kept
#: available as the extra scheme name xcbv1-old-theorem.
TABLE_ROWS = (
    "tet",
    "hctr",
    "cmc",
    "eme",
    "heh",
    "xcb-2007",
    "xcbv2fb-old",
    "xcbv1-old-table",
    "xcbv2fb-repaired",
    "xcbv1-repaired",
    "mxcbv2fb",
    "mxcbv1",
)


@dataclass(frozen=True)
class BoundResult:
    scheme: str
    formula: str
    advantage: Fraction
    advantage_log2: float


def _log2_fraction(value: Fraction) -> float:
    return math.log2(value.numerator) - math.log2(value.denominator)


def eval_bound(scheme: str, params: BoundParams) -> BoundResult:
    """Evaluate one scheme's advantage bound exactly; log2 at the end."""
    try:
        formula, fn = _FORMULAS[scheme]
    except KeyError:
        raise UnknownScheme(scheme) from None
    advantage = fn(params)
    return BoundResult(
        scheme=scheme,
        formula=formula,
        advantage=advantage,
        advantage_log2=_log2_fraction(advantage),
    )


@dataclass(frozen=True)
class BoundTable:
    params: BoundParams
    rows: tuple[BoundResult, ...]
    note: str

    def as_text(self) -> str:
        lines = [
            f"q = 2^{math.log2(self.params.q):g}  ell = {self.params.ell}  "
            f"sigma = {self.params.sigma}  n = {self.params.n}",
            f"{'scheme':<18} {'log2(adv)':>10}  formula",
        ]
        for row in self.rows:
            lines.append(
                f"{row.scheme:<18} {row.advantage_log2:>+10.2f}  {row.formula}"
            )
        lines.append(f"note: {self.note}")
        return "\n".join(lines)

    def as_structured(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(
                f"scheme {row.scheme} formula {row.formula!r} "
                f"advantage_log2 {row.advantage_log2:.4f}"
            )
        return "\n".join(lines)


def table1_report(params: BoundParams = DEFAULT_PARAMS) -> BoundTable:
    """Evaluate every compared scheme at the given resource point."""
    rows = tuple(eval_bound(name, params) for name in TABLE_ROWS)
    note = (
        "both pre-repair rows use the (5+2^22) constant; the (3+2^22) form "
        "of the pre-repair v1 bound is available as 'xcbv1-old-theorem'"
    )
    return BoundTable(params=params, rows=rows, note=note)


#: Largest k accepted in a 2^k term.  Bounds are evaluated exactly, so the
#: term costs k bits and squaring it 2k.
MAX_EXPONENT = 4096


def parse_magnitude(text: str) -> int:
    """Parse CLI resource expressions: plain integers, 2^k, or 2^a+2^b."""
    total = 0
    for term in text.replace(" ", "").split("+"):
        base, power, digits = term.partition("^")
        if power and base != "2":
            raise ValueError(f"only powers of two are supported: {term!r}")
        try:
            value = int(digits if power else term)
        except ValueError:
            raise ValueError(f"malformed term {term!r} in {text!r}") from None
        if not power:
            total += value
        elif 0 <= value <= MAX_EXPONENT:
            total += 1 << value
        else:
            raise ValueError(f"exponent of {term!r} is outside 0..{MAX_EXPONENT}")
    return total
