"""Counter-collision combinatorics and security-bound evaluation.

The first half computes, for a w-bit wrapping counter, the sets of XOR
offsets realizable by r-fold increments:

    Y_r = { ((y + r) mod 2^w) xor y : y in {0,1}^w }
    W_0 = Y_0,   W_r = Y_r minus the union of all earlier Y_i

The cardinality of W_r is what bounds the counter-collision term in the
hash-counter-hash security proofs.  W_r has a closed form:

    W_0 = {0},   W_r = { 2^(k+1) - r : 0 <= k < w, 2^k >= r }  for r >= 1

so |W_r| = w - bit_length(r - 1) for 1 <= r <= 2^(w-1), 0 above that, and
the maximum over all r is w, at r = 1.  Proof: (y + r) xor y = d says that
adding r flips exactly the bits of d, each bit i from y_i to 1 - y_i, which
adds (1 - 2 y_i) 2^i.  So d is in Y_r exactly when
r = sum over i in d of +-2^i (mod 2^w), and y sets every sign pattern.
For d != 0 with top bit k, the top term outweighs the others together, so
the sum has the top term's sign: with + it lies in 0 < s < 2^(k+1) and is
least as 2^(k+1) - d, all lower terms negative; with - it is at least
2^w - d as a residue.  Hence the least r with d in Y_r is 2^(k+1) - d,
i.e. d is in W_r exactly when d = 2^(k+1) - r has top bit k, which is
1 <= r <= 2^k.  The exhaustive enumeration that the tests check this
against is in ``tests/gfref.py``.

The second half evaluates the advantage-bound formulas of the compared
enciphering schemes at concrete adversary resources, exactly (rational
arithmetic, floating point only in the final base-2 logarithm).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .field import GROUP_ORDER_FACTORS


class UnknownWidth(ValueError):
    """Raised for a block width n whose factorization of 2^n - 1 is unknown."""


class UnknownScheme(KeyError):
    """Raised for a scheme name missing from the bound registry."""


# ---------------------------------------------------------------------------
# Increment-offset sets


def _check_range(width: int, r_max: int) -> None:
    if width < 1 or r_max < 0:
        raise ValueError("width must be >= 1 and r_max >= 0")


def w_set(width: int, r: int) -> frozenset[int]:
    """W_r at any width from the closed form in the module docstring.

    Only tests call it; it stays public as the proved statement, which they
    check set by set against the brute force in ``tests/gfref.py``."""
    _check_range(width, r)
    if r == 0:
        return frozenset({0})
    return frozenset((2 << k) - r for k in range((r - 1).bit_length(), width))


def inc_set_counts(width: int, r_max: int) -> list[int]:
    """|W_r| for r = 0..r_max at any width, from the closed form."""
    _check_range(width, r_max)
    return [max(width - (r - 1).bit_length(), 0) if r else 1 for r in range(r_max + 1)]


class WideCounterSample(NamedTuple):
    """W_r cardinalities at the full 32-bit counter width."""

    width: int
    r_max: int
    w_cardinalities: dict[int, int]  # reported r -> #W_r
    w_max_observed: int


def sample_w32(
    r_max: int,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> WideCounterSample:
    """W_r cardinalities at width 32 for r <= r_max.

    Every |W_r| up to r_max is computed (``inc_set_counts``); ``samples``
    (with ``seed``) limits which cardinalities are reported, not which are
    computed.  The observed maximum is over all computed r.
    """
    if samples is None or samples > r_max + 1:
        report_r = set(range(r_max + 1))
    else:
        rng = random.Random(seed)
        report_r = set(rng.sample(range(r_max + 1), samples))
    counts = inc_set_counts(32, r_max)
    return WideCounterSample(
        width=32,
        r_max=r_max,
        w_cardinalities={r: w for r, w in enumerate(counts) if r in report_r},
        w_max_observed=max(counts),
    )


# ---------------------------------------------------------------------------
# Security-bound evaluation


class _BoundFields(NamedTuple):
    q: int
    ell: int
    sigma: int
    n: int = 128


class BoundParams(_BoundFields):
    """Adversary resources: query count q, max blocks per query ell, total
    query complexity sigma (blocks, tweak included), block bits n.

    The checks live in ``__new__`` of this subclass because a ``NamedTuple``
    body may not define one; ``_make`` goes through it, so ``_replace``
    checks too.
    """

    __slots__ = ()

    def __new__(cls, q: int, ell: int, sigma: int, n: int = 128):
        if q < 1 or ell < 1:
            raise ValueError("q and ell must be at least 1")
        if sigma < q:
            raise ValueError("sigma counts blocks across queries, so sigma >= q")
        return super().__new__(cls, q, ell, sigma, n)

    @classmethod
    def _make(cls, iterable) -> BoundParams:
        return cls(*iterable)


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


_Row = tuple[str, Callable[[BoundParams], Fraction]]


def _per_sigma2(c: str | int) -> _Row:
    """c*sigma^2 / 2^n, with c an integer or a decimal literal."""
    coef = Fraction(c)
    return f"{c}*sigma^2 / 2^n", lambda p: coef * p.sigma**2 / (1 << p.n)


def _xcb(c: int, k: int) -> _Row:
    """(c+2^k)*ell*q*sigma / 2^n, the XCB form; the paper's repair lowers k."""
    return (
        f"({c}+2^{k})*ell*q*sigma / 2^n",
        lambda p: Fraction((c + (1 << k)) * p.ell * p.q * p.sigma, 1 << p.n),
    )


def _mxcb(c: str) -> _Row:
    """(c*q^2 + sigma^2) / 2^n, with c a decimal literal."""
    coef = Fraction(c)
    return f"({c}*q^2 + sigma^2) / 2^n", lambda p: (coef * p.q**2 + p.sigma**2) / (1 << p.n)


#: The one scheme that ``eval_bound`` knows but the comparison report leaves out.
_OLD_THEOREM = "xcbv1-old-theorem"

#: Every scheme's bound, in report order: the printed formula and the exact
#: function behind it come from one definition.
_FORMULAS: dict[str, _Row] = {
    "tet": (
        "3*sigma^2 / (2*phi(2^n - 1))",
        lambda p: Fraction(3 * p.sigma**2, 2 * _totient_of_mersenne(p.n)),
    ),
    "hctr": _per_sigma2("4.5"),
    "cmc": _per_sigma2(7),
    "eme": _per_sigma2(7),
    "heh": _per_sigma2(20),
    "xcb-2007": (
        "8*q^2*(ell+2)^2 / 2^n",
        lambda p: Fraction(8 * p.q**2 * (p.ell + 2) ** 2, 1 << p.n),
    ),
    "xcbv2fb-old": _xcb(5, 22),
    "xcbv1-old-table": _xcb(5, 22),
    _OLD_THEOREM: _xcb(3, 22),
    "xcbv2fb-repaired": _xcb(5, 5),
    "xcbv1-repaired": _xcb(3, 5),
    "mxcbv2fb": _mxcb("3.5"),
    "mxcbv1": _mxcb("2.5"),
}

#: Row order of the comparison report.
TABLE_ROWS = tuple(name for name in _FORMULAS if name != _OLD_THEOREM)


class BoundResult(NamedTuple):
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


class BoundTable(NamedTuple):
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
        f"of the pre-repair v1 bound is available as '{_OLD_THEOREM}'"
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
