import math
import re
from fractions import Fraction

import pytest

import gfref
from gfref import compute_inc_sets, exhaustive_offsets
from wideblock.analysis import (
    DEFAULT_PARAMS,
    TABLE_ROWS,
    BoundParams,
    UnknownScheme,
    _FORMULAS,
    eval_bound,
    inc_set_counts,
    parse_magnitude,
    sample_w32,
    table1_report,
    w_set,
)
from wideblock.attacks import AttackReport
from wideblock.field import GROUP_ORDER, GROUP_ORDER_FACTORS

# Frozen by the exhaustive pre-build oracle: the largest number of new XOR
# offsets any single increment count contributes at width 8 (reached at r=1).
WIDTH8_WMAX = 8


def test_r0_sets():
    table = compute_inc_sets(width=8, r_max=4)
    assert table.y_sets[0] == frozenset({0})
    assert table.w_sets[0] == frozenset({0})
    assert table.w_cardinalities[0] == 1


def test_width8_wmax_regression():
    table = compute_inc_sets(width=8, r_max=255)
    assert table.w_max == WIDTH8_WMAX
    counts = inc_set_counts(8, 255)
    assert counts == list(table.w_cardinalities) and max(counts) == WIDTH8_WMAX


def test_width8_membership():
    table = compute_inc_sets(width=8, r_max=255)
    for r in range(256):
        ys = table.y_sets[r]
        for x in range(256):
            assert (((x + r) & 0xFF) ^ x) in ys


def test_width8_partition():
    table = compute_inc_sets(width=8, r_max=255)
    union_w: set[int] = set()
    union_y: set[int] = set()
    for r in range(256):
        assert not (table.w_sets[r] & union_w)  # pairwise disjoint
        union_w |= table.w_sets[r]
        union_y |= table.y_sets[r]
        assert union_w == union_y
    assert union_w == set(range(256))  # every offset eventually realized


def test_no_offset_shared_by_two_increment_counts_at_one_point():
    # for each fixed x the offset map r -> inc^r(x) xor x is injective
    for x in range(256):
        offsets = {((x + r) & 0xFF) ^ x for r in range(256)}
        assert len(offsets) == 256


def test_carry_class_matches_exhaustive_width12():
    for r in range(256):
        assert gfref.carry_class_offsets(12, r) == exhaustive_offsets(12, r)


def test_carry_class_matches_exhaustive_width8_all_r():
    for r in range(256):
        assert gfref.carry_class_offsets(8, r) == exhaustive_offsets(8, r)


def test_w_set_and_counts_reject_bad_ranges():
    for width, r in ((0, 1), (1, -1)):
        with pytest.raises(ValueError):
            w_set(width, r)
        with pytest.raises(ValueError):
            inc_set_counts(width, r)


def test_sample_w32_small():
    sample = sample_w32(r_max=256)
    assert sample.w_cardinalities[0] == 1
    assert sample.w_max_observed <= 32
    assert all(w <= 32 for w in sample.w_cardinalities.values())


def test_sample_w32_reporting_subset():
    sample = sample_w32(r_max=64, samples=10, seed=3)
    assert len(sample.w_cardinalities) == 10
    full = sample_w32(r_max=64)
    for r, w in sample.w_cardinalities.items():
        assert full.w_cardinalities[r] == w
    # the observed max covers every computed r, not just the reported ones
    assert sample.w_max_observed == full.w_max_observed


# ---------------------------------------------------------------------------
# Bound evaluation

REFERENCE_LOG2 = {
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


def test_default_params_are_the_comparison_point():
    assert DEFAULT_PARAMS.q == 2**30
    assert DEFAULT_PARAMS.ell == 2**8 + 1
    assert DEFAULT_PARAMS.sigma == 2**38 + 2**30  # not a rounded 2^38.006
    assert DEFAULT_PARAMS.n == 128


def test_table_matches_reference_values():
    table = table1_report()
    assert [row.scheme for row in table.rows] == list(TABLE_ROWS)
    assert len(table.rows) == 12
    for row in table.rows:
        assert abs(row.advantage_log2 - REFERENCE_LOG2[row.scheme]) <= 0.05, row.scheme


def test_old_v1_constant_discrepancy_is_surfaced():
    table_row = eval_bound("xcbv1-old-table", DEFAULT_PARAMS)
    theorem_row = eval_bound("xcbv1-old-theorem", DEFAULT_PARAMS)
    assert theorem_row.advantage < table_row.advantage
    assert "xcbv1-old-theorem" in table1_report().note


def test_unknown_scheme():
    with pytest.raises(UnknownScheme):
        eval_bound("nope", DEFAULT_PARAMS)


def test_doubling_q_only_moves_q_led_rows():
    doubled = BoundParams(
        q=2 * DEFAULT_PARAMS.q,
        ell=DEFAULT_PARAMS.ell,
        sigma=DEFAULT_PARAMS.sigma,
        n=DEFAULT_PARAMS.n,
    )
    sigma_dominated = {"tet", "hctr", "cmc", "eme", "heh", "mxcbv2fb", "mxcbv1"}
    for scheme in TABLE_ROWS:
        before = eval_bound(scheme, DEFAULT_PARAMS).advantage_log2
        after = eval_bound(scheme, doubled).advantage_log2
        if scheme in sigma_dominated:
            assert abs(after - before) < 1e-3, scheme
        else:
            assert after - before > 0.9, scheme


def test_smaller_blocks_worsen_every_bound():
    small = BoundParams(
        q=DEFAULT_PARAMS.q, ell=DEFAULT_PARAMS.ell, sigma=DEFAULT_PARAMS.sigma, n=64
    )
    for scheme in TABLE_ROWS:
        assert (
            eval_bound(scheme, small).advantage
            > eval_bound(scheme, DEFAULT_PARAMS).advantage
        ), scheme


def test_bound_arithmetic_is_exact():
    from fractions import Fraction

    row = eval_bound("mxcbv1", DEFAULT_PARAMS)
    q, sigma = DEFAULT_PARAMS.q, DEFAULT_PARAMS.sigma
    assert row.advantage == Fraction(5 * q**2 + 2 * sigma**2, 2 * 2**128)
    assert math.isclose(row.advantage_log2, math.log2(float(row.advantage)))


def _phi(m: Fraction) -> int:
    """Euler's phi of a divisor of 2^128 - 1, which is squarefree."""
    m = int(m)
    assert GROUP_ORDER % m == 0
    return math.prod(f - 1 for f in GROUP_ORDER_FACTORS if m % f == 0)


def _read_formula(text: str, params: BoundParams) -> Fraction:
    """A printed formula as exact arithmetic: decimal literals as Fractions,
    ^ as a power and phi as Euler's totient."""
    assert re.fullmatch(r"[0-9.+\-*/^() a-z]+", text), text
    assert set(re.findall(r"[a-z]+", text)) <= {"q", "ell", "sigma", "n", "phi"}, text
    expr = re.sub(r"\d+(\.\d+)?", lambda m: f"Fraction('{m[0]}')", text).replace("^", "**")
    return eval(expr, {"__builtins__": {}}, {"Fraction": Fraction, "phi": _phi, **params._asdict()})


@pytest.mark.parametrize("params", [
    DEFAULT_PARAMS,
    DEFAULT_PARAMS._replace(n=64),
    BoundParams(q=1 << 20, ell=3, sigma=1 << 30, n=64),
    BoundParams(q=7, ell=5, sigma=33, n=64),
    BoundParams(q=3, ell=2, sigma=10),
])
def test_printed_formula_is_the_evaluated_bound(params):
    for scheme in _FORMULAS:
        row = eval_bound(scheme, params)
        assert _read_formula(row.formula, params) == row.advantage, scheme


def test_params_validation():
    with pytest.raises(ValueError):
        BoundParams(q=0, ell=1, sigma=1)
    with pytest.raises(ValueError):
        BoundParams(q=10, ell=1, sigma=5)  # sigma counts blocks >= queries


def test_params_replace_runs_the_checks():
    assert DEFAULT_PARAMS._replace(n=64).n == 64
    with pytest.raises(ValueError):
        DEFAULT_PARAMS._replace(q=0)
    with pytest.raises(ValueError):
        DEFAULT_PARAMS._replace(sigma=DEFAULT_PARAMS.q - 1)


def _bare_report():
    return AttackReport(attack_name="demo", trials=1, successes=0, advantage_estimate=Fraction(0))


@pytest.mark.parametrize("make", [
    _bare_report,
    lambda: sample_w32(8),
    lambda: DEFAULT_PARAMS,
    lambda: eval_bound("hctr", DEFAULT_PARAMS),
    table1_report,
], ids=["AttackReport", "WideCounterSample", "BoundParams", "BoundResult", "BoundTable"])
def test_records_are_immutable_tuples(make):
    record = make()
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert record == tuple(record)
    assert record._replace() == record


def test_report_without_transcript():
    first, second = _bare_report(), _bare_report()
    assert not any(line.startswith("transcript[") for line in first.serialize().splitlines())
    # The default is an immutable empty tuple, so no report can change
    # another's transcript through it.
    assert first.transcript == second.transcript == ()
    assert isinstance(first.transcript, tuple)


def test_parse_magnitude():
    assert parse_magnitude("2^30") == 2**30
    assert parse_magnitude("2^38+2^30") == 2**38 + 2**30
    assert parse_magnitude("1024") == 1024
    assert parse_magnitude("2^4+16") == 32
    with pytest.raises(ValueError):
        parse_magnitude("3^5")
    assert parse_magnitude("2^4096+2^0") == 2**4096 + 1
    # A negative exponent, or one whose power would not fit in memory, is
    # refused before any shift, naming the term.
    for term in ("2^-1", "2^4097", "2^99999999999"):
        with pytest.raises(ValueError, match=re.escape(repr(term))):
            parse_magnitude(f"2^30+{term}")
    # A malformed term is named together with the whole expression.
    for text, term in (("2^", "2^"), ("2^30+", ""), ("", ""), ("2^x+1", "2^x"), ("1+2^30+k", "k")):
        with pytest.raises(ValueError, match=re.escape(f"{term!r} in {text!r}")):
            parse_magnitude(text)


def test_table_renderings():
    table = table1_report()
    text = table.as_text()
    assert "mxcbv1" in text and "log2(adv)" in text
    structured = table.as_structured()
    assert len(structured.splitlines()) == 12
    assert structured.splitlines()[0].startswith("scheme tet ")
