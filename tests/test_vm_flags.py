"""Exhaustive checks of the lazy-flag encoding and the Jcc predicates.

The translated executor carries flags symbolically as ``(fk, fa, fb)``
— concrete bits, a pending CMP, or a pending TEST — and collapses them
only when observed.  These tests pin the encoding against a direct
architectural model over every condition code and the unsigned 64-bit
boundary operands, so any drift in the lazy encoding shows up here
before it shows up as a one-bit divergence deep inside a benchmark.

The ``test_eval_jcc_*`` tests ``eval`` the predicate source the
translator emits for each condition code (``_CMP_PRED``, ``_TEST_PRED``,
``_CONC_PRED`` and the inline three-way dispatch on entry flags) with
the sign-bit parameter bound exactly as a generated block binds it.
"""

import itertools

import pytest

from repro.isa.instructions import COND_JUMPS, Op
from repro.vm.translate import (
    _CMP_PRED, _CONC_PRED, _TEST_PRED, _jcc_pred, materialize_flags,
    pack_flags,
)

_U64 = (1 << 64) - 1
_SIGN = 1 << 63

#: Unsigned boundary operands: zero, one, the signed-positive maximum,
#: the signed minimum, and the unsigned maximum (-1).
BOUNDARY = (0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1)


def _signed(v: int) -> int:
    return v - (1 << 64) if v & _SIGN else v


def _cmp_flags(a: int, b: int):
    """Architectural flags after ``CMP a, b``."""
    return a == b, _signed(a) < _signed(b), a < b


def _test_flags(a: int, b: int):
    """Architectural flags after ``TEST a, b``."""
    v = a & b
    return v == 0, bool(v & _SIGN), False


def _eval_pred(src: str, fk: int, fa: int, fb: int) -> bool:
    """Evaluate emitted predicate source on a lazy flag state, the
    sign-bit expression bound to the template parameter ``SG``."""
    return bool(eval(src, {}, {"fk": fk, "fa": fa, "fb": fb,
                               "SG": _SIGN}))


def _ref_pred(op: int, f_eq: bool, f_lt_s: bool, f_lt_u: bool) -> bool:
    """Condition-code semantics straight from the x86 tables."""
    return {
        Op.JE: f_eq,
        Op.JNE: not f_eq,
        Op.JL: f_lt_s,
        Op.JLE: f_lt_s or f_eq,
        Op.JG: not (f_lt_s or f_eq),
        Op.JGE: not f_lt_s,
        Op.JB: f_lt_u,
        Op.JBE: f_lt_u or f_eq,
        Op.JA: not (f_lt_u or f_eq),
        Op.JAE: not f_lt_u,
    }[op]


def test_pack_materialize_roundtrip_all_combinations():
    for f_eq, f_lt_s, f_lt_u in itertools.product((False, True),
                                                  repeat=3):
        packed = pack_flags(f_eq, f_lt_s, f_lt_u)
        assert materialize_flags(0, packed, 0) == (f_eq, f_lt_s, f_lt_u)


def test_pack_is_dense_and_stable():
    # The three booleans map to bits 0..2; nothing else may leak in.
    seen = {pack_flags(*combo) for combo in
            itertools.product((False, True), repeat=3)}
    assert seen == set(range(8))


@pytest.mark.parametrize("a", BOUNDARY)
@pytest.mark.parametrize("b", BOUNDARY)
def test_pending_cmp_matches_architectural_model(a, b):
    assert materialize_flags(1, a, b) == _cmp_flags(a, b)


@pytest.mark.parametrize("a", BOUNDARY)
@pytest.mark.parametrize("b", BOUNDARY)
def test_pending_test_matches_architectural_model(a, b):
    assert materialize_flags(2, a & b, 0) == _test_flags(a, b)


def test_predicate_tables_cover_every_condition_code():
    assert set(_CMP_PRED) == set(_TEST_PRED) == set(_CONC_PRED) \
        == set(COND_JUMPS)


@pytest.mark.parametrize("op", sorted(COND_JUMPS))
@pytest.mark.parametrize("a", BOUNDARY)
@pytest.mark.parametrize("b", BOUNDARY)
def test_eval_jcc_pending_cmp_all_codes(op, a, b):
    # In-block CMP: fa, fb are the unsigned operands.
    src = _CMP_PRED[op].format(sg="SG")
    assert _eval_pred(src, 1, a, b) == _ref_pred(op, *_cmp_flags(a, b))


@pytest.mark.parametrize("op", sorted(COND_JUMPS))
@pytest.mark.parametrize("a", BOUNDARY)
@pytest.mark.parametrize("b", BOUNDARY)
def test_eval_jcc_pending_test_all_codes(op, a, b):
    # In-block TEST: fa is the masked value.  TEST leaves fb as a
    # stale CMP operand, so the predicate must not read it.
    src = _TEST_PRED[op].format(sg="SG")
    for stale in BOUNDARY:
        assert _eval_pred(src, 2, a & b, stale) == \
            _ref_pred(op, *_test_flags(a, b))


@pytest.mark.parametrize("op", sorted(COND_JUMPS))
def test_eval_jcc_concrete_agrees_with_lazy(op):
    # Concrete packed flags (fk == 0) — what a block sees after an
    # escape materialized them — must agree with the pending forms.
    for a, b in itertools.product(BOUNDARY, repeat=2):
        for fk, fa, fb, flags in ((1, a, b, _cmp_flags(a, b)),
                                  (2, a & b, 0, _test_flags(a, b))):
            packed = pack_flags(*materialize_flags(fk, fa, fb))
            assert _eval_pred(_CONC_PRED[op], 0, packed, 0) == \
                _ref_pred(op, *flags)


@pytest.mark.parametrize("op", sorted(COND_JUMPS))
@pytest.mark.parametrize("a", BOUNDARY)
@pytest.mark.parametrize("b", BOUNDARY)
def test_entry_flags_three_way_predicate_all_codes(op, a, b):
    # Entry flags of unknown kind: the inline dispatch on ``fk`` must
    # pick the right table for every kind the flags can arrive in.
    src = _jcc_pred(op, 0, "SG")
    cmp_flags, test_flags = _cmp_flags(a, b), _test_flags(a, b)
    assert _eval_pred(src, 1, a, b) == _ref_pred(op, *cmp_flags)
    for stale in BOUNDARY:  # fb is dead on TEST and concrete flags
        assert _eval_pred(src, 2, a & b, stale) == \
            _ref_pred(op, *test_flags)
        for flags in (cmp_flags, test_flags):
            assert _eval_pred(src, 0, pack_flags(*flags), stale) == \
                _ref_pred(op, *flags)
    # With the kind known at compile time the plain tables are used.
    assert _jcc_pred(op, 1, "SG") == _CMP_PRED[op].format(sg="SG")
    assert _jcc_pred(op, 2, "SG") == _TEST_PRED[op].format(sg="SG")
