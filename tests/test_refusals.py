"""Each library refusal of a malformed input raises its own error type with
its own message: the guards that no other test reaches, one case each."""

import operator
import re

import pytest

from quasifix.freegroup import (FreeEndo, IntMatrix2, Word, WordError, stallings_fold,
                                word_evaluate)
from quasifix.gf import FieldError, field_create
from quasifix.matrep import Mat2, MatTuple, ProjPoint, pgl_dynamics_step, pi_w
from quasifix.poly import (IqSystem, MPoly, PolyError, PolyMap, PolyParseError,
                           TermBudgetExceeded, parse_poly)


def _identity(p: int, m: int = 1) -> Mat2:
    field = field_create(p, m)
    return Mat2.from_entries(field, (field.one(), field.zero(), field.zero(), field.one()))


def _x(index: int, nvars: int, p: int = 5) -> MPoly:
    return MPoly.var(index, nvars, p)


def _dense(terms: int) -> MPoly:
    return MPoly(1, 5, {(e,): 1 for e in range(terms)})


REFUSALS = {
    # gf
    "element_length": (lambda: field_create(5, 1).element([1, 2]),
                       FieldError, "expected 1 coefficients, got 2"),
    "index_range": (lambda: field_create(5, 1).from_int(5),
                    FieldError, "element index 5 out of range for order 5"),
    "negative_frobenius": (lambda: field_create(2, 2).one().frobenius(-1),
                           FieldError, "Frobenius power must be nonnegative"),
    # poly
    "variable_index": (lambda: _x(3, 2), PolyError, "variable index 3 out of range 1..2"),
    "operand_rings": (lambda: _x(1, 2) + _x(1, 1),
                      PolyError, "operands live in different polynomial rings"),
    "product_budget": (lambda: _dense(1001) * _dense(1000),
                       TermBudgetExceeded, "product of 1001 x 1000 terms over budget"),
    "negative_power": (lambda: _x(1, 1) ** -1, PolyError, "negative polynomial power"),
    "point_fields": (lambda: _x(1, 2).evaluate([field_create(5, 1).one(),
                                                field_create(5, 2).one()]),
                     PolyError, "point coordinates belong to different fields"),
    "substitution_count": (lambda: _x(1, 2).substitute([_x(1, 1)]),
                           PolyError, "substitution needs 2 polynomials, got 1"),
    "substitution_rings": (lambda: _x(1, 2).substitute([_x(1, 1), _x(1, 2)]),
                           PolyError, "substituted polynomials live in different rings"),
    "composite_characteristic": (lambda: parse_poly("x1", 1, 4),
                                 PolyParseError, "characteristic 4 is not prime"),
    "empty_map": (lambda: PolyMap([]), PolyError, "a polynomial map needs at least one coordinate"),
    "coordinate_rings": (lambda: PolyMap([_x(1, 1), _x(1, 2)]),
                         PolyError, "coordinates live in different polynomial rings"),
    "compose_spaces": (lambda: PolyMap.identity(1, 5).compose(PolyMap.identity(2, 5)),
                       PolyError, "composed maps live on different spaces"),
    "negative_iterate": (lambda: PolyMap.identity(1, 5).iterate(-1),
                         PolyError, "iteration count must be nonnegative"),
    "system_ring": (lambda: IqSystem(PolyMap.identity(1, 2), 4).normal_form(_x(1, 2, 2)),
                    PolyError, "polynomial lives in a different ring than the system"),
    "congruence_index": (lambda: IqSystem(PolyMap.identity(1, 2), 4).iterate_congruence_check(0),
                         PolyError, "iterate index must be >= 1"),
    # freegroup
    "image_rank": (lambda: FreeEndo([Word.parse("a", 2)], 1),
                   WordError, "image word rank does not match endomorphism rank"),
    "apply_rank": (lambda: FreeEndo.parse(["a"], 1).apply(Word.parse("a", 2)),
                   WordError, "word rank does not match endomorphism rank"),
    "evaluate_rank": (lambda: word_evaluate(Word.parse("ab", 2), [1], operator.mul,
                                            operator.neg, 0),
                      WordError, "1 elements supplied for rank 2"),
    "fold_nothing": (lambda: stallings_fold([]), WordError, "folding needs at least one word"),
    "fold_ranks": (lambda: stallings_fold([Word.parse("a", 1), Word.parse("a", 2)]),
                   WordError, "words have different ranks"),
    "integer_inverse": (lambda: IntMatrix2(2, 0, 0, 1).inverse(),
                        ValueError, "integer inverse requires determinant 1"),
    # matrep
    "empty_tuple": (lambda: MatTuple([]), WordError, "a matrix tuple needs at least one component"),
    "pi_w_rank": (lambda: pi_w(Word.parse("a", 2), MatTuple([_identity(5)])),
                  WordError, "word rank 2 does not match tuple length 1"),
    "step_rank": (lambda: pgl_dynamics_step(FreeEndo.parse(["a", "b"], 2),
                                            ProjPoint(MatTuple([_identity(5)]))),
                  WordError, "endomorphism rank does not match tuple length"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_refusal_names_its_input(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
