"""Tower file grammar, expression parsing, and print round-trips."""

import pytest

from fieldsep.basefields import PrimeField, RationalFunctionField
from fieldsep.corpus import BUILTIN
from fieldsep.errors import HeightBoundExceeded, InputError, ReducibleError
from fieldsep.parse import parse_element, parse_poly, parse_tower, tokenize
from fieldsep.poly import Poly
from fieldsep.towers import (extension_stages, minimal_polynomial, poly_eval,
                             tower_stages)

F3 = PrimeField(3)


def test_tokenize():
    assert tokenize("x^2 + 2*x + 1") == ["x", "^", "2", "+", "2", "*", "x",
                                         "+", "1"]
    assert tokenize("x**3") == ["x", "^", "3"]
    with pytest.raises(InputError):
        tokenize("x @ 1")


def test_parse_poly_precedence():
    x = Poly.x(F3)
    one = Poly.one(F3)
    assert parse_poly("x^2 + 2*x + 1", F3) == x * x + x.scale(F3.element(2)) + one
    assert parse_poly("-x", F3) == -x
    assert parse_poly("(x + 1)*(x + 2)", F3) == (x + one) * (x + one + one)
    assert parse_poly("2*x^2", F3) == (x * x).scale(F3.element(2))
    assert parse_poly("x - 1", F3) == x - one


def test_parse_poly_errors():
    with pytest.raises(InputError):
        parse_poly("x + y", F3)           # unknown name
    with pytest.raises(InputError):
        parse_poly("x + 1)", F3)          # trailing input
    with pytest.raises(InputError):
        parse_poly("(x + 1", F3)          # unbalanced
    with pytest.raises(InputError):
        parse_poly("x ^ x", F3)           # non-integer exponent
    with pytest.raises(InputError):
        parse_poly("t + 1", F3)           # t needs a rational-function base


def test_parse_element_rejects_x():
    K = RationalFunctionField(3)
    assert parse_element("t^2 + 1", K) == K.t ** 2 + 1
    with pytest.raises(InputError):
        parse_element("x + t", K)


def test_parse_tower_basic():
    spec = parse_tower("""\
# a comment line
base FpT 3

gen s : x^2 + 2*t   # inline comment
elem a = s + 1
""")
    E = spec.field
    assert E.absolute_degree == 2
    assert poly_eval(E.minpoly, spec.element("s")).is_zero()
    assert spec.element("a") == spec.element("s") + 1


def test_parse_tower_errors():
    with pytest.raises(InputError):
        parse_tower("gen s : x^2 + 1\n")               # gen before base
    with pytest.raises(InputError):
        parse_tower("base Fq 3\n")                     # malformed base
    with pytest.raises(InputError):
        parse_tower("base Fp 3\nbase Fp 3\n")          # duplicate base
    with pytest.raises(InputError):
        parse_tower("base Fp 2\ngen t : x^2 + x + 1\n")  # reserved name
    with pytest.raises(InputError):
        parse_tower("base Fp 2\ngen w : 2*x^2 + x\n")  # non-monic generator
    with pytest.raises(InputError):
        parse_tower("base Fp 2\nfrobnicate w\n")       # unknown directive
    with pytest.raises(InputError):
        parse_tower("")                                # no base at all
    with pytest.raises(ReducibleError):
        parse_tower("base Fp 2\ngen w : x^2 + 1\n")    # (x+1)^2
    spec = parse_tower("base Fp 2\ngen w : x^2 + x + 1\n")
    with pytest.raises(InputError):
        spec.element("nope")


def test_height_gate_applies_to_gen_lines_only():
    # x^2 + x + t^h is irreducible over F_2(t) for every h (Artin-Schreier)
    for bound in (None, 0, 6, 8):
        kwargs = {} if bound == 6 else {"height_bound": bound}
        for h in (0, 1, 6, 7, 9):
            text = f"base FpT 2\ngen s : x^2 + x + t^{h}\n"
            if bound is None or h <= bound:
                assert parse_tower(text, **kwargs).field.absolute_degree == 2
                continue
            with pytest.raises(HeightBoundExceeded) as info:
                parse_tower(text, **kwargs)
            assert str(info.value) == (
                f"input coefficient t-degree {h} exceeds the height bound "
                f"{bound}")
    # an elem line is never gated, nor the stage's minimal polynomial
    spec = parse_tower("base FpT 3\ngen s : x^2 + t\nelem a = s + t^20\n",
                       height_bound=1)
    assert minimal_polynomial(spec.element("a")).degree == 2


def test_a_negative_height_bound_is_an_input_error():
    with pytest.raises(InputError, match="height bound must be >= 0"):
        parse_tower("base Fp 2\ngen w : x^2 + x + 1\n", height_bound=-1)
    with pytest.raises(InputError, match="height bound must be >= 0"):
        parse_tower("", height_bound=-1)       # before any line is read


def test_intermediate_elements_live_in_the_top_field():
    spec = parse_tower("""\
base Fp 2
gen w : x^2 + x + 1
elem a = w + 1
gen v : x^2 + x + w
elem b = a + v
""")
    E = spec.field
    assert spec.element("a").field == E
    assert spec.element("b") == spec.element("a") + spec.element("v")


def format_spec(spec):
    """A canonical text form of a parsed tower: its base line, a gen line
    per stage and an elem line per other name, each element written over
    the top field."""
    E = spec.field
    K = E.base
    stages = extension_stages(E)
    gens = {s.gen_name for s in stages}
    lines = [f"base {'Fp' if K.kind == 'prime' else 'FpT'} {K.characteristic}"]
    lines.extend(f"gen {s.gen_name} : {s.minpoly!r}" for s in stages)
    lines.extend(f"elem {name} = {a!r}" for name, a in spec.names.items()
                 if name not in gens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("entry", BUILTIN, ids=lambda e: e.name)
def test_round_trip_reproduces_the_tower(entry):
    spec = parse_tower(entry.text)
    text = format_spec(spec)
    again = parse_tower(text)
    assert format_spec(again) == text  # canonical form is a fixed point
    assert again.field.absolute_degree == spec.field.absolute_degree
    assert sorted(again.names) == sorted(spec.names)
    for (s1, s2) in zip(tower_stages(spec.field), tower_stages(again.field)):
        if s1.kind == "extension":
            assert s1.gen_name == s2.gen_name
            assert [c.rep for c in _abs_coeffs(s1)] == \
                [c.rep for c in _abs_coeffs(s2)]
    for name in spec.names:
        assert minimal_polynomial(spec.element(name)).coeffs == \
            minimal_polynomial(again.element(name)).coeffs


def _abs_coeffs(stage):
    from fieldsep.towers import flatten
    out = []
    for c in stage.minpoly.coeffs:
        out.extend(flatten(c))
    return out
