"""Formula text parsing: grammar coverage and error reporting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlfunnel.errors import FormulaError, ParseError
from stlfunnel.formulas import NonTemporalFormula, SequentialFormula, TemporalFormula
from stlfunnel.parsing import parse_formula, parse_psi
from stlfunnel.predicates import affine, ball, join
from conftest import PSI1_TEXT, PSI2_TEXT, THETA_TEXT


def test_parse_single_always():
    f = parse_formula("G[0,10](ball(0,1;1,2;3))")
    assert f.kind == "s1"
    assert len(f.atoms) == 1
    atom = f.atoms[0]
    assert atom.op == "G" and (atom.a, atom.b) == (0.0, 10.0)
    leaf = atom.psi.leaves[0]
    assert leaf.kind == "ball" and leaf.sel == (0, 1)
    assert leaf.center == (1.0, 2.0) and leaf.radius == 3.0


def test_parse_ordered_conjunction():
    f = parse_formula(THETA_TEXT)
    assert f.kind == "s1"
    assert [atom.op for atom in f.atoms] == ["F", "F"]
    assert [(atom.a, atom.b) for atom in f.atoms] == [(0.0, 50.0), (50.0, 100.0)]
    assert len(f.atoms[0].psi.leaves) == 7
    assert len(f.atoms[1].psi.leaves) == 6


def test_parse_nested_chain():
    f = parse_formula("F[1,2](ball(0;0;1) and F[3,4](ball(0;5;1) and F[0,2](ball(0;9;1))))")
    assert f.kind == "s2"
    assert [(atom.a, atom.b) for atom in f.atoms] == [(1.0, 2.0), (3.0, 4.0), (0.0, 2.0)]


def test_single_eventually_is_not_a_chain():
    f = parse_formula("F[0,5](ball(0;0;1))")
    assert f.kind == "s1"
    assert len(f.atoms) == 1


def test_conjunction_starting_with_always():
    f = parse_formula("G[1,2](ball(0;0;5)) and F[3,4](ball(0;1;5))")
    assert f.kind == "s1"
    assert [atom.op for atom in f.atoms] == ["G", "F"]
    assert [(atom.a, atom.b) for atom in f.atoms] == [(1.0, 2.0), (3.0, 4.0)]


def test_three_atom_conjunction():
    f = parse_formula(
        "F[0,1](ball(0;0;2)) and F[2,3](ball(0;3;2)) and F[4,5](ball(0;6;2))"
    )
    assert f.kind == "s1"
    assert len(f.atoms) == 3
    assert [atom.b for atom in f.atoms] == [1.0, 3.0, 5.0]


def test_band_desugars_to_two_affine_leaves():
    psi = parse_psi("band(2;45;5) and ball(0,1;0,0;1)")
    affs = [leaf for leaf in psi.leaves if leaf.kind == "affine"]
    assert len(affs) == 2
    import numpy as np
    from conftest import brute_leaf

    x = np.array([0.0, 0.0, 43.0])
    values = sorted(brute_leaf(leaf, x) for leaf in affs)
    # |x2 - 45| = 2 inside the width-5 band: margins 3 below, 7 above.
    assert values == pytest.approx([3.0, 7.0])


def test_negated_predicate():
    psi = parse_psi("ball(0;0;5) and not aff(1;2)")
    assert psi.leaves[1].negated


def test_whitespace_and_floats():
    f = parse_formula("  F[0.5, 2.5] ( ball( 0 ; -1.25 ; 0.5 ) )  ")
    atom = f.atoms[0]
    assert (atom.a, atom.b) == (0.5, 2.5)
    assert atom.psi.leaves[0].center == (-1.25,)


def test_fixture_formulas_parse(subtests=None):
    for text in (PSI1_TEXT, PSI2_TEXT):
        psi = parse_psi(text)
        psi.validate()
        assert psi.min_dim == 9


@pytest.mark.parametrize(
    "text",
    [
        "",
        "G[0,10]",
        "G[10,0](ball(0;0;1))",
        "G[-1,1](ball(0;0;1))",
        "ball(0;0;1) and G[0,1](ball(0;0;1))",
        "F[0,1](ball(0;0;-1))",
        "F[0,1](band(0;0;0))",
        "F[0,1](ball(0,1;0;1))",
        "F[0,1](join(0,1;2;1))",
        "F[0,1](aff(0,0;1))",
        "F[0,1](not band(0;0;1))",
        "F[0,1](ball(0;0;1)) extra",
        "F[0,1](frob(0;0;1))",
        "G[0,5](ball(0;0;1)) and F[2,9](ball(0;0;1))",
    ],
)
def test_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_formula(text)


@pytest.mark.parametrize(
    "text, position", [("F[0,1e999](ball(0;0;4))", 4), ("F[0,1](ball(0;1e999;1))", 14)]
)
def test_non_finite_number_is_rejected_at_its_token(text, position):
    with pytest.raises(ParseError, match="finite number") as err:
        parse_formula(text)
    assert err.value.position == position


def test_temporal_formula_rejects_non_finite_bounds():
    psi = parse_psi("ball(0;0;1)")
    for a, b in ((0.0, math.nan), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(FormulaError, match="finite"):
            TemporalFormula(op="F", a=a, b=b, psi=psi)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_formula("F[0,1](wrong(0;0;1))")
    assert err.value.position == 7


def test_negated_conjunction_only_formula_rejected():
    # A conjunction of negated leaves only has no bounded superlevel set.
    with pytest.raises(ParseError):
        parse_formula("F[0,1](not ball(0;0;1))")


def test_chain_requires_eventually():
    with pytest.raises(ParseError):
        parse_formula("F[0,1](ball(0;0;1) and G[0,1](ball(0;2;1)))")


def test_roundtrip_through_sequential_type():
    f = parse_formula(THETA_TEXT)
    assert isinstance(f, SequentialFormula)


@pytest.mark.parametrize("op", ["G", "F"])
def test_unparenthesized_atom_ends_before_next_atom(op):
    f = parse_formula(f"{op}[0,1] ball(0;0;1) and G[2,3] ball(0;1;1)")
    assert f.kind == "s1" and len(f.atoms) == 2
    assert f == parse_formula(f"{op}[0,1](ball(0;0;1)) and G[2,3](ball(0;1;1))")


@pytest.mark.parametrize("step", ["F[2,1](ball(0;1;1))", "F[2,1] ball(0;1;1)"])
def test_bad_chain_step_window_is_reported_at_its_operator(step):
    text = f"F[0,1] (ball(0;0;1) and {step})"
    with pytest.raises(ParseError, match="bad window") as err:
        parse_formula(text)
    assert err.value.position == text.index("F[2,1]")


# -- round trip: random ASTs rendered to text parse back to themselves ----

_INDEX = st.integers(0, 5)
_REAL = st.floats(-100.0, 100.0, allow_nan=False)
_RADIUS = st.floats(0.01, 100.0)


def _seq(values) -> str:
    return ",".join(map(repr, values))


@st.composite
def _term(draw, anchor: bool = False):
    """One predicate as (text, leaves); an anchor is a bounded leaf."""
    kind = draw(st.sampled_from(["ball", "join", "band"] if anchor else ["ball", "join", "aff", "band"]))
    if kind == "band":
        idx, center, width = draw(_INDEX), draw(_REAL), draw(_RADIUS)
        upper = affine((idx,), (1.0,), center + width)
        lower = affine((idx,), (-1.0,), width - center)
        return f"band({idx};{center!r};{width!r})", [upper, lower]
    n = draw(st.integers(1, 3))
    sel = draw(st.lists(_INDEX, min_size=n, max_size=n))
    if kind == "ball":
        center, radius = draw(st.lists(_REAL, min_size=n, max_size=n)), draw(_RADIUS)
        text, leaf = f"ball({_seq(sel)};{_seq(center)};{radius!r})", ball(sel, center, radius)
    elif kind == "join":
        sel_b, radius = draw(st.lists(_INDEX, min_size=n, max_size=n)), draw(_RADIUS)
        text, leaf = f"join({_seq(sel)};{_seq(sel_b)};{radius!r})", join(sel, sel_b, radius)
    else:
        coeffs = draw(st.lists(_REAL.filter(bool), min_size=n, max_size=n))
        dense = {i: c for i, c in zip(sel, coeffs)}
        offset = draw(_REAL)
        text = f"aff({_seq(dense.get(i, 0.0) for i in range(max(dense) + 1))};{offset!r})"
        leaf = affine(sorted(dense), [dense[i] for i in sorted(dense)], offset)
    if not anchor and draw(st.booleans()):
        return "not " + text, [leaf.negate()]
    return text, [leaf]


@st.composite
def _psi(draw, bare: bool):
    """A conjunction as (text, psi), some terms grouped in parentheses.

    A bare argument may not open with "(", which would read as its own
    parentheses.
    """
    terms = draw(st.lists(_term(), max_size=3))
    terms.insert(draw(st.integers(0, len(terms))), draw(_term(anchor=True)))
    texts = [text for text, _ in terms]
    i = draw(st.integers(int(bare), len(texts)))
    j = draw(st.integers(i, len(texts)))
    if j > i:
        texts[i:j] = ["(" + " and ".join(texts[i:j]) + ")"]
    text = " and ".join(texts)
    psi = NonTemporalFormula(tuple(leaf for _, leaves in terms for leaf in leaves))
    return (text if bare else f"({text})"), psi


@st.composite
def _formula(draw):
    chain = draw(st.booleans())
    k = draw(st.integers(2, 4) if chain else st.integers(1, 3))
    times = sorted(draw(st.lists(st.floats(0.0, 100.0), min_size=2 * k, max_size=2 * k)))
    texts, atoms = [], []
    for step in range(k):
        op = "F" if chain else draw(st.sampled_from("GF"))
        a, b = times[2 * step : 2 * step + 2]
        # Only the last chain step may leave its argument bare.
        bare = draw(st.booleans()) and (not chain or step == k - 1)
        arg, psi = draw(_psi(bare))
        space = " " if bare else draw(st.sampled_from(["", " "]))
        texts.append(f"{op}[{a!r},{b!r}]{space}{arg}")
        atoms.append(TemporalFormula(op=op, a=a, b=b, psi=psi))
    if chain:
        text = texts[-1]
        for step_text in reversed(texts[:-1]):
            text = step_text[:-1] + f" and {text})"
    else:
        text = " and ".join(texts)
    return text, SequentialFormula(kind="s2" if chain else "s1", atoms=tuple(atoms))


@settings(max_examples=300, deadline=None)
@given(_formula())
def test_rendered_formula_parses_back(case):
    text, expected = case
    assert parse_formula(text, allow_nonconcave=True) == expected
