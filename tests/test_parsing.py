"""Formula text parsing: grammar coverage and error reporting."""

import pytest

from stlfunnel.errors import ParseError
from stlfunnel.formulas import SequentialFormula
from stlfunnel.parsing import parse_formula, parse_psi
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
    from stlfunnel.robustness import leaf_values

    x = np.array([0.0, 0.0, 43.0])
    values = sorted(
        h for leaf, h in zip(psi.leaves, leaf_values(psi, x)) if leaf.kind == "affine"
    )
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
