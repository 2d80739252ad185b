import pytest
from hypothesis import given, settings, strategies as st

from calibench.octonion import (
    MULT_TABLE,
    Octonion,
    chain_product,
    conjugation_chain,
)
from calibench.octonion import _cd_from_coords, _cd_mul, _cd_to_coords

UNITS = [Octonion.basis(i) for i in range(8)]
ONE = UNITS[0]


def octonions():
    return st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=8, max_size=8
    ).map(Octonion)


def test_table_matches_doubling_oracle():
    # independent route: nested pair-doubling down to scalars
    for a in range(8):
        for b in range(8):
            got = UNITS[a] * UNITS[b]
            want = _cd_to_coords(_cd_mul(_cd_from_coords(UNITS[a].co), _cd_from_coords(UNITS[b].co)))
            assert got.co == tuple(want)


def test_unit_squares_and_anticommutation():
    for i in range(1, 8):
        assert UNITS[i] * UNITS[i] == -ONE
        for j in range(1, 8):
            if i != j:
                assert UNITS[i] * UNITS[j] == -(UNITS[j] * UNITS[i])


def test_basis_and_float_rejection():
    assert Octonion.basis(0) == ONE
    with pytest.raises(TypeError):
        Octonion((0.5,) * 8)
    with pytest.raises(ValueError):
        Octonion((1, 2, 3))


class TestAlgebraIdentities:
    @given(octonions())
    @settings(max_examples=50, deadline=None)
    def test_conjugation_involution_and_norm(self, x):
        assert x.conj().conj() == x
        assert x.conj() * x == ONE.scale(x.norm_sq())
        assert x * x.conj() == ONE.scale(x.norm_sq())

    @given(octonions(), octonions())
    @settings(max_examples=50, deadline=None)
    def test_conjugation_antiautomorphism(self, x, y):
        assert (x * y).conj() == y.conj() * x.conj()

    @given(octonions(), octonions())
    @settings(max_examples=50, deadline=None)
    def test_norm_composition(self, x, y):
        assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()

    @given(octonions(), octonions(), octonions())
    @settings(max_examples=50, deadline=None)
    def test_inner_product_adjoints(self, x, y, z):
        assert x.inner(y * z) == (x * z.conj()).inner(y)
        assert x.inner(z * y) == (z.conj() * x).inner(y)

    @given(octonions(), octonions())
    @settings(max_examples=50, deadline=None)
    def test_alternative_laws(self, x, y):
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)
        assert x * (y * x) == (x * y) * x

    @given(octonions(), octonions(), octonions())
    @settings(max_examples=50, deadline=None)
    def test_orthogonal_swap_rules(self, x, y, z):
        # project off the x component so <x, y> = 0 exactly
        nx = x.norm_sq()
        if not nx:
            return
        y = y.scale(nx) - x.scale(x.inner(y))
        assert x.inner(y) == 0
        lhs = x * (y.conj() * z)
        rhs = -(y * (x.conj() * z))
        assert lhs == rhs
        assert (z * x.conj()) * y == -((z * y.conj()) * x)


class TestQuaternionPairRules:
    # the subalgebra rules used to assemble four-fold products
    def test_doubled_unit_rules(self):
        e = UNITS[4]
        for x in UNITS[1:4]:
            xe = x * e
            assert xe * x == e
            assert e * xe == x
        for x in UNITS[1:4]:
            for y in UNITS[1:4]:
                if x == y:
                    continue
                assert x * (y * e) == (y * x) * e
                assert (x * e) * (y * e) == y * x

    def test_mixed_products_land_in_doubled_half(self):
        for a in range(1, 4):
            for b in range(4, 8):
                _s, c = MULT_TABLE[a][b]
                assert c >= 4


class TestChains:
    def test_full_basis_chain(self):
        assert conjugation_chain(UNITS) == ONE

    def test_doubled_quadruple(self):
        assert conjugation_chain([UNITS[4], UNITS[5], UNITS[6], UNITS[7]]) == ONE

    @given(octonions(), octonions())
    @settings(max_examples=30, deadline=None)
    def test_two_step_chain(self, x, y):
        assert conjugation_chain([x, y]) == y.conj() * x

    def test_first_pair_value(self):
        assert conjugation_chain([UNITS[0], UNITS[1]]) == -UNITS[1]

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            conjugation_chain(UNITS[:3])

    @given(st.lists(octonions(), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_chain_product_folds_from_the_right(self, xs):
        acc = UNITS[0]
        for x in reversed(xs):
            acc = acc * x
        assert chain_product(xs) == acc
