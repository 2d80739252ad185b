import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from calibench.octonion import (
    MULT_TABLE,
    Octonion,
    chain_product,
    conjugation_chain,
)
from calibench.octonion import _cd_conj, _cd_from_coords, _cd_mul, _cd_to_coords

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


def test_scale_refuses_floats():
    with pytest.raises(TypeError, match="not float"):
        UNITS[1].scale(0.1)
    with pytest.raises(TypeError, match="not float"):
        UNITS[1].scale(2.0)
    assert UNITS[1].scale(Fraction(1, 10)).co[1] == Fraction(1, 10)


@pytest.mark.parametrize("i", [8, 9, -1, -8])
def test_basis_index_out_of_range(i):
    with pytest.raises(ValueError, match="0..7"):
        Octonion.basis(i)


@pytest.mark.parametrize("other", [1, Fraction(1, 2), (1,) * 8])
def test_arithmetic_with_a_non_octonion_is_a_type_error(other):
    x = UNITS[1]
    for op in (lambda: x + other, lambda: other + x, lambda: x - other, lambda: other - x,
               lambda: x * other, lambda: other * x, lambda: x.inner(other)):
        with pytest.raises(TypeError):
            op()


def _oracle_mul(x, y):
    return tuple(_cd_to_coords(_cd_mul(_cd_from_coords(x.co), _cd_from_coords(y.co))))


def _oracle_inner(x, y):
    # <x, y> = Re(x conj(y)), on the pair-doubling route
    return _cd_to_coords(_cd_mul(_cd_from_coords(x.co), _cd_conj(_cd_from_coords(y.co))))[0]


def _seeded_pairs(seed, count, coord):
    rng = random.Random(seed)
    return [(Octonion([coord(rng) for _ in range(8)]), Octonion([coord(rng) for _ in range(8)]))
            for _ in range(count)]


def _mixed(rng):
    # ints, Fractions with denominator 1, and Fractions over denominators 2..12
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-9, 9), rng.randint(2, 12))


class TestCommonDenominator:
    def test_product_and_inner_match_the_oracle_on_rational_pairs(self):
        dens = set()
        for x, y in _seeded_pairs(11, 300, _mixed):
            dens.update(Fraction(c).denominator for c in x.co)
            assert (x * y).co == _oracle_mul(x, y)
            # the product keeps its unreduced denominator, the rebuilt one the lcm
            rebuilt = Octonion(_oracle_mul(x, y))
            assert x * y == rebuilt and hash(x * y) == hash(rebuilt)
            assert x.inner(y) == _oracle_inner(x, y)
            assert x.norm_sq() == _oracle_inner(x, x)
        assert len(dens) == 12

    def test_product_and_inner_match_the_oracle_on_integer_pairs(self):
        for x, y in _seeded_pairs(12, 300, lambda rng: rng.randint(-50, 50)):
            assert (x * y).co == _oracle_mul(x, y)
            assert x.inner(y) == _oracle_inner(x, y)

    def test_integer_inputs_stay_int(self):
        for x, y in _seeded_pairs(13, 50, lambda rng: rng.randint(-9, 9)):
            for z in (x, x * y, x + y, x - y, -x, x.conj(), x.scale(3)):
                assert all(type(c) is int for c in z.co)
            assert type(x.norm_sq()) is int and type(x.inner(y)) is int
        assert all(type(c) is int for c in (UNITS[3] * UNITS[5]).co)

    def test_int_and_fraction_twins_are_equal_and_hash_equal(self):
        for x, _y in _seeded_pairs(14, 50, lambda rng: rng.randint(-9, 9)):
            twin = Octonion([Fraction(c) for c in x.co])
            assert all(type(c) is Fraction for c in twin.co)
            assert twin == x and hash(twin) == hash(x)
            assert len({twin, x}) == 1
        assert UNITS[2] == Octonion([Fraction(int(m == 2)) for m in range(8)])


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
