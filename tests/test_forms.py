import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calibench.clifford import endo_to_form, rep16
from calibench.forms import (
    ComplexForm,
    RealForm,
    SchemaError,
    _term_arrays,
    alternation,
    blade_mask,
    cwedge,
    dump_form,
    evaluate,
    form_from_dict,
    form_to_dict,
    hodge_star,
    inner_product,
    load_form,
    mask_indices,
    perm_sign,
    pullback,
    reorder_sign,
    wedge,
    wedge_power,
)


def blades_of(n, k):
    return list(itertools.combinations(range(1, n + 1), k))


def rationals():
    return st.fractions(min_value=-4, max_value=4, max_denominator=6)


def forms(n, grade=None, max_terms=4):
    if grade is None:
        pool = [b for k in range(n + 1) for b in blades_of(n, k)]
    else:
        pool = blades_of(n, grade)
    return st.dictionaries(st.sampled_from(pool), rationals(), max_size=max_terms).map(
        lambda d: RealForm(n, d)
    )


def homogeneous(n):
    return st.integers(min_value=0, max_value=n).flatmap(lambda k: forms(n, grade=k))


class TestMasks:
    def test_roundtrip(self):
        for mask in range(1 << 6):
            assert blade_mask(mask_indices(mask)) == mask

    def test_blade_mask_rejects_disorder(self):
        with pytest.raises(ValueError):
            blade_mask((2, 1))
        with pytest.raises(ValueError):
            blade_mask((1, 1))
        with pytest.raises(ValueError):
            blade_mask((0, 1))

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_reorder_sign_matches_permutation_sign(self, ma, mb):
        if ma & mb:
            return
        merged = list(mask_indices(ma)) + list(mask_indices(mb))
        order = sorted(range(len(merged)), key=lambda i: merged[i])
        assert reorder_sign(ma, mb) == perm_sign(order)

    def test_perm_sign_on_transposition(self):
        assert perm_sign((0, 1, 2)) == 1
        assert perm_sign((1, 0, 2)) == -1
        assert perm_sign((2, 0, 1)) == 1


class TestWedge:
    @given(forms(4), forms(4), forms(4))
    @settings(max_examples=60, deadline=None)
    def test_bilinear_and_associative(self, a, b, c):
        assert wedge(a, b + c) == wedge(a, b) + wedge(a, c)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    @given(st.integers(min_value=0, max_value=4).flatmap(
        lambda k: st.tuples(st.just(k), forms(4, grade=k))),
        st.integers(min_value=0, max_value=4).flatmap(
        lambda l: st.tuples(st.just(l), forms(4, grade=l))))
    @settings(max_examples=60, deadline=None)
    def test_graded_commutativity(self, ka, lb):
        k, a = ka
        l, b = lb
        sign = -1 if (k * l) % 2 else 1
        assert wedge(a, b) == sign * wedge(b, a)

    @given(forms(5, grade=1))
    @settings(max_examples=40, deadline=None)
    def test_odd_square_vanishes(self, a):
        assert wedge(a, a).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(RealForm.blade(4, (1,)), RealForm.blade(5, (1,)))

    @given(forms(4, grade=2, max_terms=3), st.integers(min_value=0, max_value=2))
    @settings(max_examples=30, deadline=None)
    def test_wedge_power_matches_repeated_wedge(self, a, k):
        expect = RealForm(4, {0: 1})
        for _ in range(k):
            expect = wedge(expect, a)
        assert wedge_power(a, k) == expect


class TestHodge:
    @given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(st.just(n), homogeneous(n))))
    @settings(max_examples=60, deadline=None)
    def test_double_star(self, nf):
        n, a = nf
        k = a.grade()
        if k is None:
            return
        sign = -1 if (k * (n - k)) % 2 else 1
        assert hodge_star(hodge_star(a)) == sign * a

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.integers(min_value=0, max_value=n).flatmap(
            lambda k: st.tuples(forms(n, grade=k), forms(n, grade=k)))))
    @settings(max_examples=60, deadline=None)
    def test_pairing_identity(self, ab):
        # a ^ *b == <a, b> vol, the defining property of the star
        a, b = ab
        assert wedge(a, hodge_star(b)) == inner_product(a, b) * RealForm.volume(a.n)

    def test_star_of_volume_and_one(self):
        n = 5
        assert hodge_star(RealForm(n, {0: 1})) == RealForm.volume(n)
        assert hodge_star(RealForm.volume(n)) == RealForm(n, {0: 1})

    @given(forms(5), forms(5))
    @settings(max_examples=40, deadline=None)
    def test_star_is_an_isometry(self, a, b):
        assert inner_product(hodge_star(a), hodge_star(b)) == inner_product(a, b)


class TestInnerProduct:
    @given(forms(5), forms(5))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, a, b):
        assert inner_product(a, b) == inner_product(b, a)

    @given(forms(5))
    @settings(max_examples=40, deadline=None)
    def test_blades_are_orthonormal(self, a):
        assert inner_product(a, a) == sum(c * c for c in a.terms().values())

    def test_cross_grade_terms_vanish(self):
        a = RealForm(4, {(1,): 1})
        b = RealForm(4, {(1, 2): 1})
        assert inner_product(a, b) == 0


class TestRealFormArithmetic:
    @given(forms(4), forms(4))
    @settings(max_examples=40, deadline=None)
    def test_add_sub(self, a, b):
        assert (a + b) - b == a
        assert a - a == RealForm.zero(4)

    @given(forms(4), rationals())
    @settings(max_examples=40, deadline=None)
    def test_scalar_action(self, a, s):
        assert a * s == s * a
        if s:
            assert (a * s) * (1 / s) == a

    def test_like_terms_collapse(self):
        f = RealForm(4, [((1, 2), Fraction(1, 2)), ((1, 2), Fraction(-1, 2))])
        assert f.is_zero()

    def test_grade_checks(self):
        mixed = RealForm(4, {(1,): 1, (1, 2): 1})
        assert mixed.grades() == [1, 2]
        with pytest.raises(ValueError):
            mixed.grade()
        assert mixed.grade_part(2) == RealForm.blade(4, (1, 2))

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            RealForm(4, {(1, 2): 0.5})

    def test_out_of_range_blade(self):
        with pytest.raises(ValueError):
            RealForm(4, {(1, 5): 1})


class TestEvaluate:
    def test_minor_expansion_oracle(self):
        rng = np.random.default_rng(7)
        for k in (1, 2, 3, 4, 5):
            pool = blades_of(6, k)
            picks = [pool[i] for i in rng.choice(len(pool), size=3, replace=False)]
            f = RealForm(6, {b: Fraction(int(rng.integers(-3, 4)) or 1, 2) for b in picks})
            M = rng.standard_normal((6, k))
            direct = sum(
                float(c) * np.linalg.det(M[[i - 1 for i in idx], :])
                for idx, c in f.terms().items()
            )
            assert abs(evaluate(f, M) - direct) < 1e-12

    def test_alternating_in_arguments(self):
        f = RealForm(5, {(1, 2, 4): 2, (2, 3, 5): -1})
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 3))
        swapped = M[:, [1, 0, 2]]
        assert abs(evaluate(f, M) + evaluate(f, swapped)) < 1e-12

    def test_integer_frames_are_exact(self):
        f = RealForm.blade(3, (1, 2, 3))
        assert evaluate(f, np.eye(3)) == 1.0

    def test_shape_and_grade_errors(self):
        f = RealForm.blade(4, (1, 2))
        with pytest.raises(ValueError):
            evaluate(f, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            evaluate(f, np.zeros((5, 2)))
        with pytest.raises(ValueError):
            evaluate(f, np.array([[np.nan, 0]] * 4))
        for complex_frame in ([[1, 1j], [0, 1]], np.array([[1, 1j], [0, 1]])):
            with pytest.raises(ValueError, match="complex"):
                evaluate(RealForm(2, {(1, 2): 1}), complex_frame)


_A = RealForm(5, {(1, 2): 1, (3, 5): Fraction(1, 3), (2, 4): -2})
_B = RealForm(5, {(1, 2): Fraction(1, 7), (1, 4): 3})

# Every way a form comes to exist; most go through RealForm._own.
_CONSTRUCTIONS = {
    "init": lambda: RealForm(5, {(1, 2, 3): Fraction(2, 3), (2, 4, 5): -1}),
    "add": lambda: _A + _B,
    "sub": lambda: _A - _B,
    "mul": lambda: _A * Fraction(3, 5),
    "wedge": lambda: wedge(_A, _B),
    "hodge_star": lambda: hodge_star(_A),
    "grade_part": lambda: (_A + wedge(_A, _B)).grade_part(4),
    "pullback": lambda: pullback(_A, np.triu(np.ones((5, 5), dtype=int)).astype(object)),
    "alternation": lambda: alternation(lambda u, v: u[0] * v[1] - 3 * u[2] * v[4], 2, 5),
    "form_from_dict": lambda: form_from_dict(form_to_dict(_A)),
    "endo_to_form": lambda: endo_to_form(rep16((1, 3)) + 2 * rep16((2, 16))),
}


class TestFloatView:
    def test_built_once_and_read_only(self):
        f = RealForm(5, {(1, 2, 4): 2, (2, 3, 5): Fraction(-1, 3)})
        view = _term_arrays(f)
        assert _term_arrays(f) is view
        rows, coeffs = view
        with pytest.raises(ValueError):
            rows[0, 0] = 4
        with pytest.raises(ValueError):
            coeffs[0] = 0.0

    @pytest.mark.parametrize("how", sorted(_CONSTRUCTIONS))
    def test_view_matches_a_fresh_copy(self, how):
        rng = np.random.default_rng(11)
        # the operands hold their views before the result is built
        for operand in (_A, _B):
            evaluate(operand, rng.standard_normal((5, 2)))
        f = _CONSTRUCTIONS[how]()
        M = rng.standard_normal((f.n, f.grade()))
        assert evaluate(f, M).hex() == evaluate(RealForm(f.n, dict(f._terms)), M).hex()


class TestAlternationPullback:
    @given(st.integers(min_value=1, max_value=3).flatmap(lambda k: forms(4, grade=k, max_terms=3)))
    @settings(max_examples=25, deadline=None)
    def test_alternation_fixes_forms(self, a):
        k = a.grade()
        if k is None:
            return

        def T(*vecs):
            total = Fraction(0)
            for idx, c in a.terms().items():
                rows = [i - 1 for i in idx]
                # exact permanent-free determinant of the 0/1 frame
                sub = [[Fraction(v[r]) for v in vecs] for r in rows]
                total += c * _exact_det(sub)
            return total

        assert alternation(T, k, 4) == a

    def test_alternation_kills_symmetric_part(self):
        T = lambda u, v: Fraction(sum(a * b for a, b in zip(u, v)))
        assert alternation(T, 2, 4).is_zero()

    def test_pullback_identity(self):
        f = RealForm(4, {(1, 3): 2, (2, 4): -1})
        assert pullback(f, np.eye(4, dtype=object)) == f

    @given(forms(3, max_terms=3))
    @settings(max_examples=25, deadline=None)
    def test_pullback_composes_contravariantly(self, a):
        L = np.array([[1, 2, 0], [0, 1, 1], [1, 0, 1]], dtype=object)
        M = np.array([[0, 1, 0], [1, 0, 2], [0, 0, 1]], dtype=object)
        assert pullback(a, L @ M) == pullback(pullback(a, L), M)

    def test_pullback_scales_volume_by_determinant(self):
        L = np.array([[2, 1, 0], [0, 3, 0], [1, 0, 1]], dtype=object)
        vol = RealForm.volume(3)
        assert pullback(vol, L) == 6 * vol

    @given(forms(3, max_terms=2), forms(3, max_terms=2))
    @settings(max_examples=25, deadline=None)
    def test_pullback_is_an_algebra_map(self, a, b):
        L = np.array([[1, 1, 0], [0, 2, 1], [1, 0, 1]], dtype=object)
        assert pullback(wedge(a, b), L) == wedge(pullback(a, L), pullback(b, L))


def _exact_det(rows):
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(k):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * _exact_det(minor)
            total += term if j % 2 == 0 else -term
    return total


class TestComplexForm:
    def test_cwedge_expands_products(self):
        x1 = RealForm.blade(4, (1,))
        x2 = RealForm.blade(4, (2,))
        x3 = RealForm.blade(4, (3,))
        x4 = RealForm.blade(4, (4,))
        z1 = ComplexForm(x1, x2)
        z2 = ComplexForm(x3, x4)
        w = cwedge(z1, z2)
        assert w.re == wedge(x1, x3) - wedge(x2, x4)
        assert w.im == wedge(x1, x4) + wedge(x2, x3)


class TestSerialization:
    @given(st.integers(min_value=1, max_value=6).flatmap(lambda n: forms(n, max_terms=5)))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, a):
        assert form_from_dict(form_to_dict(a)) == a
        assert load_form(dump_form(a)) == a

    def test_dump_is_stable_json(self):
        f = RealForm(4, {(2, 3): Fraction(-7, 3), (1, 4): 5})
        text = dump_form(f)
        assert json.loads(text) == form_to_dict(f)
        assert dump_form(load_form(text)) == text

    def test_schema_rejections(self):
        good = form_to_dict(RealForm.blade(4, (1, 2)))
        bad_cases = [
            {"n": 4},
            {"n": 0, "terms": []},
            {"n": 4, "terms": [{"blade": [2, 1], "num": "1", "den": "1"}]},
            {"n": 4, "terms": [{"blade": [1, 1], "num": "1", "den": "1"}]},
            {"n": 4, "terms": [{"blade": [1, 9], "num": "1", "den": "1"}]},
            {"n": 4, "terms": [{"blade": [1], "num": "1", "den": "0"}]},
            {"n": 4, "terms": [{"blade": [1], "num": "0", "den": "1"}]},
            {"n": 4, "terms": [{"blade": [1], "num": "1"}]},
            {"n": 4, "terms": [good["terms"][0], good["terms"][0]]},
            {"n": 4, "terms": [{"blade": [1], "num": 1.5, "den": "1"}]},
            {"n": 4, "terms": [{"blade": [1], "num": "1", "den": 2}]},
            {"n": True, "terms": [{"blade": [1], "num": "1", "den": "1"}]},
            {"n": 4, "terms": [{"blade": [True], "num": "1", "den": "1"}]},
            {"n": 4, "terms": [{"blade": [1], "num": " 1_0 ", "den": "1"}]},
            {"n": 4, "terms": [{"blade": [1], "num": "+3", "den": "1"}]},
            {"n": 4, "terms": [{"blade": [1], "num": "\u0661\u0662", "den": "1"}]},
            {"n": 4, "terms": [{"blade": [1], "num": "1", "den": "-2"}]},
        ]
        for d in bad_cases:
            with pytest.raises(SchemaError):
                form_from_dict(d)

    def test_volume_norm_sanity(self):
        for n in range(1, 7):
            vol = RealForm.volume(n)
            assert inner_product(vol, vol) == 1
            assert math.comb(n, 2) == len(blades_of(n, 2))
