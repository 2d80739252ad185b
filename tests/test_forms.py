import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibench.catalog import CAYLEY_TERMS, build_cayley, build_phi, build_spinor_family, spinor_pullback_matrix
from calibench.clifford import endo_to_form, rep16
from calibench.forms import (
    ComplexForm,
    DetKernel,
    RealForm,
    SchemaError,
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
from test_grassmann import _rational_rotation  # the rotation of the generic-position search test


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

    def test_indices_below_1_are_named_1_based(self):
        # a one-element tuple is always increasing; the fault is the index
        for bad in ((-3,), (0,), (0, 2), (2, 0)):
            with pytest.raises(ValueError, match=r"blade indices are 1-based, got \("):
                blade_mask(bad)
        with pytest.raises(ValueError, match=r"blade indices are 1-based, got \(0, 2\)"):
            RealForm.blade(4, (0, 2))
        with pytest.raises(ValueError, match=r"strictly increasing, got \(2, 1\)"):
            blade_mask((2, 1))

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_reorder_sign_matches_permutation_sign(self, ma, mb):
        if ma & mb:
            return
        merged = list(mask_indices(ma)) + list(mask_indices(mb))
        order = sorted(range(len(merged)), key=lambda i: merged[i])
        assert reorder_sign(ma, mb) == perm_sign(order)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**64 - 1))
    @example(1 << 63, 1)  # the one pair is 63 apart: only the shift-32 step reaches it
    @example(1 << 63, (1 << 31) | 1)
    @example(2**64 - 1, 2**64 - 1)
    @settings(max_examples=300)
    def test_reorder_sign_counts_pairs_on_64_bit_masks(self, ma, mb):
        # brute force over all bit pairs, overlapping masks included (i == j is no inversion)
        bits_a = [i for i in range(64) if ma >> i & 1]
        bits_b = [j for j in range(64) if mb >> j & 1]
        count = sum(i > j for i in bits_a for j in bits_b)
        assert reorder_sign(ma, mb) == (-1 if count % 2 else 1)

    def test_negative_masks_are_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mask_indices(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            reorder_sign(-1, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            reorder_sign(3, -1)

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


def _stored(f):
    """A form's (mask, Fraction) pairs in storage order: its int numerators
    over its one denominator."""
    return [(m, Fraction(v, f._d)) for m, v in f._terms.items()]


def _fraction_wedge(a, b):
    """Reference wedge: one Fraction product per term pair, the sign by a
    pair count, and a sum that reaches 0 leaving the dict."""
    out = {}
    for ma, ca in _stored(a):
        for mb, cb in _stored(b):
            if ma & mb:
                continue
            inversions = sum(i > j for i in mask_indices(ma) for j in mask_indices(mb))
            c = -ca * cb if inversions % 2 else ca * cb
            s = out.get(ma | mb, Fraction(0)) + c
            if s:
                out[ma | mb] = s
            else:
                del out[ma | mb]
    return out


def _mixed_form(rng, n_terms):
    """Seeded R^16 form of mixed grades with denominators from a set whose lcm is 12,252,240."""
    dens = (7, 9, 11, 13, 16, 17, 5, 1)
    terms = {}
    for _ in range(n_terms):
        k = int(rng.integers(0, 7))
        idx = tuple(int(i) + 1 for i in sorted(rng.choice(16, size=k, replace=False)))
        terms[idx] = Fraction(int(rng.integers(-10**6, 10**6)) or 1, dens[int(rng.integers(0, len(dens)))])
    return RealForm(16, terms)


class TestIntWedge:
    def test_matches_fraction_reference_in_value_and_order(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            a, b = _mixed_form(rng, 40), _mixed_form(rng, 40)
            lcm = math.lcm(*[c.denominator for _, c in _stored(a) + _stored(b)])
            assert lcm >= 10**6
            w = wedge(a, b)
            assert _stored(w) == list(_fraction_wedge(a, b).items())
            _assert_lowest_terms(w)

    def test_cancelling_products_store_no_zero(self):
        # E1 ^ E24 and E2 ^ E14 cancel on E124 (over denominators 3*7 and 7),
        # then E4 ^ E12 puts it back, after E1 ^ E35 stored E135
        a = RealForm(16, {(1,): Fraction(1, 3), (2,): Fraction(2, 7), (4,): Fraction(5, 11)})
        b = RealForm(16, {(2, 4): Fraction(6, 7), (3, 5): 1, (1, 4): 1, (1, 2): Fraction(1, 13)})
        w = wedge(a, b)
        assert _stored(w) == list(_fraction_wedge(a, b).items())
        assert list(w._terms) == [blade_mask(i) for i in ((1, 3, 5), (2, 3, 5), (3, 4, 5), (1, 2, 4))]
        assert w.coefficient((1, 2, 4)) == Fraction(5, 143)
        c = RealForm(16, {(1,): Fraction(1, 3), (2,): Fraction(2, 7)})
        d = RealForm(16, {(2,): Fraction(6, 7), (1,): 1})
        assert wedge(c, d).is_zero()

    def test_phi_squared_is_294_vol_term_for_term(self):
        phi = build_phi()
        assert wedge(phi, phi)._terms == {(1 << 16) - 1: Fraction(294)}


def _wedge_by_scan(a, b):
    """The reference scan: every term of ``a`` against every term of ``b``,
    both in storage order, on int numerators over each operand's lcm
    denominator, and a sum that reaches 0 leaving the dict."""
    da = math.lcm(*[c.denominator for _, c in _stored(a)])
    db = math.lcm(*[c.denominator for _, c in _stored(b)])
    out = {}
    for ma, ca in _stored(a):
        for mb, cb in _stored(b):
            if ma & mb:
                continue
            s = out.get(ma | mb, 0) + reorder_sign(ma, mb) * int(ca * da) * int(cb * db)
            if s:
                out[ma | mb] = s
            else:
                del out[ma | mb]
    return RealForm(a.n, {m: Fraction(v, da * db) for m, v in out.items()})


@st.composite
def _wedge_operands(draw):
    """(a, b) on R^n, n <= 8: a of mixed grades, so that its terms fall
    below, at and above n minus b's grade, and b homogeneous or mixed."""
    n = draw(st.integers(min_value=1, max_value=8))
    a = draw(forms(n, max_terms=10))
    b = draw(st.one_of(homogeneous(n), forms(n, max_terms=10)))
    return a, b


def _phase_forms():
    return [build_phi(phase=p) for p in ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)))]


def _scan_cases():
    phi, cayley = build_phi(), RealForm(8, CAYLEY_TERMS)
    p1, p2 = _phase_forms()
    # n = 3, b of grade 2: E1 and E2 take their complements E23 and E13 and
    # cancel on E123, the scalar scans, and E3 ^ E12 puts E123 back at the end
    cancel = (RealForm(3, {(1,): 1, (2,): 1, (): 1, (3,): 1}), RealForm(3, {(2, 3): 1, (1, 3): 1, (1, 2): 1}))
    return {
        "cancel_and_reenter": cancel,
        "zero_a": (RealForm(8), cayley),
        "zero_b": (cayley, RealForm(8)),
        "phi_squared": (phi, phi),
        "cayley_squared": (cayley, cayley),
        "phase_3_4": (p1, phi),
        "phase_5_12": (phi, p2),
        "phase_3_4_squared": (p1, p1),
        "phase_5_12_squared": (p2, p2),
    }


_SCAN_CASES = _scan_cases()


class TestWedgeMatchesTheScan:
    @given(_wedge_operands())
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_forms(self, ab):
        a, b = ab
        assert _stored(wedge(a, b)) == _stored(_wedge_by_scan(a, b))

    @pytest.mark.parametrize("name", sorted(_SCAN_CASES))
    def test_fixed_forms(self, name):
        a, b = _SCAN_CASES[name]
        got = wedge(a, b)
        assert _stored(got) == _stored(_wedge_by_scan(a, b))
        if name == "cancel_and_reenter":
            assert list(got._terms.items()) == [(0b110, 1), (0b101, 1), (0b011, 1), (0b111, 1)]
        if name.endswith("squared"):  # self-dual forms: a ^ a = |a|^2 vol
            assert got == inner_product(a, a) * RealForm.volume(a.n)


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
        assert a - a == RealForm(4)

    @given(forms(4), rationals())
    @settings(max_examples=40, deadline=None)
    def test_scalar_action(self, a, s):
        assert a * s == s * a
        if s:
            assert (a * s) * (1 / s) == a

    def test_like_terms_collapse(self):
        f = RealForm(4, {(1, 2): Fraction(1, 2), 0b11: Fraction(-1, 2)})
        assert f.is_zero()

    def test_grade_checks(self):
        mixed = RealForm(4, {(1,): 1, (1, 2): 1})
        assert mixed.grades() == [1, 2]
        mixed.grades().append(7)  # the cached grades are not handed out
        for _ in range(2):
            with pytest.raises(ValueError, match=r"form is not homogeneous, grades \[1, 2\]"):
                mixed.grade()
        assert mixed.grade_part(2) == RealForm.blade(4, (1, 2))

    def test_grade_part_adopts_the_coefficients(self):
        # a grade part keeps the source's numerators, in lowest terms over
        # its own denominator: 21 -> 7 once E1's 1/3 is gone
        f = RealForm(4, {(1,): Fraction(1, 3), (1, 2): Fraction(2, 7), (3, 4): -5})
        part = f.grade_part(2)
        assert part == RealForm(4, {(1, 2): Fraction(2, 7), (3, 4): -5})
        assert (part._d, part._terms) == (7, {blade_mask((1, 2)): 2, blade_mask((3, 4)): -35})
        assert f.grade_part(3).is_zero()

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            RealForm(4, {(1, 2): 0.5})
        with pytest.raises(TypeError, match="got float"):
            pullback(RealForm(4, {(1, 2): 1}), np.eye(4))

    def test_out_of_range_blade(self):
        with pytest.raises(ValueError):
            RealForm(4, {(1, 5): 1})


def _assert_lowest_terms(f):
    """RealForm's storage rule: an int denominator >= 1 and nonzero int
    numerators with no common factor, and 1 over the zero form."""
    assert type(f._d) is int and f._d >= 1
    assert all(type(v) is int and v for v in f._terms.values())
    assert math.gcd(f._d, *f._terms.values()) == 1
    if not f._terms:
        assert f._d == 1


@st.composite
def _raw_terms(draw, n):
    """A terms dict for RealForm(n, .) drawn from ``forms(n)``: int and
    Fraction coefficients, and one blade keyed twice, by its index tuple and
    by its mask, so the two entries add (and may cancel)."""
    terms = {idx: int(c) if c.denominator == 1 else c for idx, c in draw(forms(n)).terms().items()}
    idx = draw(st.sampled_from([b for k in range(n + 1) for b in blades_of(n, k)]))
    terms[idx] = draw(rationals())
    terms[blade_mask(idx)] = draw(st.integers(min_value=-3, max_value=3) | rationals())
    return terms


@st.composite
def _lowest_terms_cases(draw):
    """(n, two raw term dicts, a Fraction, a rational n x n matrix)."""
    n = draw(st.integers(min_value=2, max_value=5))
    L = draw(st.lists(st.lists(rationals(), min_size=n, max_size=n), min_size=n, max_size=n))
    return n, draw(_raw_terms(n)), draw(_raw_terms(n)), draw(rationals()), np.array(L, dtype=object)


class TestLowestTerms:
    @given(_lowest_terms_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_operation_stores_lowest_terms(self, case):
        n, ta, tb, s, L = case
        a, b = RealForm(n, ta), RealForm(n, tb)
        B = L.tolist()  # the bilinear callback u^T L v, alternated
        results = [a, b, a + b, a - b, a - a, -a, a * s, a * Fraction(1, 3), wedge(a, b), hodge_star(a),
                   pullback(a, L), alternation(lambda u, v: sum(B[i][j] * u[i] * v[j]
                                                                for i in range(n) for j in range(n)), 2, n),
                   form_from_dict(form_to_dict(a))]
        results += [a.grade_part(k) for k in range(n + 1)]
        for f in results:
            _assert_lowest_terms(f)
        assert (a * Fraction(1, 3)) * 3 == a

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255),
                              st.integers(min_value=-600, max_value=600)), max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_endo_to_form_stores_lowest_terms(self, entries):
        A = np.zeros((256, 256), dtype=np.int64)
        for r, c, v in entries:
            A[r, c] += v
        _assert_lowest_terms(endo_to_form(A))

    def test_cancelling_keys_leave_the_zero_form_over_1(self):
        # the tuple key and the mask key of E1 cancel over the denominator 3
        f = RealForm(4, {(1,): Fraction(1, 3), 1: Fraction(-1, 3)})
        assert f.is_zero() and f._d == 1
        g = RealForm(4, {(1,): Fraction(1, 3), 1: Fraction(-1, 3), (2,): Fraction(4, 6), 0b1000: 2})
        assert (g._d, g._terms) == (3, {0b10: 2, 0b1000: 6})


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
        # the frames have zero rows: the input checks run before any path is taken
        f = RealForm.blade(4, (1, 2))
        with pytest.raises(ValueError, match="grade 2, got 3"):
            evaluate(f, np.zeros((4, 3)))
        with pytest.raises(ValueError, match=r"R\^5"):
            evaluate(f, np.zeros((5, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(f, np.array([[np.nan, 0]] + [[0, 0]] * 3))
        for complex_frame in ([[1, 1j], [0, 0]], np.array([[1, 1j], [0, 0]])):
            with pytest.raises(ValueError, match="complex"):
                evaluate(RealForm(2, {(1, 2): 1}), complex_frame)
        with pytest.raises(ValueError, match=r"form is not homogeneous, grades \[1, 2\]"):
            evaluate(RealForm(4, {(1,): 1, (1, 2): 1}), np.zeros((4, 2)))

    def test_grade_zero_is_its_constant(self):
        # no arguments: the kernel's one slab is 0 x 0, with det 1
        for c, want in ((3, 3.0), (-7, -7.0), (Fraction(1, 3), 0.3333333333333333)):
            f = RealForm(3, {(): c})
            got = evaluate(f, np.zeros((3, 0)))
            assert type(got) is float and got == want
            kernel, M = DetKernel.for_frame(f, np.zeros((3, 0)))
            assert kernel.gradient(kernel.value(M[None])[1]).shape == (1, 3, 0)
            values, state = kernel.value(np.zeros((2, 3, 0)))
            assert values.tolist() == [want, want]
            assert kernel.gradient(state).shape == (2, 3, 0)

    def test_zero_rows_drop_only_zero_terms(self):
        # random forms on R^n, n <= 8, on frames with randomly zeroed rows or
        # on scaled coordinate frames: the unpruned det sum, bit for bit
        rng = np.random.default_rng(29)
        single = 0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            pool = blades_of(n, k)
            picks = rng.choice(len(pool), size=min(len(pool), int(rng.integers(1, 16))), replace=False)
            f = RealForm(n, {pool[i]: Fraction(int(rng.integers(-5, 6)) or 1, int(rng.integers(1, 4)))
                             for i in picks})
            if rng.random() < 0.25:
                M = np.eye(n)[:, rng.choice(n, size=k, replace=False)] * rng.standard_normal()
            else:
                M = rng.standard_normal((n, k))
                M[rng.random(n) < 0.25, :] = 0.0
            kernel = DetKernel.of(f)
            rows, coeffs = kernel.rows, kernel.coeffs
            dets = np.linalg.det(M[rows, :])
            reference = float(coeffs @ dets)
            live = ~np.array([any(not M[i - 1].any() for i in mask_indices(m)) for m in f._terms])
            # a term that meets a zero row has det exactly 0, so one term can be read alone
            assert (dets[~live] == 0.0).all()
            assert evaluate(f, M).hex() == reference.hex()
            single += int(live.sum() <= 1)
        assert single > 50

    def test_frames_that_kill_every_term_give_zero(self):
        f = RealForm(4, {(1, 2): 3, (2, 4): Fraction(-1, 2), (1, 3): 1})
        assert evaluate(f, np.zeros((4, 2))) == 0.0
        M = np.arange(8.0).reshape(4, 2) + 1
        M[[0, 1], :] = 0.0  # every term has row 1 or 2
        assert evaluate(f, M) == 0.0
        assert evaluate(RealForm.volume(3), np.diag([2.0, 0.0, 5.0])) == 0.0
        for _ in range(2):  # the zero form, whose grade is None
            assert evaluate(RealForm(3), np.eye(3)[:, :2]) == 0.0


def _unpruned(f, M):
    """sum_t c_t det(rows t of M) over every term of f, nothing dropped."""
    kernel = DetKernel.of(f)
    return float(kernel.coeffs @ np.linalg.det(M[kernel.rows, :]))


class TestOneLiveTerm:
    """Frames with at most k live rows: ``evaluate`` reads the one term whose
    row mask equals the live rows, and must give the unpruned sum bit for bit."""

    def test_every_coordinate_frame_of_phi(self):
        # the frames federer_eval reads, in chunks of batched unpruned dets
        phi = build_phi()
        kernel = DetKernel.of(phi)
        frame = np.eye(16) / math.sqrt(2.0)
        cols = np.array(list(itertools.combinations(range(16), 8)))
        assert len(cols) == 12870
        hits = 0
        for chunk in np.array_split(cols, 200):
            frames = frame[:, chunk].transpose(1, 0, 2)
            dets = np.linalg.det(frames[:, kernel.rows, :])
            for F, d in zip(frames, dets):
                got = evaluate(phi, F)
                assert got.hex() == float(kernel.coeffs @ d).hex()
                hits += got != 0.0
        assert hits == len(phi)

    def test_random_forms_hit_and_miss(self):
        # exactly k live rows holding random nonzero entries; a quarter of the
        # frames repeat a live row (with a sign), so the det is 0 and a
        # negative coefficient must still give +0.0 as the unpruned sum does
        rng = np.random.default_rng(43)
        hits = misses = 0
        for _ in range(400):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, n))
            pool = blades_of(n, k)
            picks = rng.choice(len(pool), size=min(len(pool), int(rng.integers(1, 12))), replace=False)
            f = RealForm(n, {pool[i]: Fraction(int(rng.integers(-5, 6)) or 1, int(rng.integers(1, 4)))
                             for i in picks})
            if rng.random() < 0.5:
                live = np.array(pool[picks[0]]) - 1
            else:
                live = np.sort(rng.choice(n, size=k, replace=False))
            M = np.zeros((n, k))
            M[live] = rng.standard_normal((k, k))
            if k > 1 and rng.random() < 0.25:
                M[live[1]] = M[live[0]] * rng.choice([-1.0, 1.0])
            got = evaluate(f, M)
            assert got.hex() == _unpruned(f, M).hex()
            if f.coefficient(tuple(live + 1)):
                hits += 1
            else:
                misses += 1
                assert got.hex() == "0x0.0p+0"
        assert hits > 150 and misses > 50

    def test_singular_frame_with_negative_coefficient_gives_plus_zero(self):
        f = RealForm(3, {(1, 2): -1})
        M = np.array([[1.0, 2.0], [3.0, 6.0], [0.0, 0.0]])
        assert evaluate(f, M).hex() == _unpruned(f, M).hex() == "0x0.0p+0"

    def test_masks_use_all_64_rows(self):
        # masks above bit 31 and at bit 63 select the right term
        f = RealForm(64, {(1, 33, 64): Fraction(3, 2), (2, 40, 63): -1, (7, 8, 9): 5})
        rng = np.random.default_rng(5)
        for live, hit in (((1, 33, 64), True), ((2, 40, 63), True), ((7, 8, 9), True),
                          ((1, 33, 63), False), ((2, 40, 64), False), ((33, 63, 64), False)):
            M = np.zeros((64, 3))
            M[[i - 1 for i in live]] = rng.standard_normal((3, 3))
            got = evaluate(f, M)
            assert got.hex() == _unpruned(f, M).hex()
            assert (got != 0.0) == hit


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
        view = DetKernel.of(f)
        assert DetKernel.of(f) is view
        rows, coeffs = view.rows, view.coeffs
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
        assert evaluate(f, M).hex() == evaluate(RealForm(f.n, dict(_stored(f))), M).hex()

    def test_coefficients_round_as_their_fractions(self):
        # numerators and the common denominator 3^45 lie above 2^53, so only
        # one correctly rounded division gives float(c): a float division of
        # the two rounded ints misses on some of these terms
        blades = blades_of(6, 3)
        coeffs = [Fraction((-1) ** i * (2**70 + 1 + 2 * i * 1000003), 3**45) for i in range(len(blades))]
        assert any(float(c.numerator) / float(c.denominator) != float(c) for c in coeffs)
        f = RealForm(6, dict(zip(blades, coeffs)))
        assert f._d == 3**45
        assert [x.hex() for x in DetKernel.of(f).coeffs] == [float(c).hex() for c in coeffs]
        # the one-term path of evaluate, on each coordinate frame
        for idx, c in zip(blades, coeffs):
            assert evaluate(f, np.eye(6)[:, [i - 1 for i in idx]]).hex() == float(c).hex()


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


def _pullback_by_wedges(a, L):
    """The reference fold: one ``wedge`` per index of each blade, and one
    form sum per term."""
    rows = [RealForm(a.n, {1 << j: x for j, x in enumerate(L[i])}) for i in range(a.n)]
    out = RealForm(a.n)
    for m, coeff in _stored(a):
        blade = RealForm(a.n, {0: coeff})
        for i in mask_indices(m):
            blade = wedge(blade, rows[i - 1])
        out = out + blade
    return out


def _seeded_matrix(n, seed, fractions):
    rng = np.random.default_rng(seed)
    L = rng.integers(-2, 3, size=(n, n)).astype(object)
    if fractions:
        L = L * np.array([[Fraction(1, int(d)) for d in row] for row in rng.integers(1, 7, size=(n, n))], dtype=object)
    return L


def _seeded_form(n, seed):
    rng = np.random.default_rng(seed)
    terms = {}
    for _ in range(12):
        mask = int(rng.integers(0, 1 << n))
        terms[mask] = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
    return RealForm(n, terms)


def _pullback_cases():
    # E12 + E13 + E14 by rows e1, e2 + e3, e3 - e2, e2: the E12 sum reaches 0
    # at the second term and re-enters at the end, behind E13
    cancel = (RealForm(4, {(1, 2): 1, (1, 3): 1, (1, 4): 1}),
              np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, 0]], dtype=object))
    cases = {
        "cancel_and_reenter": cancel,
        "rank_one": (_seeded_form(5, 3), np.outer([1, 2, 0, -1, 1], [1, -1, 2, 0, 1]).astype(object)),
        "rotated_cayley": (build_cayley(), np.array(_rational_rotation(8, np.random.default_rng(19)), dtype=object)),
        "spinor_axis_flips": (build_spinor_family()["phi"].grade_part(8), spinor_pullback_matrix()),
    }
    for seed in range(4):
        cases[f"int_{seed}"] = (_seeded_form(6, seed), _seeded_matrix(6, seed, False))
        cases[f"fraction_{seed}"] = (_seeded_form(6, 10 + seed), _seeded_matrix(6, 10 + seed, True))
    return cases


_PULLBACK_CASES = _pullback_cases()


@pytest.mark.parametrize("name", sorted(_PULLBACK_CASES))
def test_pullback_matches_the_wedge_fold_term_for_term(name):
    a, L = _PULLBACK_CASES[name]
    got = pullback(a, L)
    assert _stored(got) == _stored(_pullback_by_wedges(a, L))
    if name == "cancel_and_reenter":
        assert list(got._terms.items()) == [(blade_mask((1, 3)), 2), (blade_mask((1, 2)), 1)]
    if name == "rank_one":
        assert set(got.grades()) <= {0, 1}


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
            # past the interpreter's integer digit limit
            {"n": 4, "terms": [{"blade": [1], "num": "1" * 5000, "den": "1"}]},
            {"n": 4, "terms": [{"blade": [1], "num": "1", "den": "1" * 5000}]},
            # over MAX_N, rejected before any blade becomes a 2^20-bit mask
            {"n": 2**20, "terms": [{"blade": [2**20], "num": "1", "den": "1"}]},
        ]
        for d in bad_cases:
            with pytest.raises(SchemaError):
                form_from_dict(d)

    def test_load_form_rejects_what_json_cannot_parse(self):
        for text in ('{"n": 1' + "0" * 5000 + ', "terms": []}', "[" * 100000 + "]" * 100000, "{"):
            with pytest.raises(SchemaError, match="invalid JSON"):
                load_form(text)

    def test_volume_norm_sanity(self):
        for n in range(1, 7):
            vol = RealForm.volume(n)
            assert inner_product(vol, vol) == 1
            assert math.comb(n, 2) == len(blades_of(n, 2))
