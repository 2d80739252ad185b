import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calibench import grassmann
from calibench.catalog import RouteDisagreement, build_phi, catalog
from calibench.forms import RealForm, blade_mask, reorder_sign, wedge
from calibench.grassmann import (
    PLANE_TOL,
    NormalFormSpec,
    calibration_value_closed,
    comass_search,
    federer_eval,
    federer_product,
    frame_gradient,
    frame_value,
    gen_calibrated,
    kaehler_angles,
    minor_identity_check,
    realify,
    realize,
    sample_group,
    symplectic_row_value,
)

PHI = build_phi()


def random_spec(rng, obtuse=False):
    U = sample_group("u", rng)
    t = np.sort(rng.uniform(0, math.pi / 2, size=3))
    t4 = rng.uniform(math.pi / 2, math.pi) if obtuse else rng.uniform(t[2], math.pi / 2)
    return NormalFormSpec(U, (float(t[0]), float(t[1]), float(t[2]), float(t4)))


class TestNormalFormSpec:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            NormalFormSpec(np.eye(8) * 1.01, (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            NormalFormSpec(np.eye(4), (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="not unitary"):
            NormalFormSpec(np.full((8, 8), np.nan), (0.0, 0.0, 0.0, 0.0))

    def test_rejects_bad_angles(self):
        with pytest.raises(ValueError):
            NormalFormSpec(np.eye(8), (0.5, 0.2, 0.6, 0.7))
        with pytest.raises(ValueError):
            NormalFormSpec(np.eye(8), (0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            NormalFormSpec(np.eye(8), (0.1, 0.2, 1.7, 1.8))
        with pytest.raises(ValueError):
            NormalFormSpec(np.eye(8), (0.1, 0.2, 0.3, 3.5))

    def test_phase_and_dict(self):
        spec = NormalFormSpec(np.eye(8), (0.1, 0.2, 0.3, 0.4))
        d = spec.to_dict()
        json.dumps(d)
        assert d["angles"] == [0.1, 0.2, 0.3, 0.4]
        assert d["matrix_re"][0][0] == 1.0


def test_realify_interleaves():
    v = realify(np.array([1 + 2j, 3 - 4j]))
    assert v.tolist() == [1.0, 2.0, 3.0, -4.0]


def test_realize_frames_are_orthonormal():
    rng = np.random.default_rng(2)
    for k in range(5):
        M = realize(random_spec(rng, obtuse=bool(k % 2)))
        assert M.shape == (16, 8)
        assert np.linalg.norm(M.T @ M - np.eye(8)) < 1e-12


class TestKaehlerAngles:
    def test_complex_plane(self):
        spec = NormalFormSpec(np.eye(8), (0.0,) * 4)
        angles, sign = kaehler_angles(realize(spec))
        assert np.abs(angles).max() < 1e-7
        assert sign == 1

    def test_lagrangian_plane(self):
        spec = NormalFormSpec(np.eye(8), (math.pi / 2,) * 4)
        angles, sign = kaehler_angles(realize(spec))
        assert np.abs(angles - math.pi / 2).max() < 1e-7

    @given(st.lists(st.floats(min_value=0.05, max_value=1.5), min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_acute_roundtrip(self, raw):
        th = sorted(raw)
        spec = NormalFormSpec(np.eye(8), tuple(th))
        angles, sign = kaehler_angles(realize(spec))
        assert np.abs(np.sort(np.sin(angles)) - np.sort(np.sin(th))).max() < 1e-8

    def test_obtuse_angle_folds_back_with_negative_sign(self):
        th = (0.3, 0.4, 0.5, math.pi - 0.2)
        spec = NormalFormSpec(np.eye(8), th)
        angles, sign = kaehler_angles(realize(spec))
        expect = np.sort([0.3, 0.4, 0.5, 0.2])
        assert np.abs(np.sort(angles) - expect).max() < 1e-8
        assert sign == -1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kaehler_angles(np.eye(16))
        with pytest.raises(ValueError):
            kaehler_angles(np.ones((16, 8)))
        with pytest.raises(ValueError, match="not orthonormal"):
            kaehler_angles(np.full((16, 8), np.nan))
        spec = NormalFormSpec(np.eye(8), (0.3, 0.4, 0.5, 0.6))
        with pytest.raises(ValueError, match="complex"):
            kaehler_angles(realize(spec) + 1e-3j)


class TestSamplers:
    def test_unitary_and_special(self):
        rng = np.random.default_rng(0)
        U = sample_group("u", rng)
        assert np.linalg.norm(U.conj().T @ U - np.eye(8)) < 1e-10
        S = sample_group("su", rng, n=4)
        assert abs(np.linalg.det(S) - 1) < 1e-10

    def test_symplectic_relations(self):
        S = sample_group("sp4", 7)
        J = grassmann._SP_J
        assert np.linalg.norm(S.T @ J @ S - J) < 1e-10
        assert np.linalg.norm(S.conj().T @ S - np.eye(8)) < 1e-10
        assert abs(np.linalg.det(S) - 1) < 1e-10

    def test_integer_seed_is_deterministic(self):
        assert (sample_group("u", 5) == sample_group("u", 5)).all()

    def test_rejections(self):
        with pytest.raises(ValueError):
            sample_group("so", 1)
        with pytest.raises(ValueError):
            sample_group("sp4", 1, n=4)


class TestCalibratedFamilies:
    def test_case1_special_lagrangian(self):
        for p in gen_calibrated(1, 5, seed=3):
            assert p.spec.angles == (math.pi / 2,) * 4
            assert abs(frame_value(PHI, p.frame) - 1.0) <= PLANE_TOL

    def test_case2_complex(self):
        for p in gen_calibrated(2, 5, seed=3):
            assert p.spec.angles == (0.0,) * 4
            assert abs(frame_value(PHI, p.frame) - 1.0) <= PLANE_TOL

    def test_case3_products(self):
        for p in gen_calibrated(3, 5, seed=3):
            assert p.spec is None
            assert abs(frame_value(PHI, p.frame) - 1.0) <= PLANE_TOL
            # the meta rebuilds the frame: one calibrated 4-plane per C^4 factor
            m = p.meta
            left = np.array(m["basis_left_re"]) + 1j * np.array(m["basis_left_im"])
            right = np.array(m["basis_right_re"]) + 1j * np.array(m["basis_right_im"])
            want = np.zeros((16, 8))
            for U, t, r, c in ((left, m["angles"][0], 0, 0), (right, m["angles"][1], 8, 4)):
                for k in (0, 2):
                    e1, e2 = U[:, k], U[:, k + 1]
                    want[r:r + 8, c + k] = realify(e1)
                    want[r:r + 8, c + k + 1] = realify(1j * e1 * math.cos(t) + e2 * math.sin(t))
            assert np.array_equal(p.frame, want)

    def test_case4_common_angle(self):
        for p in gen_calibrated(4, 5, seed=3):
            th = p.meta["theta"]
            assert 0.05 <= th <= math.pi / 2 - 0.05
            assert p.spec.angles == (th,) * 4
            assert abs(frame_value(PHI, p.frame) - 1.0) <= PLANE_TOL
            # the defining row condition of the family
            assert abs(symplectic_row_value(p.spec.matrix) - 1.0) < 1e-9

    def test_samples_serialize(self):
        for case in (1, 2, 3, 4):
            doc = [p.to_dict() for p in gen_calibrated(case, 2, seed=1)]
            json.dumps(doc)

    def test_bad_case(self):
        with pytest.raises(ValueError):
            gen_calibrated(5, 1, seed=0)
        with pytest.raises(ValueError):
            gen_calibrated(5, 0, seed=0)

    def test_fixed_seed_reproduces(self):
        a = gen_calibrated(4, 3, seed=9)
        b = gen_calibrated(4, 3, seed=9)
        for pa, pb in zip(a, b):
            assert (pa.frame == pb.frame).all()

    def test_perturbed_common_angle_loses_value(self):
        p = gen_calibrated(4, 1, seed=11)[0]
        th = p.meta["theta"]
        bumped = NormalFormSpec(p.spec.matrix, (th, th, th, th + 0.05))
        v = frame_value(PHI, realize(bumped))
        assert v < 1.0 - 1e-6
        assert v > 0.5


def test_closed_form_matches_frame_evaluation():
    rng = np.random.default_rng(21)
    for k in range(10):
        spec = random_spec(rng, obtuse=bool(k % 3 == 0))
        got = calibration_value_closed(spec)
        want = frame_value(PHI, realize(spec))
        assert abs(got - want) < 1e-9


def test_symplectic_row_value_on_identity():
    # the first four rows of the identity hold one symplectic minor
    assert symplectic_row_value(np.eye(8)) == 1.0


def test_angle_pairs_complement_by_xor_one():
    pairs = grassmann._ANGLE_PAIRS
    for p in range(6):
        assert sorted([*pairs[p], *pairs[p ^ 1]]) == [0, 1, 2, 3]


def test_minor_identity_report():
    rng = np.random.default_rng(31)
    for _ in range(10):
        rep = minor_identity_check(NormalFormSpec(sample_group("u", rng), (0.2, 0.3, 0.4, 0.5)))
        assert rep.max_residual < 1e-10
        assert rep.mixed_residual < 1e-10
        assert rep.beta_value <= 1.0 + 1e-12


class TestFederer:
    def middle_forms(n):
        k = n // 2
        pool = list(combinations(range(1, n + 1), k))
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda q: q != 0)
        return st.dictionaries(st.sampled_from(pool), coeff, min_size=1, max_size=5).map(
            lambda d: RealForm(n, d)
        )

    @given(middle_forms(4))
    @settings(max_examples=40, deadline=None)
    def test_shuffle_sum_equals_wedge_square_r4(self, f):
        vol = tuple(range(1, 5))
        assert federer_product(f) * Fraction(4) == wedge(f, f).coefficient(vol)

    @given(middle_forms(6))
    @settings(max_examples=40, deadline=None)
    def test_shuffle_sum_equals_wedge_square_r6(self, f):
        vol = tuple(range(1, 7))
        assert federer_product(f) * Fraction(8) == wedge(f, f).coefficient(vol)

    @given(middle_forms(6))
    @settings(max_examples=40, deadline=None)
    def test_float_total_matches_shuffle_sum_r6(self, f):
        assert abs(federer_eval(f) - float(federer_product(f))) < 1e-12

    def test_routes_raise_on_disagreement(self, monkeypatch):
        monkeypatch.setattr(grassmann, "federer_product", lambda form: Fraction(1))
        with pytest.raises(RouteDisagreement, match="wedge route 147/128 != shuffle route 1"):
            grassmann.federer_routes()

    def test_kaehler_r4_value(self):
        om = RealForm(4, {(1, 2): 1, (3, 4): 1})
        assert federer_product(om) == Fraction(1, 2)

    def test_rejects_non_middle_forms(self):
        with pytest.raises(ValueError):
            federer_product(RealForm.blade(4, (1,)))
        with pytest.raises(ValueError):
            federer_product(RealForm(4, {(1,): 1, (1, 2): 1}))

    def test_shuffle_sign_matches_reorder_sign(self):
        for n, k in ((4, 2), (6, 3), (8, 4)):
            full = set(range(1, n + 1))
            for I in combinations(range(1, n + 1), k):
                Ic = tuple(sorted(full - set(I)))
                assert grassmann._shuffle_sign(I) == reorder_sign(blade_mask(I), blade_mask(Ic))


class TestComassSearch:
    def test_blade_form_is_found_immediately(self):
        f = RealForm.blade(8, (1, 2, 3, 4), Fraction(3, 2))
        rep = comass_search(f, restarts=4, iters=50, seed=1)
        assert rep.best_restart == 0
        assert abs(rep.best_value - 1.5) < 1e-9
        assert rep.max_abs_coeff == 1.5
        # a single blade wedges to zero against itself
        assert rep.wirt_ratio == 0.0

    def test_runs_are_deterministic(self):
        f = catalog()["omega2"].form
        a = comass_search(f, restarts=6, iters=120, seed=4)
        b = comass_search(f, restarts=6, iters=120, seed=4)
        assert a.best_value == b.best_value
        assert a.best_restart == b.best_restart
        assert (a.best_frame == b.best_frame).all()

    def test_kaehler_square_comass(self):
        f = catalog()["omega2"].form
        rep = comass_search(f, restarts=6, iters=200, seed=0, name="omega2")
        assert abs(rep.best_value - 1.0) < 1e-6
        assert rep.form_name == "omega2"

    def test_cayley_wirtinger_ratio(self):
        rep = comass_search(catalog()["cayley"].form, restarts=8, iters=200, seed=0)
        assert abs(rep.best_value - 1.0) < 1e-6
        assert abs(rep.wirt_ratio - 14.0) < 1e-4

    def test_best_value_dominates_coefficients(self):
        rng = np.random.default_rng(13)
        pool = list(combinations(range(1, 7), 2))
        for _ in range(3):
            picks = rng.choice(len(pool), size=4, replace=False)
            f = RealForm(6, {pool[i]: Fraction(int(rng.integers(-3, 4)) or 2, 2) for i in picks})
            rep = comass_search(f, restarts=3, iters=80, seed=2)
            assert rep.best_value >= rep.max_abs_coeff - 1e-9

    def test_rejects_inhomogeneous_and_scalar_forms(self):
        with pytest.raises(ValueError):
            comass_search(RealForm(4, {(1,): 1, (1, 2): 1}))
        with pytest.raises(ValueError):
            comass_search(RealForm(4, {0: 1}))
        with pytest.raises(ValueError):
            comass_search(RealForm.blade(4, (1, 2)), restarts=0)
        with pytest.raises(ValueError):
            comass_search(RealForm.blade(4, (1, 2)), tol=-1)

    def test_report_serializes(self):
        keys = {"form_name", "best_value", "best_restart", "best_frame", "restarts", "iters",
                "tol", "seed", "plane_tol", "max_abs_coeff"}
        for f, want in ((RealForm.blade(6, (1, 2)), keys),
                        (RealForm.blade(4, (1, 2)), keys | {"wirt_ratio"})):
            doc = comass_search(f, restarts=2, iters=10, seed=0).to_dict()
            json.dumps(doc)
            assert set(doc) == want
            frame = doc["best_frame"]
            assert type(frame) is list and len(frame) == f.n
            assert all(type(row) is list and all(type(x) is float for x in row) for row in frame)


def test_frame_gradient_matches_finite_differences():
    f = catalog()["omega2"].form
    rng = np.random.default_rng(41)
    h = 1e-5
    for _ in range(3):
        M = np.linalg.qr(rng.standard_normal((16, 4)))[0]
        G = frame_gradient(f, M)
        for _ in range(4):
            i, j = int(rng.integers(16)), int(rng.integers(4))
            Mp = M.copy(); Mp[i, j] += h
            Mm = M.copy(); Mm[i, j] -= h
            fd = (frame_value(f, Mp) - frame_value(f, Mm)) / (2 * h)
            assert abs(G[i, j] - fd) <= 1e-6 * max(1.0, abs(fd))
