import hashlib
import json
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibench import clifford, forms, grassmann
from calibench.catalog import RouteDisagreement, build_phi, catalog
from calibench.cli import _NEVER_EXCEED_SUITE
from calibench.forms import RealForm, blade_mask, hodge_star, inner_product, mask_indices, pullback, reorder_sign, wedge
from calibench.grassmann import (
    PLANE_TOL,
    SEARCH_TOL,
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
    sample_unitary,
    symplectic_row_value,
)

PHI = build_phi()


def random_spec(rng, obtuse=False):
    U = sample_unitary(rng)
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
        angles = kaehler_angles(realize(spec))
        assert np.abs(angles).max() < 1e-7

    def test_lagrangian_plane(self):
        spec = NormalFormSpec(np.eye(8), (math.pi / 2,) * 4)
        angles = kaehler_angles(realize(spec))
        assert np.abs(angles - math.pi / 2).max() < 1e-7

    @given(st.lists(st.floats(min_value=0.05, max_value=1.5), min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_acute_roundtrip(self, raw):
        th = sorted(raw)
        spec = NormalFormSpec(np.eye(8), tuple(th))
        angles = kaehler_angles(realize(spec))
        assert np.abs(np.sort(np.sin(angles)) - np.sort(np.sin(th))).max() < 1e-8

    def test_obtuse_angle_folds_back(self):
        th = (0.3, 0.4, 0.5, math.pi - 0.2)
        spec = NormalFormSpec(np.eye(8), th)
        angles = kaehler_angles(realize(spec))
        expect = np.sort([0.3, 0.4, 0.5, 0.2])
        assert np.abs(np.sort(angles) - expect).max() < 1e-8

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
        U = sample_unitary(rng)
        assert np.linalg.norm(U.conj().T @ U - np.eye(8)) < 1e-10
        S = grassmann._unitary(grassmann._gaussian(rng, 4)[None], "su")[0]
        assert abs(np.linalg.det(S) - 1) < 1e-10

    def test_symplectic_relations(self):
        S = grassmann._symplectic(grassmann._gaussian(np.random.default_rng(7), 8)[None])[0]
        J = grassmann._SP_J
        assert np.linalg.norm(S.T @ J @ S - J) < 1e-10
        assert np.linalg.norm(S.conj().T @ S - np.eye(8)) < 1e-10
        assert abs(np.linalg.det(S) - 1) < 1e-10


def _loop_sample_group(kind, rng, n=8):
    """The one-matrix-at-a-time sampler the stacked one replaced, kept as its
    reference: same stream, same arithmetic, one draw per matrix."""
    if kind in ("u", "su"):
        Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
        Q, R = np.linalg.qr(Z)
        d = np.diag(R)
        assert np.abs(d).min() > 1e-12
        Q = Q * (d / np.abs(d))
        if kind == "su":
            det = np.linalg.det(Q)
            Q[:, 0] *= det.conjugate() / abs(det)
        return Q
    B = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / math.sqrt(2)
    A = (B - B.conj().T) / 2
    A = (A + grassmann._SP_J @ A.conj() @ np.linalg.inv(grassmann._SP_J)) / 2
    w, V = np.linalg.eigh(1j * A)
    return (V * np.exp(-1j * w)) @ V.conj().T


def _loop_plane(U, angles):
    """The column-by-column normal-form frame, kept as the stacked one's
    reference."""
    cols = []
    for m, t in enumerate(angles):
        e_odd, e_even = U[:, 2 * m], U[:, 2 * m + 1]
        cols.append(realify(e_odd))
        cols.append(realify(1j * e_odd * math.cos(t) + e_even * math.sin(t)))
    return np.column_stack(cols)


class _SingularDraws:
    """A generator whose standard-normal draws with the given 1-based call
    numbers (all of them for None) repeat their first column, so a complex
    Gaussian built from two of them is singular."""

    def __init__(self, seed, bad=None):
        # default_rng(seed) spelt out: a test patches default_rng to build this
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._bad = bad
        self._calls = 0

    def standard_normal(self, shape):
        self._calls += 1
        x = self._rng.standard_normal(shape)
        if self._bad is None or self._calls in self._bad:
            x[:, 1] = x[:, 0]
        return x

    def uniform(self, lo, hi):
        return self._rng.uniform(lo, hi)


class TestStackedSampler:
    @pytest.mark.parametrize("kind,n", [("u", 8), ("su", 8), ("su", 4), ("sp4", 8)])
    def test_stack_rows_equal_single_draws(self, kind, n):
        rng = np.random.default_rng(7)
        Z = np.array([grassmann._gaussian(rng, n) for _ in range(5)])
        stack = grassmann._symplectic(Z) if kind == "sp4" else grassmann._unitary(Z, kind)
        singles, loop = np.random.default_rng(7), np.random.default_rng(7)
        for row in stack:
            z = grassmann._gaussian(singles, n)[None]
            single = grassmann._symplectic(z) if kind == "sp4" else grassmann._unitary(z, kind)
            assert np.array_equal(row, single[0])
            assert np.array_equal(row, _loop_sample_group(kind, loop, n))

    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    def test_frames_equal_the_one_sample_recipe(self, case):
        # the loop reference reads the stream as gen_calibrated did sample by sample
        rng = np.random.default_rng([3, case])
        for p in gen_calibrated(case, 5, 3):
            if case in (1, 2):
                U = _loop_sample_group("su" if case == 1 else "u", rng)
                assert np.array_equal(p.spec.matrix, U)
            else:
                U1, U2 = _loop_sample_group("su", rng, 4), _loop_sample_group("su", rng, 4)
                D = np.block([[U1, np.zeros((4, 4))], [np.zeros((4, 4)), U2]])
                if case == 3:
                    t1, t2 = rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi / 2)
                    assert p.meta["angles"] == [t1, t2]
                    assert np.array_equal(p.frame, _loop_plane(D, (t1, t1, t2, t2)))
                    continue
                S = _loop_sample_group("sp4", rng)
                assert p.meta["theta"] == rng.uniform(0.05, math.pi / 2 - 0.05)
                assert np.array_equal(p.spec.matrix, D @ S)
            assert np.array_equal(p.frame, realize(p.spec))
            assert np.array_equal(p.frame, _loop_plane(p.spec.matrix, p.spec.angles))

    def test_singular_gaussian_is_reported_by_the_core(self):
        rng = np.random.default_rng(11)
        Z = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        Z[1, :, 1] = Z[1, :, 0]
        with pytest.raises(AssertionError, match="singular Gaussian draw at sample 1"):
            grassmann._unitary(Z, "su")

    @pytest.mark.parametrize("bad,sample", [({9, 10}, 2), (None, 0)])
    def test_singular_gaussian_raises_after_one_pass(self, bad, sample, monkeypatch):
        # family 3: draws 9-10 build sample 2's first basis; None makes every
        # draw singular.  Either way the stream is read once (3 samples x 2
        # bases x 2 draws) and nothing is redrawn
        fakes = []

        def fake_rng(seed):
            fakes.append(_SingularDraws(seed, bad))
            return fakes[-1]

        monkeypatch.setattr(np.random, "default_rng", fake_rng)
        with pytest.raises(AssertionError, match=f"singular Gaussian draw at sample {sample}$"):
            gen_calibrated(3, 3, seed=5)
        assert len(fakes) == 1 and fakes[0]._calls == 12

    @pytest.mark.parametrize("bad", [{1, 2}, None])
    def test_gen_calibrated_raises_on_a_singular_draw(self, bad, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _SingularDraws(seed, bad))
        for case in (1, 2, 3, 4):
            with pytest.raises(AssertionError, match="singular Gaussian draw at sample 0"):
                gen_calibrated(case, 4, seed=0)


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
        for case in (1, 4):
            with pytest.raises(ValueError, match="count must be >= 0"):
                gen_calibrated(case, -2, seed=0)

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
        rep = minor_identity_check(NormalFormSpec(sample_unitary(rng), (0.2, 0.3, 0.4, 0.5)))
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
        assert inner_product(f, hodge_star(f)) == wedge(f, f).coefficient(vol)

    @given(middle_forms(6))
    @settings(max_examples=40, deadline=None)
    def test_shuffle_sum_equals_wedge_square_r6(self, f):
        vol = tuple(range(1, 7))
        assert federer_product(f) * Fraction(8) == wedge(f, f).coefficient(vol)
        assert inner_product(f, hodge_star(f)) == wedge(f, f).coefficient(vol)

    @given(middle_forms(6))
    @settings(max_examples=40, deadline=None)
    def test_float_total_matches_shuffle_sum_r6(self, f):
        assert abs(federer_eval(f) - float(federer_product(f))) < 1e-12

    @given(st.sampled_from([4, 6]).flatmap(middle_forms))
    @example(RealForm(6, {(1, 2, 3): 1, (1, 2, 4): Fraction(1, 3)}))  # no complement present
    @example(RealForm(4, {(1, 2): 1, (3, 4): 2, (1, 3): -1}))  # one complement pair, one lone blade
    @settings(max_examples=60, deadline=None)
    def test_support_walk_equals_full_walk(self, f):
        # route two walks the form's support; a blade whose complement is
        # off the support reads coeff(I^c) = 0, as in the full walk
        n = f.n
        full = grassmann._shuffle_sum(n, f.coefficient, combinations(range(1, n + 1), n // 2))
        assert grassmann._shuffle_sum(n, f.coefficient, map(mask_indices, f._terms)) == full

    def test_float_total_of_phi_is_pinned(self):
        # 147/128 = 0x1.26p+0; the float total lands one ulp below it
        total = federer_eval(PHI)
        assert type(total) is float
        assert total.hex() == "0x1.25fffffffffffp+0"

    def test_routes_raise_on_disagreement(self, monkeypatch):
        # a shuffle sum of 2^(n/2) makes the shuffle route read 1
        monkeypatch.setattr(grassmann, "_shuffle_sum", lambda n, coeff, blades: 2 ** (n // 2))
        with pytest.raises(RouteDisagreement, match="wedge route 147/128 != shuffle route 1"):
            federer_product(PHI)

    def test_kaehler_r4_value(self):
        om = RealForm(4, {(1, 2): 1, (3, 4): 1})
        assert federer_product(om) == Fraction(1, 2)

    def test_a_wrong_shuffle_sign_is_caught_on_r4(self, monkeypatch):
        monkeypatch.setattr(grassmann, "_shuffle_sign", lambda indices: -1)
        with pytest.raises(RouteDisagreement, match="wedge route 1/2 != shuffle route -1/2"):
            federer_product(RealForm(4, {(1, 2): 1, (3, 4): 1}))

    def test_catalog_middle_degree_values(self):
        # the routes agree on every middle-degree catalog form; only the
        # calibration and its spinor twin exceed 1
        want = {"cayley": Fraction(7, 8), "re_omega_8": Fraction(1, 2), "im_omega_8": Fraction(1, 2),
                "omega4": Fraction(35, 128), "phi": Fraction(147, 128), "phi8_spinor": Fraction(147, 128),
                "psi8": Fraction(99, 128), "psi_prime8": Fraction(3, 8), "re_omega_16": Fraction(1, 2)}
        entries = catalog()
        assert {name: federer_product(entries[name].form) for name in want} == want

    def test_rejects_non_middle_forms(self):
        for f in (RealForm.blade(4, (1,)), RealForm(4, {(1,): 1, (1, 2): 1}),
                  RealForm(4), RealForm.blade(4, (1, 2, 3))):
            for route in (federer_product, federer_eval):
                with pytest.raises(ValueError):
                    route(f)

    def test_shuffle_sign_matches_reorder_sign(self):
        for n, k in ((4, 2), (6, 3), (8, 4)):
            full = set(range(1, n + 1))
            for I in combinations(range(1, n + 1), k):
                Ic = tuple(sorted(full - set(I)))
                assert grassmann._shuffle_sign(I) == reorder_sign(blade_mask(I), blade_mask(Ic))


class TestComassSearch:
    def test_blade_form_is_found_by_ascent(self):
        f = RealForm.blade(8, (1, 2, 3, 4), Fraction(3, 2))
        rep = comass_search(f, restarts=4, iters=50, seed=1)
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

    def test_one_form_reaches_its_norm(self):
        # the comass of a 1-form is its Euclidean norm
        f = RealForm(5, {(1,): 2, (3,): -5, (4,): 1})
        rep = comass_search(f, restarts=4, iters=100, seed=0)
        assert abs(rep.best_value - math.sqrt(30)) <= SEARCH_TOL

    def test_rejects_inhomogeneous_and_scalar_forms(self):
        with pytest.raises(ValueError):
            comass_search(RealForm(4, {(1,): 1, (1, 2): 1}), 1, 1)
        with pytest.raises(ValueError):
            comass_search(RealForm(4, {0: 1}), 1, 1)
        with pytest.raises(ValueError, match="homogeneous nonzero form"):
            comass_search(RealForm(4), 1, 1)
        with pytest.raises(ValueError):
            comass_search(RealForm.blade(4, (1, 2)), restarts=0, iters=1)
        with pytest.raises(ValueError):
            comass_search(RealForm.blade(4, (1, 2)), 1, 1, tol=-1)
        with pytest.raises(ValueError):
            comass_search(RealForm.blade(4, (1, 2)), restarts=1, iters=-3)

    def test_report_serializes(self):
        keys = {"form_name", "best_value", "best_restart", "best_frame",
                "restart_records", "kernel", "restarts", "iters", "tol", "seed",
                "plane_tol", "max_abs_coeff"}
        for f, want in ((RealForm.blade(6, (1, 2)), keys),
                        (RealForm.blade(4, (1, 2)), keys | {"wirt_ratio"})):
            doc = comass_search(f, restarts=2, iters=10, seed=0).to_dict()
            json.dumps(doc)
            assert set(doc) == want
            frame = doc["best_frame"]
            assert type(frame) is list and len(frame) == f.n
            assert all(type(row) is list and all(type(x) is float for x in row) for row in frame)
            records = doc["restart_records"]
            assert [set(rec) for rec in records] == [{"value", "iterations", "stop"}] * 2

    def test_restart_records(self):
        f = catalog()["omega2"].form
        rep = comass_search(f, restarts=5, iters=150, seed=3)
        assert len(rep.restart_records) == 5
        assert rep.best_value == max(rec.value for rec in rep.restart_records)
        assert all(rec.stop == "tol" and rec.iterations < 150 for rec in rep.restart_records)
        # with no iterations the restart stops at the cap
        capped = comass_search(f, restarts=1, iters=0, seed=3)
        assert capped.restart_records == (grassmann.RestartRecord(capped.best_value, 0, "cap"),)

    def test_restart_r_starts_from_stream_seed_r(self):
        # with no steps each record is the value at the start frame, which
        # restart r draws from the generator seeded with (seed, r)
        f = RealForm.blade(8, (1, 2, 3, 4), Fraction(3, 2))
        rep = comass_search(f, restarts=4, iters=0, seed=1)
        starts = [grassmann._retract(np.random.default_rng([1, r]).standard_normal((8, 4)))
                  for r in range(4)]
        assert [rec.value for rec in rep.restart_records] == [forms.evaluate(f, M) for M in starts]

    def test_generic_position_form_converges(self):
        # no coefficient of the rotated form reaches 1, so no coordinate
        # blade attains its comass
        Q = _rational_rotation(8, np.random.default_rng(19))
        f = pullback(catalog()["cayley"].form, np.array(Q, dtype=object))
        assert max(abs(c) for c in f.terms().values()) < 1
        rep = comass_search(f, restarts=8, iters=200, seed=0)
        assert 1 - 1e-9 <= rep.best_value <= 1 + PLANE_TOL
        assert all(rec.stop == "tol" for rec in rep.restart_records)

    @pytest.mark.parametrize("name", _NEVER_EXCEED_SUITE)
    def test_random_restarts_reach_declared_calibrations(self, name):
        rep = comass_search(catalog()[name].form, restarts=8, iters=150, seed=0, name=name)
        assert rep.best_value >= 1 - SEARCH_TOL


def _rational_rotation(n, rng):
    """Exact orthogonal matrix: the Cayley transform (I + A)^-1 (I - A) of a
    skew matrix A with entries in {-1/2, 0, 1/2}, by Gauss-Jordan on
    [I + A | I - A]."""
    A = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            A[i][j] = Fraction(int(rng.integers(-1, 2)), 2)
            A[j][i] = -A[i][j]
    aug = [[int(i == j) + A[i][j] for j in range(n)] + [int(i == j) - A[i][j] for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    Q = [row[n:] for row in aug]
    assert all(sum(Q[t][i] * Q[t][j] for t in range(n)) == int(i == j)
               for i in range(n) for j in range(n))
    return Q


def test_frame_gradient_scatter_and_singular_slabs():
    # a random frame takes the all-invertible path; the coordinate frame
    # e_1..e_8 with one column perturbed mixes invertible slabs with
    # singular ones, whose cofactors come from the SVD branch
    kernel = forms.DetKernel.of(PHI)
    rows, coeffs = kernel.rows, kernel.coeffs
    rng = np.random.default_rng(23)
    mixed = np.eye(16)[:, :8]
    mixed[:, 0] += 0.5 * rng.standard_normal(16)
    generic = np.linalg.qr(rng.standard_normal((16, 8)))[0]
    mixed_dets = np.abs(np.linalg.det(mixed[rows, :]))
    assert mixed_dets.min() < 1e-12 and mixed_dets.max() > 1e-3
    assert np.abs(np.linalg.det(generic[rows, :])).min() > 1e-6
    h = 1e-2
    for M in (generic, mixed):
        slabs = M[rows, :]
        dets = np.linalg.det(slabs)
        G = frame_gradient(PHI, M)
        ref = np.zeros_like(M)
        np.add.at(ref, rows, coeffs[:, None, None] * forms._cofactor_batch(slabs, dets))
        assert np.array_equal(G, ref)
        # the value is affine in each entry, so central differences are exact
        # up to rounding
        for i in range(16):
            for j in range(8):
                Mp = M.copy(); Mp[i, j] += h
                Mm = M.copy(); Mm[i, j] -= h
                fd = (frame_value(PHI, Mp) - frame_value(PHI, Mm)) / (2 * h)
                assert abs(G[i, j] - fd) <= 1e-10


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


# inputs every float use refuses with evaluate's message; the zero form is 0
_FRAME_INPUTS = {
    "zero_form": (RealForm(4), np.eye(4)[:, :2], None),
    "three_vectors_for_a_2_form": (RealForm.blade(4, (1, 2)), np.eye(4)[:, :3], "form has grade 2, got 3 vectors"),
    "nan_frame": (RealForm.blade(4, (1, 2)), np.full((4, 2), np.nan), "non-finite entries in vectors"),
    "complex_frame": (RealForm.blade(4, (1, 2)), np.eye(4)[:, :2] * 1j, "complex entries in vectors"),
    "grades_1_and_2": (RealForm(4, {(1,): 1, (1, 2): 1}), np.eye(4)[:, :2], "form is not homogeneous, grades [1, 2]"),
}


@pytest.mark.parametrize("case", list(_FRAME_INPUTS))
def test_frame_gradient_checks_input_like_frame_value(case):
    form, M, message = _FRAME_INPUTS[case]
    if message is None:
        assert frame_value(form, M) == 0.0
        assert np.array_equal(frame_gradient(form, M), np.zeros((4, 2)))
        return
    for fn in (frame_value, frame_gradient):
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            fn(form, M)
        assert type(info.value) is ValueError


class TestSearchKernels:
    def test_kernels_agree_in_value_and_projected_gradient(self):
        clif, det = grassmann._search_kernel(PHI), forms.DetKernel.of(PHI)
        rng = np.random.default_rng(29)
        widest = 0.0
        for _ in range(10):
            M = grassmann._retract(rng.standard_normal((16, 8)))
            ((fc,), sc), ((fd,), sd) = clif.value(M[None]), det.value(M[None])
            assert abs(fc - fd) <= 1e-12
            E = (clif.gradient(sc) - det.gradient(sd))[0]
            assert np.abs(grassmann._project(M, E)).max() <= 1e-12
            # the Euclidean gradients differ by M S with S symmetric
            S = M.T @ E
            assert np.abs(E - M @ S).max() <= 1e-12
            assert np.abs(S - S.T).max() <= 1e-12
            widest = max(widest, np.abs(S).max())
        assert widest > 1e-2

    def test_det_kernel_is_the_float_view(self):
        # one object per form serves evaluate, frame_gradient and the search
        f = catalog()["cayley"].form
        kernel = forms.DetKernel.of(f)
        assert forms.DetKernel.of(f) is kernel
        assert grassmann._search_kernel(f) is kernel
        for a in (kernel.rows, kernel.coeffs):
            with pytest.raises(ValueError):
                a.flat[0] = 0
        rng = np.random.default_rng(37)
        for _ in range(5):
            M = rng.standard_normal((f.n, f.grade()))
            assert forms.evaluate(f, M).hex() == float(kernel.value(M[None])[0][0]).hex()

    def test_clifford_kernel_takes_its_sign_matrix(self):
        # with D = I the kernel evaluates the spinor grade-8 part itself,
        # which the search still runs on the det kernel
        phi8 = catalog()["phi8_spinor"].form
        kernel = clifford.CliffordKernel(np.eye(16))
        rng = np.random.default_rng(31)
        for _ in range(10):
            M = grassmann._retract(rng.standard_normal((16, 8)))
            (f,), state = kernel.value(M[None])
            assert abs(f - forms.evaluate(phi8, M)) <= 1e-12
            E = kernel.gradient(state)[0] - frame_gradient(phi8, M)
            assert np.abs(grassmann._project(M, E)).max() <= 1e-12

    def test_clifford_kernel_runs_on_phi_alone(self):
        phi8 = catalog()["phi8_spinor"].form
        flipped = dict(PHI.terms())
        flipped[next(iter(flipped))] *= -1
        others = (phi8, PHI * 2, RealForm(16, flipped), catalog()["cayley"].form)
        assert grassmann._search_kernel(PHI).name == "clifford"
        assert [grassmann._search_kernel(f).name for f in others] == ["det"] * 4
        assert len(phi8) == len(RealForm(16, flipped)) == 294
        assert comass_search(PHI, restarts=1, iters=0).kernel == "clifford"
        assert comass_search(phi8, restarts=1, iters=0).kernel == "det"

    def test_det_path_search_is_pinned(self):
        # the value, step count and stop of each restart, as the search
        # gave them before the kernel interface
        rep = comass_search(catalog()["cayley"].form, restarts=4, iters=50, seed=0)
        assert rep.kernel == "det"
        assert [(r.value.hex(), r.iterations, r.stop) for r in rep.restart_records] == [
            ("0x1.0000000000001p+0", 5, "tol"),
            ("0x1.ffffffffffee0p-1", 5, "tol"),
            ("0x1.ffffffffffb9fp-1", 4, "tol"),
            ("0x1.ffffffffffe08p-1", 4, "tol"),
        ]

    # SHA-256 of repr([(value.hex(), iterations, stop), ...]) over the restart
    # records of comass_search(PHI, 20, 300, seed=s), as the one-restart-at-a-
    # time ascent gave them; restart 19 stops at the cap at seeds 1 and 3
    PHI_RECORD_DIGESTS = (
        "c9824b51e024f1c2419e35dbf0db7eda8d7ddd9e46f656ebef94fb7b7f0b481a",
        "b5896985a7bd72e3ea3755295a0f3828c5f4372617f4e66f88e821098712c361",
        "2561bed04368fe96fa40e9a25a7719e13176254a8921691edaa0fe3f47b859bb",
        "a62bd6943725d6907d07528a6b614c4524f6d17eba094be302cbb52ef9df80d8",
        "3a7945a39e27ce73ac0f98e47d15aebcecf945059b1fda75f05abfcd6e49b074",
        "3c831ea22d6294a55f411a9c0583be982ee648e7797b6a29d5324fd55fc7dcac",
    )

    @pytest.mark.parametrize("seed", range(6))
    def test_phi_search_records_are_pinned(self, seed):
        rep = comass_search(PHI, 20, 300, seed=seed)
        records = [(r.value.hex(), r.iterations, r.stop) for r in rep.restart_records]
        assert hashlib.sha256(repr(records).encode()).hexdigest() == self.PHI_RECORD_DIGESTS[seed]

    @pytest.mark.parametrize("name,seed,iters,tol", [
        ("phi", 3, 300, SEARCH_TOL),    # tol stops and one cap, more starts than the pool
        ("cayley", 0, 8, 0.0),          # line-search stops and caps on the det kernel
        ("phi", 0, 0, SEARCH_TOL),      # every start is kept and stops at the cap
    ])
    def test_a_restart_climbs_alone_as_in_its_stack(self, name, seed, iters, tol):
        form = catalog()[name].form
        kernel = grassmann._search_kernel(form)
        starts = [grassmann._retract(np.random.default_rng([seed, r]).standard_normal((form.n, form.grade())))
                  for r in range(grassmann._POOL_WIDTH + 12)]
        together = grassmann._ascend(kernel, starts, iters, tol)
        stops = set()
        for M0, (value, frame, steps, stop) in zip(starts, together, strict=True):
            ((value1, frame1, steps1, stop1),) = grassmann._ascend(kernel, [M0], iters, tol)
            assert (value.hex(), steps, stop) == (value1.hex(), steps1, stop1)
            assert np.array_equal(frame, frame1)
            if iters == 0:
                assert steps == 0 and np.array_equal(frame, M0) and value == float(kernel.value(M0[None])[0][0])
            stops.add(stop)
        assert stops == ({"cap"} if iters == 0 else {"tol", "cap"} if name == "phi" else {"line_search", "cap"})

    def test_search_and_sampler_memory_stay_in_budget(self):
        # tracemalloc peaks, after a warm-up that builds the kernels: 0.17 and
        # 0.29 MiB one restart and one sample at a time, 0.69 and 0.93 MiB
        # stacked at a pool of 8; a 20-wide pool read 3.98 MiB
        comass_search(PHI, 1, 1)
        gen_calibrated(4, 1, 0)
        for run in (lambda: comass_search(PHI, 20, 300), lambda: gen_calibrated(4, 100, 0)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * 2**20

    def test_spinor_path_search_is_pinned(self):
        # the value, step count and stop of each restart, as the search gave
        # them while the spinor kernel lived in grassmann
        rep = comass_search(PHI, restarts=4, iters=300, seed=0)
        assert rep.kernel == "clifford"
        assert [(r.value.hex(), r.iterations, r.stop) for r in rep.restart_records] == [
            ("0x1.fffffffffdff1p-1", 34, "tol"),
            ("0x1.fffffffffffdep-1", 24, "tol"),
            ("0x1.ffffffffff7fap-1", 31, "tol"),
            ("0x1.ffffffffffe88p-1", 23, "tol"),
        ]
