import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from calibench.catalog import (
    CAYLEY_TERMS,
    J8,
    J16,
    NORM_TABLE_EXPECTED,
    STANDARD8,
    STANDARD16,
    W16,
    ComplexPairing,
    RouteDisagreement,
    build_cayley,
    build_phi,
    build_spinor_family,
    catalog,
    holomorphic_volume,
    kaehler_form,
    kaehler_power,
    norm_table,
    phi_components,
    sigma_half_sq,
    spinor_pullback_matrix,
    spinor_pullback_phi,
)
from calibench.forms import (
    RealForm,
    dump_form,
    evaluate,
    hodge_star,
    inner_product,
    pullback,
    wedge,
    wedge_power,
)


def test_pairing_validation():
    with pytest.raises(ValueError):
        ComplexPairing(4, ((1, 1, 1, 1),))
    with pytest.raises(ValueError):
        ComplexPairing(4, ((1, 5, 1, 1),))
    with pytest.raises(ValueError):
        ComplexPairing(4, ((1, 2, 2, 1),))
    with pytest.raises(ValueError):
        ComplexPairing(4, ((1, 2, 1, 1), (2, 3, 1, 1)))


def test_standard8_kaehler_form():
    om = kaehler_form(STANDARD8)
    assert om == RealForm(8, {(1, 2): 1, (3, 4): 1, (5, 6): 1, (7, 8): 1})


def test_standard8_holomorphic_volume():
    O = holomorphic_volume(STANDARD8)
    assert O.re.grade() == 4 and O.im.grade() == 4
    assert len(O.re) == 8 and len(O.im) == 8
    assert inner_product(O.re, O.re) == 8
    assert inner_product(O.im, O.im) == 8
    assert inner_product(O.re, O.im) == 0
    assert O.re.coefficient((1, 3, 5, 7)) == 1


def test_kaehler_powers():
    for k in range(1, 5):
        f = kaehler_power(STANDARD16, k)
        assert f.grade() == 2 * k
        assert inner_product(f, f) == math.comb(8, k)
    with pytest.raises(ValueError):
        kaehler_power(STANDARD16, 0)


def test_kaehler_power_duality():
    # *(omega^k/k!) = omega^(8-k)/(8-k)! on the eight-pair structure
    for k in range(0, 9):
        om_k = wedge_power(kaehler_form(STANDARD16), k) * Fraction(1, math.factorial(k))
        om_c = wedge_power(kaehler_form(STANDARD16), 8 - k) * Fraction(1, math.factorial(8 - k))
        assert hodge_star(om_k) == om_c


def test_sigma2_entry():
    f = sigma_half_sq(STANDARD16)
    assert f.grade() == 4
    assert len(f) == 48
    assert set(f.terms().values()) <= {Fraction(1), Fraction(-1)}
    assert inner_product(f, f) == 48
    with pytest.raises(ValueError):
        sigma_half_sq(ComplexPairing(6, ((1, 2, 1, 1), (3, 4, 1, 1), (5, 6, 1, 1))))


def test_re_omega_norms():
    assert inner_product(*(holomorphic_volume(STANDARD8).re,) * 2) == 8
    assert inner_product(*(holomorphic_volume(STANDARD16).re,) * 2) == 128


class TestCayley:
    def test_routes_agree(self):
        assert build_cayley() == RealForm(8, CAYLEY_TERMS)

    def test_term_structure(self):
        f = build_cayley()
        assert f.grade() == 4
        assert len(f) == 14
        assert set(f.terms().values()) <= {Fraction(1), Fraction(-1)}
        assert f.coefficient((1, 2, 3, 4)) == 1
        assert f.coefficient((5, 6, 7, 8)) == 1

    def test_square_and_norm(self):
        f = build_cayley()
        assert wedge(f, f) == 14 * RealForm.volume(8)
        assert inner_product(f, f) == 14

    def test_self_dual(self):
        f = build_cayley()
        assert hodge_star(f) == f

    def test_unit_value_on_coordinate_quadruple(self):
        f = build_cayley()
        frame = np.eye(8)[:, :4]
        assert evaluate(f, frame) == 1.0


class TestGradeEight:
    def test_term_count_and_coefficients(self):
        f = build_phi()
        assert f.grade() == 8
        assert len(f) == 294
        assert set(f.terms().values()) <= {Fraction(1), Fraction(-1)}

    def test_component_counts_are_disjoint(self):
        comps, _ = phi_components()
        sizes = tuple(len(c) for c in comps)
        assert sizes == (128, 70, 48, 48)
        masks = [set(c.terms()) for c in comps]
        assert sum(len(m) for m in masks) == len(set().union(*masks)) == 294

    def test_square_norm_and_duality(self):
        f = build_phi()
        assert wedge(f, f) == 294 * RealForm.volume(16)
        assert inner_product(f, f) == 294
        assert hodge_star(f) == f

    def test_phase_family_keeps_the_invariants(self):
        for phase in ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))):
            f = build_phi(STANDARD16, phase)
            assert inner_product(f, f) == 294
            assert wedge(f, f) == 294 * RealForm.volume(16)
            assert hodge_star(f) == f

    def test_bad_phase_rejected(self):
        with pytest.raises(ValueError):
            build_phi(STANDARD16, (Fraction(1, 2), Fraction(1, 2)))

    def test_wrong_pairing_size_rejected(self):
        with pytest.raises(ValueError):
            phi_components(STANDARD8)

    def test_alternate_structures_build_too(self):
        assert len(build_phi(J16)) == 294
        assert len(build_phi(W16)) == 294

    def test_only_the_standard_form_is_cached(self):
        # the other pairings and phases are read once per process, so they
        # are rebuilt rather than kept
        assert build_phi() is build_phi(STANDARD16, None)
        assert build_phi(W16) is not build_phi(W16)
        assert build_phi(W16) == build_phi(W16)


class TestSpinorFamily:
    def test_norm_tables(self):
        fam = build_spinor_family()
        for key in ("psi", "psi_prime", "phi"):
            assert norm_table(fam[key]) == NORM_TABLE_EXPECTED[key]

    def test_closed_forms_match_grade_parts(self):
        fam = build_spinor_family()
        assert set(fam) == {"psi", "psi_prime", "phi"}
        assert fam["phi"] == fam["psi"] + fam["psi_prime"]

    def test_duality_signs(self):
        # even grade parts pair across complementary grades; the sign is +
        # for grades divisible by four and - for the rest
        fam = build_spinor_family()
        for key in ("psi", "psi_prime", "phi"):
            f = fam[key]
            for k in range(0, 17, 2):
                sign = 1 if k % 4 == 0 else -1
                assert hodge_star(f.grade_part(k)) == sign * f.grade_part(16 - k)

    def test_pullback_lands_on_the_standard_form(self):
        fam = build_spinor_family()
        L = spinor_pullback_matrix()
        assert pullback(fam["phi"].grade_part(8), L) == build_phi()

    def test_pullback_matrix_signs(self):
        L = spinor_pullback_matrix()
        d = np.diag(L)
        assert set(np.nonzero(d == -1)[0] + 1) == {1, 2, 4, 6, 9, 16}
        assert (L == np.diag(d)).all()

    def test_grade_zero_parts(self):
        fam = build_spinor_family()
        assert fam["psi"].grade_part(0) == RealForm(16, {0: 1})
        assert fam["psi_prime"].grade_part(0).is_zero()


def test_catalog_contents():
    ents = catalog()
    assert len(ents) == 25
    expected = {
        "phi", "cayley", "re_omega_8", "im_omega_8", "re_omega_16", "sigma2",
        "omega1", "omega2", "omega3", "omega4",
        "psi4", "psi8", "psi12", "psi16",
        "psi_prime4", "psi_prime6", "psi_prime8", "psi_prime10", "psi_prime12",
        "phi4_spinor", "phi6_spinor", "phi8_spinor", "phi10_spinor", "phi12_spinor", "phi16_spinor",
    }
    assert set(ents) == expected
    for name, e in ents.items():
        assert e.name == name
        assert e.form.grade() is not None
        assert e.comass_expected == 1
        assert max(abs(c) for c in e.form.terms().values()) <= 1


def test_catalog_digest_is_pinned():
    ents = catalog()
    text = "".join(name + "\n" + dump_form(e.form) for name, e in sorted(ents.items()))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "458391a2b50d3437d6653c18ae33f8eacb716b43be1e2ee09bf7f1f86f718b33"


# SHA-256 of each form's serialization-order term list and of its storage
# order (the order ``DetKernel``'s float view sums in), for forms made by
# ``endo_to_form``, ``pullback`` and ``wedge``
TERM_LIST_DIGESTS = {
    "psi": ("f0febce34eb49825ac0562ac70721fb8f8ac401c0d569b0db674405c2e13df88",
            "32fb169257acdbb2d68c070a2928a3a5f820a0e2503d05e025509bc811adfeff"),
    "psi_prime": ("32997153440c220de7e9587428cbe24083458c61e9f9fa11939350e5ba29806e",
                  "17ce3ab8877eae1d10f0965892986170de070432207a01a4346825aa6acacf1c"),
    "phi": ("b4ba610c44f6ea85f617a5ed65850a87f3acbc1776c771f39c0624fe254464fb",
            "9097badb001557ac98b8acc72f2552ab89413f81a6b46683b6a68d5154cf437c"),
    "spinor_pullback_phi": ("09141b3f25ebbef6065f9116819e20193fe346b490e09a9b7331e78278d31e55",
                            "387067952fea362ba4681c6e1908aa0c54138d6dc05b3befc456bd3f83f0f07a"),
    "phi_squared": ("259917d6355e49768270aa0af9a35867bad08df9b7cf45cd478f4d6fcec9307a",
                    "c5af7e7a68b06a9479d25e02b4541360c9916110aca2b3c50b84ff26c353ca4f"),
    "phase_3_4": ("f1103d9c228074123cd560793b87d569dc80492721eb00874c6a1feeb97b2382",
                  "4bd11b9303a7def6cb8e462c1f695eb7d0f905f3fc60acc30c8f241054f30e5a"),
    "phase_5_12": ("d466abe316c746f97479fbd0427066a4f5c30361c6752d7dc2f71bffd0288553",
                   "4bd11b9303a7def6cb8e462c1f695eb7d0f905f3fc60acc30c8f241054f30e5a"),
}


def _pinned_forms():
    fam = build_spinor_family()
    phi = build_phi()
    yield from (("psi", fam["psi"]), ("psi_prime", fam["psi_prime"]), ("phi", fam["phi"]))
    yield "spinor_pullback_phi", spinor_pullback_phi()
    yield "phi_squared", wedge(phi, phi)
    yield "phase_3_4", build_phi(phase=(Fraction(3, 5), Fraction(4, 5)))
    yield "phase_5_12", build_phi(phase=(Fraction(5, 13), Fraction(12, 13)))


def test_term_lists_and_storage_orders_are_pinned():
    for name, f in _pinned_forms():
        got = tuple(hashlib.sha256(repr(x).encode()).hexdigest() for x in (list(f.terms().items()), list(f._terms)))
        assert got == TERM_LIST_DIGESTS[name], name


def test_catalog_spinor_parts_match_family():
    ents = catalog()
    fam = build_spinor_family()
    assert ents["psi8"].form == fam["psi"].grade_part(8)
    assert ents["phi8_spinor"].form == fam["phi"].grade_part(8)
    assert ents["psi_prime6"].form == fam["psi_prime"].grade_part(6)


def test_subset_slices_pairs():
    sub = J16.subset(0, 4)
    assert sub.n == 16
    assert sub.pairs == J16.pairs[:4]
    assert J8.pairs == tuple((a, b, c, s) for (a, b, c, s) in J8.pairs)
