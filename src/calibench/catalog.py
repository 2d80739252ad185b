"""Named calibration forms and the constructors behind them.

Complex structures are described by pairings: each complex coordinate is
Z_j = s_j (E_{a_j} + i c_j E_{b_j}) with conjugation flag c_j and overall
sign s_j in {+1, -1}.  The Kaehler 2-form of a pairing is sum_j c_j E_{a_j b_j}
(the overall signs drop out), the holomorphic volume is the wedge of the Z_j.

Builders return bare forms and compare their own routes:

* ``build_cayley``: the 4-form on R^8 calibrating Cayley planes, via three
  independent routes that must agree exactly (a frozen 14-term list, the
  alternation of the octonion chain, and the complex-structure identity).
* ``build_phi``: the grade-8 form on R^16, via two expressions that must
  agree exactly; its four building blocks have disjoint supports of sizes
  128 + 70 + 48 + 48 = 294 and all coefficients are +-1.
* ``build_spinor_family``: the forms obtained by projecting rank-one spinor
  endomorphisms; cross-checked exactly against closed-form expressions and
  the reversed-structure recipe ``build_phi(W16)``.  ``spinor_pullback_phi``
  pulls its grade-8 part back onto the axes of ``build_phi()``.
* ``kaehler_power``, ``sigma_half_sq`` and ``holomorphic_volume``: the
  standard forms of a complex pairing.

All disagreement paths raise ``RouteDisagreement``; nothing is patched over.
``catalog()`` is the one place that names a form and declares its comass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from calibench import clifford
from calibench.forms import (
    ComplexForm,
    RealForm,
    alternation,
    cwedge,
    inner_product,
    pullback,
    wedge,
    wedge_power,
)
from calibench.octonion import Octonion, conjugation_chain

__all__ = [
    "ComplexPairing",
    "CatalogEntry",
    "RouteDisagreement",
    "STANDARD8",
    "STANDARD16",
    "J8",
    "J16",
    "W16",
    "kaehler_form",
    "holomorphic_volume",
    "kaehler_power",
    "sigma_half_sq",
    "build_cayley",
    "build_phi",
    "phi_components",
    "build_spinor_family",
    "spinor_pullback_matrix",
    "spinor_pullback_phi",
    "norm_table",
    "NORM_TABLE_EXPECTED",
    "catalog",
    "CAYLEY_TERMS",
]


class RouteDisagreement(AssertionError):
    """Two supposedly identical construction routes produced different forms."""


@dataclass(frozen=True)
class ComplexPairing:
    """Ambient dimension plus (a, b, conj_flag, overall_sign) per complex coordinate."""

    n: int
    pairs: tuple

    def __post_init__(self):
        seen = set()
        for (a, b, c, s) in self.pairs:
            if not (1 <= a <= self.n and 1 <= b <= self.n) or a == b:
                raise ValueError(f"bad index pair ({a}, {b}) for n={self.n}")
            if c not in (1, -1) or s not in (1, -1):
                raise ValueError("flags must be +1 or -1")
            if a in seen or b in seen:
                raise ValueError("indices reused across pairs")
            seen.update((a, b))

    def z(self, j):
        """The j-th complex coordinate 1-form (0-based j)."""
        a, b, c, s = self.pairs[j]
        return ComplexForm(RealForm.one_form(self.n, a, s), RealForm.one_form(self.n, b, s * c))

    def subset(self, lo, hi):
        return ComplexPairing(self.n, self.pairs[lo:hi])


def _std_pairs(n_complex):
    return tuple((2 * j + 1, 2 * j + 2, 1, 1) for j in range(n_complex))


STANDARD8 = ComplexPairing(8, _std_pairs(4))
STANDARD16 = ComplexPairing(16, _std_pairs(8))

_J_FLAGS = (1, -1, -1, 1)
J8 = ComplexPairing(8, tuple((2 * j + 1, 2 * j + 2, _J_FLAGS[j], 1) for j in range(4)))
J16 = ComplexPairing(
    16,
    tuple((2 * j + 1, 2 * j + 2, _J_FLAGS[j % 4], 1) for j in range(8)),
)

# reversed second structure with the first coordinate of each factor negated
_W_CONJ = (1, -1, -1, 1, -1, 1, 1, -1)
_W_SIGN = (-1, 1, 1, 1, -1, 1, 1, 1)
W16 = ComplexPairing(16, tuple((2 * j + 1, 2 * j + 2, _W_CONJ[j], _W_SIGN[j]) for j in range(8)))


def kaehler_form(pairing):
    f = RealForm.zero(pairing.n)
    for (a, b, c, _s) in pairing.pairs:
        f = f + RealForm(pairing.n, {(a, b): c})
    return f


def holomorphic_volume(pairing):
    out = ComplexForm(RealForm(pairing.n, {0: 1}))
    for j in range(len(pairing.pairs)):
        out = cwedge(out, pairing.z(j))
    return out


def kaehler_power(pairing, k):
    """omega^k/k! for the Kaehler form omega of a pairing, k >= 1."""
    if k < 1:
        raise ValueError("kaehler_power needs k >= 1")
    return wedge_power(kaehler_form(pairing), k) * Fraction(1, math.factorial(k))


def sigma_half_sq(pairing):
    """The real part of half the square of the complex symplectic form
    pairing consecutive complex coordinates."""
    m = len(pairing.pairs)
    if m % 2:
        raise ValueError("sigma_half_sq needs an even number of complex coordinates")
    sigma = ComplexForm(RealForm.zero(pairing.n))
    for j in range(0, m, 2):
        sigma = sigma + cwedge(pairing.z(j), pairing.z(j + 1))
    return (cwedge(sigma, sigma) * Fraction(1, 2)).re


# Cayley 4-form ---------------------------------------------------------------

# frozen expansion: the 14 blades with unit coefficients
CAYLEY_TERMS = {
    (1, 2, 3, 4): 1,
    (1, 2, 5, 6): 1,
    (1, 2, 7, 8): -1,
    (1, 3, 5, 7): 1,
    (1, 3, 6, 8): 1,
    (1, 4, 5, 8): 1,
    (1, 4, 6, 7): -1,
    (5, 6, 7, 8): 1,
    (3, 4, 7, 8): 1,
    (3, 4, 5, 6): -1,
    (2, 4, 6, 8): 1,
    (2, 4, 5, 7): 1,
    (2, 3, 6, 7): 1,
    (2, 3, 5, 8): -1,
}


def build_cayley():
    """The Cayley 4-form on R^8.

    Three routes, compared exactly: the frozen expansion, the alternation of
    the real part of the conjugation chain, and Re(volume) minus half the
    squared Kaehler form of the i-multiplication structure.  Any mismatch
    raises RouteDisagreement.  The chain route builds the 8 octonion units
    once, for the alternation's 1,680 argument tuples.
    """

    def from_chain():
        # alternation passes basis vectors only, so each argument is a unit
        units = [Octonion.basis(i) for i in range(8)]

        def T(*xs):
            return conjugation_chain([units[x.index(1)] for x in xs]).real()

        return alternation(T, 4, 8)

    def from_complex():
        om = kaehler_form(J8)
        return holomorphic_volume(J8).re - wedge(om, om) * Fraction(1, 2)

    ref = RealForm(8, CAYLEY_TERMS)
    for name, fn in (("chain_alt", from_chain), ("complex_identity", from_complex)):
        if fn() != ref:
            raise RouteDisagreement(f"cayley route {name} disagrees with the frozen expansion")
    return ref


# the grade-8 calibration on R^16 --------------------------------------------


def _phase_scale(omega_c, phase):
    """Multiply a complex form by the exact unit complex number (c, s)."""
    if phase is None:
        return omega_c
    c, s = Fraction(phase[0]), Fraction(phase[1])
    if c * c + s * s != 1:
        raise ValueError("phase must be an exact point on the unit circle")
    return ComplexForm(omega_c.re * c - omega_c.im * s, omega_c.re * s + omega_c.im * c)


def phi_components(pairing=STANDARD16, phase=None):
    """The four building blocks: Re(O1^O2), omega^4/4!, ReO1 ^ om2^2/2, om1^2/2 ^ ReO2."""
    if len(pairing.pairs) != 8:
        raise ValueError("need eight complex coordinates")
    o1 = _phase_scale(holomorphic_volume(pairing.subset(0, 4)), phase)
    o2 = holomorphic_volume(pairing.subset(4, 8))
    om1 = kaehler_form(pairing.subset(0, 4))
    om2 = kaehler_form(pairing.subset(4, 8))
    om = om1 + om2
    half = Fraction(1, 2)
    return (
        cwedge(o1, o2).re,
        wedge_power(om, 4) * Fraction(1, 24),
        wedge(o1.re, wedge_power(om2, 2) * half),
        wedge(wedge_power(om1, 2) * half, o2.re),
    ), (o1, o2, om1, om2)


def build_phi(pairing=STANDARD16, phase=None):
    """The grade-8 calibration, built two ways and compared exactly.

    Expression one: Re(O) + omega^4/4! + Re(O1 + O2) ^ omega^2/2.
    Expression two: the four disjoint-support components.  Their equality
    uses om_i ^ O_i = 0, which is asserted too.  Only the standard form is
    cached (``build_phi.cache_clear`` empties that cache): the other pairings
    and phases are each read once, so keeping them would only hold memory.
    A disagreement raises, so it is never cached.
    """
    if pairing == STANDARD16 and phase is None:
        return _standard_phi()
    return _assemble_phi(pairing, phase)


def _assemble_phi(pairing, phase):
    comps, (o1, o2, om1, om2) = phi_components(pairing, phase)
    om = om1 + om2
    half = Fraction(1, 2)
    expr1 = comps[0] + comps[1] + wedge(o1.re + o2.re, wedge_power(om, 2) * half)
    expr2 = comps[0] + comps[1] + comps[2] + comps[3]
    for i, (om_i, o_i) in enumerate(((om1, o1), (om2, o2)), 1):
        vanishing = cwedge(om_i, o_i)
        if not vanishing.re.is_zero() or not vanishing.im.is_zero():
            raise RouteDisagreement(f"om{i} ^ O{i} is not zero")
    if expr1 != expr2:
        raise RouteDisagreement("the two expressions for the grade-8 form disagree")
    return expr1


@functools.cache
def _standard_phi():
    return _assemble_phi(STANDARD16, None)


build_phi.cache_clear = _standard_phi.cache_clear


# spinor family ---------------------------------------------------------------


def spinor_pullback_matrix():
    """Diagonal sign matrix carrying the spinor grade-8 form onto build_phi()
    (the ``spinor_pullback`` check compares the two).

    Derived by matching the reversed-structure coordinates against the
    standard ones; flips axes 1, 2, 4, 6, 9, 16.
    """
    d = np.ones(16, dtype=np.int64)
    for pos in (1, 2, 4, 6, 9, 16):
        d[pos - 1] = -1
    return np.diag(d)


@functools.lru_cache(maxsize=None)
def build_spinor_family():
    """Project the three rank-one spinor endomorphisms and verify the family.

    Returns a dict with keys 'psi', 'psi_prime' and 'phi' = psi + psi_prime
    (full mixed-grade forms).  Raises RouteDisagreement unless every exact
    comparison holds:

    * grade 4: psi = cayley + shifted cayley, psi' = omJ ^ omJ',
      phi = Re(OmJ + OmJ') - (omJ - omJ')^2/2
    * grade 2: psi' = 0
    * grade 8: the closed forms of psi, psi' and phi
    * grade 8: phi equals the reversed-structure recipe build_phi(W16)
    """
    s = clifford.spinor_vector(clifford.S_PLUS)
    sp = clifford.spinor_vector(clifford.S_PRIME)
    psi = clifford.endo_to_form(256 * np.outer(s, s))
    psip = clifford.endo_to_form(256 * np.outer(sp, s))
    phi = psi + psip

    omJ = kaehler_form(J16.subset(0, 4))
    omJp = kaehler_form(J16.subset(4, 8))
    OmJ = holomorphic_volume(J16.subset(0, 4))
    OmJp = holomorphic_volume(J16.subset(4, 8))
    half = Fraction(1, 2)
    f24 = Fraction(1, 24)
    sixth = Fraction(1, 6)

    cay = RealForm(16, CAYLEY_TERMS)
    cayp = RealForm(16, {tuple(i + 8 for i in t): c for t, c in CAYLEY_TERMS.items()})

    checks = {
        "psi_4": (psi.grade_part(4), cay + cayp),
        "psi_prime_4": (psip.grade_part(4), wedge(omJ, omJp)),
        "psi_prime_2": (psip.grade_part(2), RealForm.zero(16)),
        "psi_8": (
            psi.grade_part(8),
            f24 * wedge_power(omJ, 4) + f24 * wedge_power(omJp, 4) + wedge(cay, cayp),
        ),
        "psi_prime_8": (
            psip.grade_part(8),
            wedge(OmJ.im, OmJp.im)
            - wedge(omJ, sixth * wedge_power(omJp, 3))
            - wedge(sixth * wedge_power(omJ, 3), omJp),
        ),
        "phi_4": (phi.grade_part(4), OmJ.re + OmJp.re - half * wedge_power(omJ - omJp, 2)),
        "phi_8": (
            phi.grade_part(8),
            f24 * wedge_power(omJ - omJp, 4)
            + wedge(OmJ.im, OmJp.im)
            + wedge(OmJ.re, OmJp.re)
            - wedge(OmJ.re, half * wedge_power(omJp, 2))
            - wedge(half * wedge_power(omJ, 2), OmJp.re),
        ),
    }
    for name, (got, expect) in checks.items():
        if got != expect:
            raise RouteDisagreement(f"spinor family check {name} failed")

    if phi.grade_part(8) != build_phi(W16):
        raise RouteDisagreement("spinor grade-8 form does not match the reversed-structure recipe")

    return {"psi": psi, "psi_prime": psip, "phi": phi}


@functools.cache
def spinor_pullback_phi():
    """The spinor grade-8 part pulled back by ``spinor_pullback_matrix``: the
    calibration's spinor route, which the ``spinor_pullback`` check compares
    with build_phi() and the comass search reads to pick its kernel."""
    return pullback(build_spinor_family()["phi"].grade_part(8), spinor_pullback_matrix())


NORM_TABLE_EXPECTED = {
    "psi": (1, 0, 28, 0, 198, 0, 28, 0, 1),
    "psi_prime": (0, 0, 16, 64, 96, 64, 16, 0, 0),
    "phi": (1, 0, 44, 64, 294, 64, 44, 0, 1),
}


def norm_table(f):
    """Squared norms of the even-grade parts (grades 0, 2, ..., 16)."""
    return tuple(int(inner_product(f.grade_part(k), f.grade_part(k))) for k in range(0, 17, 2))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    form: RealForm
    comass_expected: Fraction


@functools.lru_cache(maxsize=None)
def catalog():
    """Name -> CatalogEntry for every form the CLI can address.  Each one is
    a calibration, so each declares comass 1."""
    omega8 = holomorphic_volume(STANDARD8)
    named = {
        "phi": build_phi(),
        "cayley": build_cayley(),
        "re_omega_8": omega8.re,
        "im_omega_8": omega8.im,
        "re_omega_16": holomorphic_volume(STANDARD16).re,
        "sigma2": sigma_half_sq(STANDARD16),
    }
    for k in range(1, 5):
        named[f"omega{k}"] = kaehler_power(STANDARD16, k)

    fam = build_spinor_family()
    for key, label in (("psi", "psi{}"), ("psi_prime", "psi_prime{}"), ("phi", "phi{}_spinor")):
        for g in fam[key].grades():
            if g:
                named[label.format(g)] = fam[key].grade_part(g)
    return {name: CatalogEntry(name, f, Fraction(1)) for name, f in named.items()}
