"""Exact exterior algebra on R^n with rational coefficients.

A form is a finite sum of coordinate blades ``E_I = E_{i1} ^ ... ^ E_{ik}``
with strictly increasing indices ``1 <= i1 < ... < ik <= n`` and nonzero
rational coefficients.  Blades are stored as integer bitmasks (bit ``i-1``
set means index ``i`` is present), the usual trick in geometric algebra
codes.  Every coordinate plane is oriented by increasing index order;
``vol = E_{1..n}``.  A form holds its coefficients as one common denominator
and int numerators (see ``RealForm``), and hands out ``Fraction``s only where
its public API returns a coefficient.

Exact operations (wedge, Hodge star, inner product, alternation, linear
pullback) never touch floats.  They read and write the int pair directly:
``wedge`` multiplies and sums numerators in Python ints and its result sits
over the product of the operands' denominators.  The sign of a blade pair is
one popcount against a prefix-XOR mask (``reorder_sign``), O(log n)
shift-XORs per mask.  Against a homogeneous right factor, a term whose grade
fills the complement looks its one partner up instead of scanning.

``DetKernel`` is a form's float view, built from the int pair on its first
float use and kept on the form.  Its determinant sum is the one float
evaluation of a form: ``evaluate``, ``grassmann.frame_gradient`` and the
det-path comass search all read the same object.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np

__all__ = [
    "RealForm",
    "ComplexForm",
    "blade_mask",
    "mask_indices",
    "reorder_sign",
    "perm_sign",
    "wedge",
    "hodge_star",
    "inner_product",
    "evaluate",
    "DetKernel",
    "alternation",
    "pullback",
    "form_to_dict",
    "form_from_dict",
    "dump_form",
    "load_form",
    "SchemaError",
    "MAX_N",
]

# largest ambient dimension a serialized form may declare: the catalog lives
# on R^8 and R^16, and R^32 is the largest planned; the cap keeps a hostile
# file from making blade masks of millions of bits
MAX_N = 64


class SchemaError(ValueError):
    """Malformed serialized form (bad indices, duplicate blades, zero terms)."""


def blade_mask(indices):
    """Bitmask of a strictly increasing index tuple (1-based indices)."""
    mask = 0
    prev = 0
    for i in indices:
        if i <= prev:
            if i < 1:
                raise ValueError(f"blade indices are 1-based, got {tuple(indices)}")
            raise ValueError(f"blade indices must be strictly increasing, got {tuple(indices)}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def mask_indices(mask):
    """Increasing 1-based index tuple of a bitmask (a nonnegative int)."""
    if mask < 0:
        raise ValueError(f"blade mask must be nonnegative, got {mask}")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _below_parity(mask_b, width):
    """Mask whose bit i is the parity of the bits of ``mask_b`` below i, for
    every i < ``width``: the prefix XOR of ``mask_b << 1``, by shift-XORs of
    1, 2, 4, ... (six of them for width 64).  Bits at or above ``width`` are
    not meaningful."""
    p = mask_b << 1
    s = 1
    while s < width:
        p ^= p << s
        s <<= 1
    return p


def reorder_sign(mask_a, mask_b):
    """Sign of sorting the concatenation (A..., B...) into increasing order.

    The transpositions are the pairs (i in A, j in B) with i > j, so their
    parity is the parity of popcount(A & P), where bit i of P is the parity
    of B's bits below i (see ``_below_parity``).  The masks must be disjoint
    for a wedge, but the count itself never needs that.  Negative masks are
    refused.
    """
    if mask_a < 0 or mask_b < 0:
        raise ValueError(f"blade masks must be nonnegative, got {mask_a}, {mask_b}")
    return -1 if (mask_a & _below_parity(mask_b, mask_a.bit_length())).bit_count() & 1 else 1


def perm_sign(perm):
    """Sign of a permutation given as a sequence, by inversion count."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


def _exact(x):
    """Coerce an exact scalar to int or Fraction.  Floats are refused: exactness is the contract."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    raise TypeError(f"exact coefficient required (int/Fraction), got {type(x).__name__}")


class RealForm:
    """Exterior form on R^n with exact rational coefficients.

    The coefficient of blade m is ``_terms[m] / _d``: ``_d`` is an int >= 1
    and ``_terms`` maps bitmask -> nonzero int numerator.  The pair is kept
    in lowest terms: gcd(``_d``, every numerator) = 1, and the zero form has
    ``_d`` = 1.  So ``_d`` is the lcm of the coefficients' denominators,
    each form has one representation, and equality compares ``n``, ``_d``
    and the dict.  Mixed grades are allowed; the grade-sensitive operations
    check homogeneity themselves.

    A form's terms never change after construction: only ``__init__`` and
    ``_own`` set ``_d`` and ``_terms``, each on a new object, and the float
    view (``DetKernel.of``) and the cached grades rely on this.  ``_own``
    adopts clean terms, such as a grade part's, without ``__init__``'s
    checks.  No other module reads ``_d`` or ``_terms`` or calls ``_own``;
    ``test_layering`` checks this.
    """

    __slots__ = ("n", "_d", "_terms", "_float_view", "_grades")

    def __init__(self, n, terms=None):
        """``terms`` is a dict from blade (bitmask or increasing index tuple)
        to int or Fraction; equal blades add and zero sums drop."""
        if not isinstance(n, int) or n < 1:
            raise ValueError("dimension n must be a positive integer")
        self.n = n
        clean = {}
        if terms:
            for key, coeff in terms.items():
                mask = key if isinstance(key, int) else blade_mask(key)
                if mask < 0 or mask >= (1 << n):
                    raise ValueError(f"blade {mask_indices(mask) if mask >= 0 else mask} out of range for n={n}")
                c = _exact(coeff)
                if c:
                    c = clean.get(mask, 0) + c
                    if c:
                        clean[mask] = c
                    else:
                        clean.pop(mask, None)
        # each prime power of the lcm of the reduced denominators divides one
        # of them exactly, and that term's numerator is prime to it: lowest terms
        self._d = math.lcm(*{c.denominator for c in clean.values()})
        self._terms = {m: c.numerator * (self._d // c.denominator) for m, c in clean.items()}
        self._float_view = None
        self._grades = None

    # construction helpers -------------------------------------------------

    @classmethod
    def _own(cls, n, d, terms):
        """A new form that owns ``terms`` (bitmask -> nonzero int) over the
        denominator ``d`` >= 1, both divided by gcd(d, every numerator), so
        the pair is in lowest terms; the zero form's ``d`` becomes 1."""
        g = math.gcd(d, *terms.values()) if d != 1 else 1
        if g != 1:
            d, terms = d // g, {m: v // g for m, v in terms.items()}
        f = cls(n)
        f._d, f._terms = d, terms
        return f

    @staticmethod
    def blade(n, indices, coeff=1):
        return RealForm(n, {blade_mask(indices): coeff})

    @staticmethod
    def one_form(n, i, coeff=1):
        return RealForm(n, {1 << (i - 1): coeff})

    @staticmethod
    def volume(n):
        return RealForm(n, {(1 << n) - 1: 1})

    # inspection -----------------------------------------------------------

    def terms(self):
        """Dict blade-index-tuple -> Fraction, in serialization order."""
        return {mask_indices(m): Fraction(v, self._d)
                for m, v in sorted(self._terms.items(), key=lambda kv: mask_indices(kv[0]))}

    def coefficient(self, indices):
        v = self._terms.get(blade_mask(indices) if not isinstance(indices, int) else indices, 0)
        return Fraction(v, self._d)

    def __len__(self):
        return len(self._terms)

    def is_zero(self):
        return not self._terms

    def grades(self):
        """Sorted distinct grades of the terms, computed once per form."""
        if self._grades is None:
            self._grades = tuple(sorted({m.bit_count() for m in self._terms}))
        return list(self._grades)

    def grade(self):
        """The single grade of a homogeneous form.  Zero form has grade None."""
        gs = self.grades()
        if not gs:
            return None
        if len(gs) > 1:
            raise ValueError(f"form is not homogeneous, grades {gs}")
        return gs[0]

    def grade_part(self, k):
        return RealForm._own(self.n, self._d, {m: v for m, v in self._terms.items() if m.bit_count() == k})

    # algebra --------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, RealForm) and self.n == other.n and self._d == other._d
                and self._terms == other._terms)

    def __add__(self, other):
        if not isinstance(other, RealForm) or other.n != self.n:
            return NotImplemented
        d = math.lcm(self._d, other._d)
        sa, sb = d // self._d, d // other._d
        out = {m: v * sa for m, v in self._terms.items()}
        for m, v in other._terms.items():
            s = out.get(m, 0) + v * sb
            if s:
                out[m] = s
            else:
                del out[m]
        return RealForm._own(self.n, d, out)

    def __neg__(self):
        return RealForm._own(self.n, self._d, {m: -v for m, v in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, RealForm) or other.n != self.n:
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        c = _exact(scalar)
        if not c:
            return RealForm(self.n)
        return RealForm._own(self.n, self._d * c.denominator, {m: v * c.numerator for m, v in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        if not self._terms:
            return f"RealForm(n={self.n}, 0)"
        bits = []
        for idx, c in list(self.terms().items())[:6]:
            bits.append(f"{c}*E{''.join(map(str, idx))}" if self.n < 10 else f"{c}*E{idx}")
        more = "" if len(self._terms) <= 6 else f" ... ({len(self._terms)} terms)"
        return f"RealForm(n={self.n}, {' + '.join(bits)}{more})"


def wedge(a, b):
    """Exterior product.  Exact; distributes over mixed grades.

    The products and sums run on the operands' int numerators, and the
    result sits over the product of their denominators.  The sign of a term
    pair is popcount(A & P) mod 2, with P = ``_below_parity`` of B, taken
    once per term of ``b``.  When ``b`` is homogeneous of grade g, a term of
    ``a`` of grade n - g meets only its complement blade, read from a dict,
    and one of higher grade meets none, so the square of the 294-term
    grade-8 calibration on R^16 makes 294 lookups instead of 294^2 pair
    tests.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch {a.n} != {b.n}")
    out = _wedge_into({}, a._terms.items(), [(mb, _below_parity(mb, a.n), cb) for mb, cb in b._terms.items()],
                      a.n if len(b.grades()) == 1 else None)
    return RealForm._own(a.n, a._d * b._d, out)


def _wedge_into(out, xa, xb, n=None):
    """Add the int wedge of ``xa`` [(mask, int)] and ``xb`` [(mask,
    _below_parity of mask, int)] into ``out`` (mask -> nonzero int) and
    return it.  A sum that reaches 0 leaves the dict and re-enters at the
    end, so the output keeps the storage order of a term-by-term
    accumulation (the float view sums in storage order).

    Given ``n``, every mask of ``xb`` has one grade g and lies in R^n: a term
    of ``xa`` of grade n - g takes its one possible partner, the complement,
    from a dict, and a term of higher grade is skipped.  Each term of ``xa``
    still meets its disjoint partners in ``xb``'s order, so ``out`` sees the
    same updates in the same order as a full scan."""
    cut = math.inf
    if n is not None:
        cut, full = n - xb[0][0].bit_count(), (1 << n) - 1
        by_mask = {t[0]: t for t in xb}
    for ma, ca in xa:
        partners = xb
        g = ma.bit_count()
        if g >= cut:
            if g > cut:
                continue
            hit = by_mask.get(full ^ ma)
            partners = (hit,) if hit else ()
        for mb, pb, cb in partners:
            if ma & mb:
                continue
            m = ma | mb
            s = out.get(m, 0) + (-ca * cb if (ma & pb).bit_count() & 1 else ca * cb)
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def wedge_power(a, k):
    """k-fold wedge a ^ a ^ ... ^ a (k >= 0)."""
    out = RealForm(a.n, {0: 1})
    for _ in range(k):
        out = wedge(out, a)
    return out


def hodge_star(a):
    """Hodge star for the standard metric and increasing-index orientation.

    E_I maps to sign(I, I^c) E_{I^c}.  Input may be any (mixed grade) form.
    """
    full = (1 << a.n) - 1
    out = {}
    for m, v in a._terms.items():
        comp = full ^ m
        out[comp] = -v if reorder_sign(m, comp) < 0 else v
    return RealForm._own(a.n, a._d, out)


def inner_product(a, b):
    """Standard inner product; coordinate blades are orthonormal.

    Mixed grades pair gradewise (cross-grade terms vanish automatically since
    distinct masks never match).
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch {a.n} != {b.n}")
    small, big = (a._terms, b._terms) if len(a._terms) <= len(b._terms) else (b._terms, a._terms)
    return Fraction(sum(v * big[m] for m, v in small.items() if m in big), a._d * b._d)


# float evaluation ----------------------------------------------------------


def _cofactor_batch(slabs, dets):
    """d det(A)/dA for a [T,k,k] batch with determinants `dets`: det(A) A^{-T},
    SVD fallback near singularity (adjugate via products of singular values,
    no division)."""
    k = slabs.shape[1]
    scale = np.abs(slabs).max(axis=(1, 2), initial=0.0) + 1e-300
    good = np.abs(dets) > 1e-8 * scale**k
    if good.all():
        return dets[:, None, None] * np.swapaxes(np.linalg.inv(slabs), 1, 2)
    out = np.empty_like(slabs)
    if good.any():
        inv_t = np.swapaxes(np.linalg.inv(slabs[good]), 1, 2)
        out[good] = dets[good][:, None, None] * inv_t
    bad = ~good
    U, s, Vt = np.linalg.svd(slabs[bad])
    pref = np.cumprod(
        np.concatenate([np.ones((s.shape[0], 1)), s[:, :-1]], axis=1), axis=1
    )
    suf = np.cumprod(
        np.concatenate([np.ones((s.shape[0], 1)), s[:, :0:-1]], axis=1), axis=1
    )[:, ::-1]
    orient = np.linalg.det(U @ Vt)
    out[bad] = orient[:, None, None] * (U * (pref * suf)[:, None, :]) @ Vt
    return out


# Slab entries one batched det or inverse takes at most: a stack of frames is
# cut into pieces of at most this many entries, and at least one frame.  On
# phi8_spinor (294 terms of grade 8, 18,816 slab entries a frame) 16 restarts
# of 200 steps took 0.82 s one frame at a time, 0.92 s in unbroken 8-frame
# stacks and 0.76 s in one-frame pieces of them.  Forms under 4,096 entries a
# frame, such as the six that verify's comass_never_exceed searches, keep an
# 8-frame stack whole (phi6_spinor: 0.107 s alone, 0.069 s stacked).
_SLAB_ENTRIES = 1 << 15


class DetKernel:
    """A homogeneous form's float view: the 0-based ``rows`` [T, k] and float
    ``coeffs`` [T] of its terms in storage order, read-only, built once per
    form by ``of``.  ``value`` is sum_t coeffs[t] det(rows t of M), one
    batched det; its state (M, dets) gives ``gradient`` the cofactor sums at
    one batched inverse of the slabs, gathered again from M.

    ``M`` is a stack (B, n, k) of frames, with B values and a (B, n, k)
    gradient; a single frame is a stack of one.  Each frame's numbers are
    bit for bit those of the frame in a stack of one."""

    name = "det"

    def __init__(self, form):
        self.rows = np.array([[i - 1 for i in mask_indices(m)] for m in form._terms], dtype=np.intp)
        # int / int is correctly rounded, as float(Fraction) is
        self.coeffs = np.array([v / form._d for v in form._terms.values()])
        self.rows.flags.writeable = False
        self.coeffs.flags.writeable = False
        self.n = form.n

    @classmethod
    def of(cls, form):
        """The form's kernel, built on its first float use."""
        if form._float_view is None:
            form._float_view = cls(form)
        return form._float_view

    @classmethod
    def for_frame(cls, form, vectors):
        """The form's kernel (None for the zero form) and ``vectors`` as a float
        (n, k) frame, after the input checks that every float use shares."""
        M = np.asarray(vectors)
        if np.iscomplexobj(M):
            raise ValueError("complex entries in vectors")
        M = M.astype(float, copy=False)
        if M.ndim != 2:
            raise ValueError("vectors must be a 2-d array with one column per argument")
        n, k = M.shape
        if n != form.n:
            raise ValueError(f"vectors live in R^{n}, form lives in R^{form.n}")
        if k > n:
            raise ValueError(f"more arguments ({k}) than dimensions ({n})")
        if not np.isfinite(M).all():
            raise ValueError("non-finite entries in vectors")
        g = form.grade()
        if g is None:
            return None, M
        if g != k:
            raise ValueError(f"form has grade {g}, got {k} vectors")
        return cls.of(form), M

    def _slabs(self, M):
        """The [..., T, k, k] row slabs of M, contiguous: a fancy index behind
        a stack axis would lay them out term-major."""
        return np.take(M, self.rows, axis=-2)

    def _pieces(self, M):
        """Slices of a (B, n, k) stack into pieces of at most _SLAB_ENTRIES
        slab entries; a grade-0 form's frames have none, and share a piece."""
        step = max(1, _SLAB_ENTRIES // max(1, self.rows.size * self.rows.shape[1]))
        return [slice(i, i + step) for i in range(0, len(M), step)]

    def value(self, M):
        dets = np.concatenate([np.linalg.det(self._slabs(M[p])) for p in self._pieces(M)])
        # one dot per frame on its own contiguous row of dets, as coeffs @ d
        # takes it: a single (B, T) @ (T,) product sums in another order
        return np.vecdot(dets, self.coeffs), (M, dets)

    def gradient(self, state):
        """Cofactor sums scattered onto an n x k gradient per frame: entry
        (rows[t, a], b) collects coeffs[t] * cof[t, a, b], summed in term
        order by one bincount per piece over the flat indices
        (frame * n + row) * k + col."""
        M, dets = state
        return np.concatenate([self._gradient(M[p], dets[p]) for p in self._pieces(M)])

    def _gradient(self, M, dets):
        B, (T, k) = len(M), self.rows.shape
        cof = _cofactor_batch(self._slabs(M).reshape(B * T, k, k), dets.reshape(B * T))
        flat = (self.rows[:, :, None] * k + np.arange(k)).ravel()
        flat = (np.arange(B)[:, None] * (self.n * k) + flat).ravel()
        weights = (np.tile(self.coeffs, B)[:, None, None] * cof).ravel()
        return np.bincount(flat, weights=weights, minlength=B * self.n * k).reshape(M.shape)


def evaluate(a, vectors):
    """Evaluate a homogeneous k-form on k column vectors (float).

    ``vectors`` is an (n, k) array; columns are the arguments.  The value is
    sum_I c_I det(rows I of vectors) over the form's ``DetKernel`` float
    view.  ``DetKernel.for_frame`` checks the input; the zero form gives 0.0.

    Two paths, by the frame's live (nonzero) rows: more than k live, the
    kernel's batched dets; at most k live, the one term whose row mask equals
    them, read from the form by that mask (0.0 if absent).  Either way the
    value is ``float(coeffs @ det(M[rows]))`` bit for bit: LU keeps a zero row
    exactly zero, so every other term's det is 0, and the one-term path adds
    0.0 as the sum does, so a -0.0 product reads +0.0.
    """
    kernel, M = DetKernel.for_frame(a, vectors)
    if kernel is None:
        return 0.0
    live = M.any(axis=1)
    if np.count_nonzero(live) > M.shape[1]:
        return float(kernel.value(M[None])[0][0])
    v = a._terms.get(int.from_bytes(np.packbits(live, bitorder="little"), "little"))
    return 0.0 if v is None else v / a._d * float(np.linalg.det(M[live])) + 0.0


def alternation(T, k, n):
    """Full alternation of a k-argument callback into an exact k-form.

    ``T`` takes k basis-vector arguments (each a length-n tuple with a single
    1 entry) and returns an exact scalar.  The result has coefficients
    (1/k!) sum_sigma sign(sigma) T(e_{I sigma}) on each increasing I, which
    is the classical alternation operator restricted to basis tuples.  Int
    values are summed as ints, other values pass ``_exact`` (so floats are
    refused), and the blade sums become one form, scaled by 1/k! once.
    """
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    perms = [(perm_sign(p), p) for p in itertools.permutations(range(k))]
    fact = math.factorial(k)
    terms = {}
    for combo in itertools.combinations(range(n), k):
        total = 0
        vecs = [basis[i] for i in combo]
        for sgn, p in perms:
            val = T(*[vecs[j] for j in p])
            if type(val) is not int:
                val = _exact(val)
            total += val if sgn > 0 else -val
        terms[blade_mask(tuple(i + 1 for i in combo))] = total
    return RealForm(n, terms) * Fraction(1, fact)


def pullback(a, L):
    """Pullback along the linear map with matrix L: (L*a)(v...) = a(Lv...).

    Exact: entries of L are exact scalars (int or Fraction; floats are
    refused).  Each coordinate 1-form E_i pulls back to the 1-form with row i
    of L as coefficients, and each blade to the wedge of its pulled-back
    1-forms.  L is put over the lcm of its denominators once; each blade's
    int numerator is expanded factor by factor by ``wedge``'s inner loop and
    added into one int accumulator over the form's denominator times L's to
    the top grade, in a ``wedge``-by-``wedge`` fold's storage order.
    """
    Lm = np.asarray(L, dtype=object)
    if Lm.shape != (a.n, a.n):
        raise ValueError(f"matrix must be {a.n}x{a.n}, got {Lm.shape}")
    Lq = [[_exact(x) for x in row] for row in Lm]
    dl = math.lcm(*[x.denominator for row in Lq for x in row])
    rows = [[(1 << j, _below_parity(1 << j, a.n), x.numerator * (dl // x.denominator))
             for j, x in enumerate(row) if x] for row in Lq]
    top = max(a.grades(), default=0)
    out = {}
    for m, ca in a._terms.items():
        # a grade-g blade carries d * dl^g; scale it to the common d * dl^top
        blade = {0: ca * dl ** (top - m.bit_count())}
        for i in mask_indices(m):
            blade = _wedge_into({}, blade.items(), rows[i - 1])
        _wedge_into(out, blade.items(), [(0, 0, 1)])  # out += blade, as a wedge with 1
    return RealForm._own(a.n, a._d * dl**top, out)


# complex-valued forms --------------------------------------------------------


class ComplexForm:
    """Complex-valued form: a pair of real forms (re + i im)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        if im is None:
            im = RealForm(re.n)
        if re.n != im.n:
            raise ValueError("real and imaginary parts must share a dimension")
        self.re = re
        self.im = im

    def __add__(self, other):
        return ComplexForm(self.re + other.re, self.im + other.im)

    def __mul__(self, scalar):
        return ComplexForm(self.re * scalar, self.im * scalar)

    def __repr__(self):
        return f"ComplexForm(re={self.re!r}, im={self.im!r})"


def cwedge(a, b):
    """Wedge of complex forms, complex-bilinear; the left operand may be a
    RealForm."""
    if isinstance(a, RealForm):
        a = ComplexForm(a)
    return ComplexForm(
        wedge(a.re, b.re) - wedge(a.im, b.im),
        wedge(a.re, b.im) + wedge(a.im, b.re),
    )


# serialization ---------------------------------------------------------------


def form_to_dict(a):
    """JSON-ready dict, terms sorted lexicographically by index tuple."""
    terms = [{"blade": list(b), "num": str(c.numerator), "den": str(c.denominator)} for b, c in a.terms().items()]
    return {"n": a.n, "terms": terms}


def form_from_dict(d):
    """Inverse of form_to_dict with full schema validation; 'n' is at most MAX_N."""
    if not isinstance(d, dict) or set(d) != {"n", "terms"}:
        raise SchemaError("top level must be an object with exactly the keys 'n' and 'terms'")
    n = d["n"]
    if type(n) is not int or not 1 <= n <= MAX_N:
        raise SchemaError(f"'n' must be an integer in 1..{MAX_N}")
    if not isinstance(d["terms"], list):
        raise SchemaError("'terms' must be a list")
    terms = {}
    for t in d["terms"]:
        if not isinstance(t, dict) or set(t) != {"blade", "num", "den"}:
            raise SchemaError("each term needs exactly the keys 'blade', 'num', 'den'")
        blade = t["blade"]
        if not isinstance(blade, list) or not all(type(i) is int for i in blade):
            raise SchemaError("'blade' must be a list of integers")
        if any(i < 1 or i > n for i in blade):
            raise SchemaError(f"blade index out of range 1..{n}: {blade}")
        if any(b <= a for a, b in zip(blade, blade[1:])):
            raise SchemaError(f"blade indices must be strictly increasing: {blade}")
        mask = blade_mask(blade)
        if mask in terms:
            raise SchemaError(f"duplicate blade {blade}")
        num, den = t["num"], t["den"]
        if not (isinstance(num, str) and re.fullmatch("-?[0-9]+", num)
                and isinstance(den, str) and re.fullmatch("[0-9]+", den)):
            raise SchemaError("'num' and 'den' must be ASCII decimal integer strings, 'den' unsigned")
        try:
            num, den = int(num), int(den)
        except ValueError as e:  # more digits than the interpreter converts
            raise SchemaError(f"'num' or 'den' too long: {e}") from None
        if den == 0:
            raise SchemaError("zero denominator")
        if num == 0:
            raise SchemaError(f"zero coefficient stored for blade {blade}")
        terms[mask] = Fraction(num, den)
    return RealForm(n, terms)


def dump_form(a):
    """Byte-stable JSON text for a form."""
    return json.dumps(form_to_dict(a), indent=2, sort_keys=True) + "\n"


def load_form(text):
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as e:  # bad syntax, over-long numbers, deep nesting
        raise SchemaError(f"invalid JSON: {e}") from None
    return form_from_dict(d)
