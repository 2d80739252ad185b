"""Exact exterior algebra on R^n with rational coefficients.

A form is a finite sum of coordinate blades ``E_I = E_{i1} ^ ... ^ E_{ik}``
with strictly increasing indices ``1 <= i1 < ... < ik <= n`` and nonzero
``fractions.Fraction`` coefficients.  Blades are stored as integer bitmasks
(bit ``i-1`` set means index ``i`` is present), the usual trick in geometric
algebra codes.  Every coordinate plane is oriented by increasing index order;
``vol = E_{1..n}``.

Exact operations (wedge, Hodge star, inner product, alternation, linear
pullback) never touch floats.  ``evaluate`` is the one float entry point;
the comass search kernel reuses its term arrays and determinant sum.  Those
arrays are the form's float view: built from the Fractions once per form, on
its first float use, and kept on the form.
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
    "alternation",
    "pullback",
    "form_to_dict",
    "form_from_dict",
    "dump_form",
    "load_form",
    "SchemaError",
]


class SchemaError(ValueError):
    """Malformed serialized form (bad indices, duplicate blades, zero terms)."""


def blade_mask(indices):
    """Bitmask of a strictly increasing index tuple (1-based indices)."""
    mask = 0
    prev = 0
    for i in indices:
        if i <= prev:
            raise ValueError(f"blade indices must be strictly increasing, got {tuple(indices)}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def mask_indices(mask):
    """Increasing 1-based index tuple of a bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def reorder_sign(mask_a, mask_b):
    """Sign of sorting the concatenation (A..., B...) into increasing order.

    Counts transpositions: pairs (i in A, j in B) with i > j.  The masks must
    be disjoint for a wedge, but the count itself never needs that.
    """
    count = 0
    a = mask_a >> 1
    while a:
        count += (a & mask_b).bit_count()
        a >>= 1
    return -1 if count & 1 else 1


def perm_sign(perm):
    """Sign of a permutation given as a sequence, by inversion count."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


def _exact(x):
    """Coerce an exact scalar.  Floats are refused: exactness is the contract."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact coefficient required (int/Fraction/str), got {type(x).__name__}")


class RealForm:
    """Exterior form on R^n with exact rational coefficients.

    Terms map bitmask -> nonzero Fraction.  Mixed grades are allowed; the
    grade-sensitive operations check homogeneity themselves.

    A form's terms never change after construction: only ``__init__`` and
    ``_own`` set ``_terms``, and each does so on a new object.  The float view
    (see ``_term_arrays``) relies on this.
    """

    __slots__ = ("n", "_terms", "_float_view")

    def __init__(self, n, terms=None):
        if not isinstance(n, int) or n < 1:
            raise ValueError("dimension n must be a positive integer")
        self.n = n
        clean = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for key, coeff in items:
                mask = key if isinstance(key, int) else blade_mask(key)
                if mask < 0 or mask >= (1 << n):
                    raise ValueError(f"blade {mask_indices(mask) if mask >= 0 else mask} out of range for n={n}")
                c = _exact(coeff)
                if c:
                    c = clean.get(mask, Fraction(0)) + c
                    if c:
                        clean[mask] = c
                    else:
                        clean.pop(mask, None)
        self._terms = clean
        self._float_view = None

    # construction helpers -------------------------------------------------

    @classmethod
    def _own(cls, n, terms):
        """A new form that owns ``terms`` (bitmask -> nonzero Fraction) as is."""
        f = cls(n)
        f._terms = terms
        return f

    @staticmethod
    def zero(n):
        return RealForm(n)

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
        return {mask_indices(m): c for m, c in sorted(self._terms.items(), key=lambda kv: mask_indices(kv[0]))}

    def coefficient(self, indices):
        return self._terms.get(blade_mask(indices) if not isinstance(indices, int) else indices, Fraction(0))

    def __len__(self):
        return len(self._terms)

    def is_zero(self):
        return not self._terms

    def grades(self):
        return sorted({m.bit_count() for m in self._terms})

    def grade(self):
        """The single grade of a homogeneous form.  Zero form has grade None."""
        gs = self.grades()
        if not gs:
            return None
        if len(gs) > 1:
            raise ValueError(f"form is not homogeneous, grades {gs}")
        return gs[0]

    def grade_part(self, k):
        return RealForm(self.n, {m: c for m, c in self._terms.items() if m.bit_count() == k})

    # algebra --------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, RealForm) and self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def __add__(self, other):
        if not isinstance(other, RealForm) or other.n != self.n:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return RealForm._own(self.n, out)

    def __neg__(self):
        return RealForm._own(self.n, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, RealForm) or other.n != self.n:
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        c = _exact(scalar)
        if not c:
            return RealForm(self.n)
        return RealForm._own(self.n, {m: coeff * c for m, coeff in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        if not self._terms:
            return f"RealForm(n={self.n}, 0)"
        bits = []
        for m, c in sorted(self._terms.items(), key=lambda kv: mask_indices(kv[0]))[:6]:
            bits.append(f"{c}*E{''.join(map(str, mask_indices(m)))}" if self.n < 10 else f"{c}*E{mask_indices(m)}")
        more = "" if len(self._terms) <= 6 else f" ... ({len(self._terms)} terms)"
        return f"RealForm(n={self.n}, {' + '.join(bits)}{more})"


def wedge(a, b):
    """Exterior product.  Exact; distributes over mixed grades."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch {a.n} != {b.n}")
    out = {}
    for ma, ca in a._terms.items():
        for mb, cb in b._terms.items():
            if ma & mb:
                continue
            c = ca * cb
            if reorder_sign(ma, mb) < 0:
                c = -c
            m = ma | mb
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return RealForm._own(a.n, out)


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
    for m, c in a._terms.items():
        comp = full ^ m
        if reorder_sign(m, comp) < 0:
            c = -c
        out[comp] = c
    return RealForm._own(a.n, out)


def inner_product(a, b):
    """Standard inner product; coordinate blades are orthonormal.

    Mixed grades pair gradewise (cross-grade terms vanish automatically since
    distinct masks never match).
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch {a.n} != {b.n}")
    small, big = (a._terms, b._terms) if len(a._terms) <= len(b._terms) else (b._terms, a._terms)
    total = Fraction(0)
    for m, c in small.items():
        d = big.get(m)
        if d is not None:
            total += c * d
    return total


# float evaluation ----------------------------------------------------------


def _term_arrays(a):
    """0-based row indices and float coefficients of a's terms, in storage
    order: the float view shared by ``evaluate`` and the search kernel.

    Built on first use and kept on the form, read-only, since its terms
    never change.
    """
    if a._float_view is None:
        rows = np.array([[i - 1 for i in mask_indices(m)] for m in a._terms], dtype=np.intp)
        coeffs = np.array([float(c) for c in a._terms.values()])
        rows.flags.writeable = False
        coeffs.flags.writeable = False
        a._float_view = rows, coeffs
    return a._float_view


def _det_sum(rows, coeffs, M):
    """sum_I c_I det(rows I of M) over the term arrays of one form."""
    return float(coeffs @ np.linalg.det(M[rows, :]))


def evaluate(a, vectors):
    """Evaluate a homogeneous k-form on k column vectors (float).

    ``vectors`` is an (n, k) array; columns are the arguments.  The value is
    sum_I c_I det(rows I of vectors), by batched LU (numpy det), over the
    form's float view, which is built once per form.  Raises on grade/shape
    mismatch and on complex or non-finite input.
    """
    M = np.asarray(vectors)
    if np.iscomplexobj(M):
        raise ValueError("complex entries in vectors")
    M = M.astype(float, copy=False)
    if M.ndim != 2:
        raise ValueError("vectors must be a 2-d array with one column per argument")
    n, k = M.shape
    if n != a.n:
        raise ValueError(f"vectors live in R^{n}, form lives in R^{a.n}")
    if k > n:
        raise ValueError(f"more arguments ({k}) than dimensions ({n})")
    if not np.isfinite(M).all():
        raise ValueError("non-finite entries in vectors")
    g = a.grade()
    if g is None:
        return 0.0
    if g != k:
        raise ValueError(f"form has grade {g}, got {k} vectors")
    if k == 0:
        return float(a.coefficient(()))
    rows, coeffs = _term_arrays(a)
    return _det_sum(rows, coeffs, M)


def alternation(T, k, n):
    """Full alternation of a k-argument callback into an exact k-form.

    ``T`` takes k basis-vector arguments (each a length-n tuple with a single
    1 entry) and returns an exact scalar.  The result has coefficients
    (1/k!) sum_sigma sign(sigma) T(e_{I sigma}) on each increasing I, which
    is the classical alternation operator restricted to basis tuples.
    """
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    perms = [(perm_sign(p), p) for p in itertools.permutations(range(k))]
    fact = math.factorial(k)
    terms = {}
    for combo in itertools.combinations(range(n), k):
        total = Fraction(0)
        vecs = [basis[i] for i in combo]
        for sgn, p in perms:
            val = _exact(T(*[vecs[j] for j in p]))
            total += val if sgn > 0 else -val
        if total:
            terms[blade_mask(tuple(i + 1 for i in combo))] = total / fact
    return RealForm._own(n, terms)


def pullback(a, L):
    """Pullback along the linear map with matrix L: (L*a)(v...) = a(Lv...).

    Exact: entries of L are converted to Fractions (floats convert exactly,
    being binary rationals).  Each coordinate 1-form E_i pulls back to the
    1-form with row i of L as coefficients, and each blade to the wedge of
    its pulled-back 1-forms.
    """
    Lm = np.asarray(L, dtype=object)
    if Lm.shape != (a.n, a.n):
        raise ValueError(f"matrix must be {a.n}x{a.n}, got {Lm.shape}")
    rows = [
        RealForm(a.n, {1 << j: Fraction(x) if isinstance(x, (float, np.floating)) else x
                       for j, x in enumerate(Lm[i])})
        for i in range(a.n)
    ]
    out = RealForm(a.n)
    for m, coeff in a._terms.items():
        blade = RealForm(a.n, {0: coeff})
        for i in mask_indices(m):
            blade = wedge(blade, rows[i - 1])
        out = out + blade
    return out


# complex-valued forms --------------------------------------------------------


class ComplexForm:
    """Complex-valued form: a pair of real forms (re + i im)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        if im is None:
            im = RealForm.zero(re.n)
        if re.n != im.n:
            raise ValueError("real and imaginary parts must share a dimension")
        self.re = re
        self.im = im

    def __add__(self, other):
        return ComplexForm(self.re + other.re, self.im + other.im)

    def __mul__(self, scalar):
        return ComplexForm(self.re * scalar, self.im * scalar)

    def __eq__(self, other):
        return isinstance(other, ComplexForm) and self.re == other.re and self.im == other.im

    def __repr__(self):
        return f"ComplexForm(re={self.re!r}, im={self.im!r})"


def cwedge(a, b):
    """Wedge of complex forms, complex-bilinear."""
    if isinstance(a, RealForm):
        a = ComplexForm(a)
    if isinstance(b, RealForm):
        b = ComplexForm(b)
    return ComplexForm(
        wedge(a.re, b.re) - wedge(a.im, b.im),
        wedge(a.re, b.im) + wedge(a.im, b.re),
    )


# serialization ---------------------------------------------------------------


def form_to_dict(a):
    """JSON-ready dict, terms sorted lexicographically by index tuple."""
    terms = []
    for m, c in sorted(a._terms.items(), key=lambda kv: mask_indices(kv[0])):
        terms.append({"blade": list(mask_indices(m)), "num": str(c.numerator), "den": str(c.denominator)})
    return {"n": a.n, "terms": terms}


def form_from_dict(d):
    """Inverse of form_to_dict with full schema validation."""
    if not isinstance(d, dict) or set(d) != {"n", "terms"}:
        raise SchemaError("top level must be an object with exactly the keys 'n' and 'terms'")
    n = d["n"]
    if type(n) is not int or n < 1:
        raise SchemaError("'n' must be a positive integer")
    if not isinstance(d["terms"], list):
        raise SchemaError("'terms' must be a list")
    seen = set()
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
        key = tuple(blade)
        if key in seen:
            raise SchemaError(f"duplicate blade {blade}")
        seen.add(key)
        num, den = t["num"], t["den"]
        if not (isinstance(num, str) and re.fullmatch("-?[0-9]+", num)
                and isinstance(den, str) and re.fullmatch("[0-9]+", den)):
            raise SchemaError("'num' and 'den' must be ASCII decimal integer strings, 'den' unsigned")
        if int(den) == 0:
            raise SchemaError("zero denominator")
        c = Fraction(int(num), int(den))
        if c == 0:
            raise SchemaError(f"zero coefficient stored for blade {blade}")
        terms[blade_mask(key)] = c
    return RealForm._own(n, terms)


def dump_form(a):
    """Byte-stable JSON text for a form."""
    return json.dumps(form_to_dict(a), indent=2, sort_keys=True) + "\n"


def load_form(text):
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e}") from None
    return form_from_dict(d)
