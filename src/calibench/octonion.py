"""Octonion arithmetic over exact rationals.

An octonion keeps the pair it was built from: the lcm ``d`` of its
coordinates' denominators and the eight int numerators over ``d``, computed
once, when the octonion is made.  A product sums the 64 table products of
the two factors' numerators in Python ints and keeps the result over the
product of their denominators, unreduced, as sums and differences do;
``inner`` and ``norm_sq`` divide once, and ``==`` cross-multiplies.  None
of these reads ``co``: the coordinates become Fractions only when ``co`` is
read, and then once per octonion.  Integer octonions (the basis and every
chain built from it) have ``d == 1`` and int coordinates throughout.

Basis order: 1, i, j, k, e, ie, je, ke (indices 0..7).  The table is built
from the quaternion table plus the doubling rules

    a (b e) = (b a) e        (a e) b = (a conj(b)) e
    (a e) (b e) = -conj(b) a

for quaternions a, b.  These extend the four displayed unit rules bilinearly
and are cross-checked, entry by entry, against an independent recursive
Cayley-Dickson oracle (R -> C -> H -> O, ``oracle_table``); the
``octonion_table`` check of ``calibench verify`` makes that comparison.

The right-multiplication chain Q and the alternating conjugation chain P live
here too; the calibration catalog consumes them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

__all__ = [
    "Octonion",
    "MULT_TABLE",
    "oracle_table",
    "chain_product",
    "conjugation_chain",
]

BASIS_NAMES = ("1", "i", "j", "k", "e", "ie", "je", "ke")

# quaternion units 1,i,j,k: _QUAT[a][b] = (sign, index) for q_a q_b
_QUAT = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)


def _quat_conj(sign, idx):
    return (sign, idx) if idx == 0 else (-sign, idx)


def _build_table():
    """8x8 table of (sign, index): e_a e_b = sign e_index."""
    tab = [[None] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            qa, pa = a & 3, a >> 2
            qb, pb = b & 3, b >> 2
            if pa == 0 and pb == 0:
                s, q = _QUAT[qa][qb]
                tab[a][b] = (s, q)
            elif pa == 0 and pb == 1:
                # a (b e) = (b a) e
                s, q = _QUAT[qb][qa]
                tab[a][b] = (s, q | 4)
            elif pa == 1 and pb == 0:
                # (a e) b = (a conj(b)) e
                sb, qb2 = _quat_conj(1, qb)
                s, q = _QUAT[qa][qb2]
                tab[a][b] = (s * sb, q | 4)
            else:
                # (a e) (b e) = -conj(b) a
                sb, qb2 = _quat_conj(1, qb)
                s, q = _QUAT[qb2][qa]
                tab[a][b] = (-s * sb, q)
    return tuple(tuple(row) for row in tab)


MULT_TABLE = _build_table()


# independent oracle: recursive Cayley-Dickson doubling ----------------------


def _cd_mul(x, y):
    """(a,b)(c,d) = (ac - conj(d) b, d a + b conj(c)) down to scalars."""
    if not isinstance(x, tuple):
        return x * y
    a, b = x
    c, d = y
    return (
        _cd_sub(_cd_mul(a, c), _cd_mul(_cd_conj(d), b)),
        _cd_add(_cd_mul(d, a), _cd_mul(b, _cd_conj(c))),
    )


def _cd_conj(x):
    if not isinstance(x, tuple):
        return x
    return (_cd_conj(x[0]), _cd_neg(x[1]))


def _cd_neg(x):
    if not isinstance(x, tuple):
        return -x
    return (_cd_neg(x[0]), _cd_neg(x[1]))


def _cd_add(x, y):
    if not isinstance(x, tuple):
        return x + y
    return (_cd_add(x[0], y[0]), _cd_add(x[1], y[1]))


def _cd_sub(x, y):
    return _cd_add(x, _cd_neg(y))


def _cd_from_coords(c):
    """Coords (x0..x7) to the nested pair tree (((x0,x1),(x2,x3)),((x4,x5),(x6,x7)))."""
    if len(c) == 1:
        return c[0]
    h = len(c) // 2
    return (_cd_from_coords(c[:h]), _cd_from_coords(c[h:]))


def _cd_to_coords(t):
    if not isinstance(t, tuple):
        return [t]
    return _cd_to_coords(t[0]) + _cd_to_coords(t[1])


def oracle_table():
    """The 8x8 (sign, index) table by Cayley-Dickson doubling of the int unit
    coordinates, independent of ``MULT_TABLE``'s construction."""
    tab = []
    for a in range(8):
        row = []
        for b in range(8):
            ca = [int(a == m) for m in range(8)]
            cb = [int(b == m) for m in range(8)]
            prod = _cd_to_coords(_cd_mul(_cd_from_coords(ca), _cd_from_coords(cb)))
            nz = [(m, v) for m, v in enumerate(prod) if v]
            assert len(nz) == 1 and abs(nz[0][1]) == 1
            row.append((nz[0][1], nz[0][0]))
        tab.append(tuple(row))
    return tuple(tab)


class Octonion:
    """Octonion with int or Fraction coordinates in the basis 1,i,j,k,e,ie,je,ke.

    The octonion is held as its denominator pair (see the module docstring);
    ``co`` is built from the pair on first read, except for an octonion made
    from coordinates, which keeps those as given.  An int and its Fraction
    twin compare and hash equal, so an octonion equals its Fraction twin.
    """

    __slots__ = ("_d", "_x", "_co")

    def __init__(self, coords):
        co = tuple(map(_coord, coords))
        if len(co) != 8:
            raise ValueError("need 8 coordinates")
        self._co = co
        dens = [c.denominator for c in co]
        d = lcm(*dens)
        self._d = d
        self._x = tuple([c.numerator * (d // e) for c, e in zip(co, dens)])

    @classmethod
    def _pair(cls, d, x):
        """A new octonion with numerators ``x`` (8 ints) over ``d`` >= 1."""
        o = object.__new__(cls)
        o._d, o._x, o._co = d, x, (x if d == 1 else None)
        return o

    @staticmethod
    def basis(i):
        if i not in range(8):
            raise ValueError(f"basis index must be in 0..7, got {i!r}")
        return Octonion._pair(1, _UNITS[i])

    @property
    def co(self):
        """The 8 coordinates: ints when the denominator is 1, else Fractions."""
        if self._co is None:
            d = self._d
            self._co = tuple(Fraction(v, d) for v in self._x)
        return self._co

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return False
        da, db = self._d, other._d
        if da == db:
            return self._x == other._x
        return all(a * db == b * da for a, b in zip(self._x, other._x))

    def __hash__(self):
        return hash(self.co)

    def __add__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        da, db = self._d, other._d
        return Octonion._pair(da * db, tuple(a * db + b * da for a, b in zip(self._x, other._x)))

    def __sub__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return Octonion._pair(self._d, tuple(-a for a in self._x))

    def scale(self, s):
        s = _coord(s)
        return Octonion._pair(self._d * s.denominator, tuple(s.numerator * a for a in self._x))

    def __mul__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        # sparse double loop; basis products are single table lookups
        nzb = [(b, cb) for b, cb in enumerate(other._x) if cb]
        out = [0] * 8
        for a, ca in enumerate(self._x):
            if ca:
                row = MULT_TABLE[a]
                for b, cb in nzb:
                    s, c = row[b]
                    out[c] += ca * cb if s > 0 else -ca * cb
        return Octonion._pair(self._d * other._d, tuple(out))

    def conj(self):
        x = self._x
        return Octonion._pair(self._d, (x[0],) + tuple(-c for c in x[1:]))

    def inner(self, other):
        if not isinstance(other, Octonion):
            raise TypeError(f"inner product needs an Octonion, not {type(other).__name__}")
        v = sum(map(mul, self._x, other._x))
        d = self._d * other._d
        return v if d == 1 else Fraction(v, d)

    def norm_sq(self):
        return self.inner(self)

    def real(self):
        return self._x[0] if self._d == 1 else Fraction(self._x[0], self._d)

    def __repr__(self):
        parts = [f"{c}*{BASIS_NAMES[m]}" for m, c in enumerate(self.co) if c]
        return "Octonion(" + (" + ".join(parts) if parts else "0") + ")"


_UNITS = tuple(tuple(int(m == i) for m in range(8)) for i in range(8))


def _coord(c):
    """An exact coordinate: int and Fraction as they are, other exact numbers
    as a Fraction.  Floats are refused."""
    if type(c) is int or type(c) is Fraction:
        return c
    if isinstance(c, float):
        raise TypeError("octonion coordinates must be exact (int/Fraction), not float")
    return Fraction(c)


def chain_product(xs):
    """Right-multiplication fold: Q(x_1..x_n) = Q(x_2..x_n) x_1, Q() = 1.

    Unrolls to ((x_n x_{n-1}) ... ) x_1.
    """
    acc = Octonion.basis(0)
    for x in reversed(list(xs)):
        acc = acc * x
    return acc


def conjugation_chain(xs):
    """Alternating chain P: P() = 1, P(x_1..x_{2m}) = (P(x_3..x_{2m}) conj(x_2)) x_1.

    Needs an even argument count; raises otherwise.
    """
    xs = list(xs)
    if len(xs) % 2:
        raise ValueError("conjugation chain needs an even number of arguments")
    acc = Octonion.basis(0)
    for m in range(len(xs) - 2, -1, -2):
        acc = (acc * xs[m + 1].conj()) * xs[m]
    return acc
