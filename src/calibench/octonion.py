"""Octonion arithmetic over exact rationals.

Basis order: 1, i, j, k, e, ie, je, ke (indices 0..7).  The table is built
from the quaternion table plus the doubling rules

    a (b e) = (b a) e        (a e) b = (a conj(b)) e
    (a e) (b e) = -conj(b) a

for quaternions a, b.  These extend the four displayed unit rules bilinearly
and are cross-checked, entry by entry, against an independent recursive
Cayley-Dickson oracle (R -> C -> H -> O); the ``octonion_table`` check of
``calibench verify`` makes that comparison.

The right-multiplication chain Q and the alternating conjugation chain P live
here too; the calibration catalog consumes them.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "Octonion",
    "MULT_TABLE",
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


def _oracle_table():
    tab = []
    for a in range(8):
        row = []
        for b in range(8):
            ca = [Fraction(int(a == m)) for m in range(8)]
            cb = [Fraction(int(b == m)) for m in range(8)]
            prod = _cd_to_coords(_cd_mul(_cd_from_coords(ca), _cd_from_coords(cb)))
            nz = [(m, v) for m, v in enumerate(prod) if v]
            assert len(nz) == 1 and abs(nz[0][1]) == 1
            row.append((int(nz[0][1]), nz[0][0]))
        tab.append(tuple(row))
    return tuple(tab)


class Octonion:
    """Octonion with exact Fraction coordinates in the basis 1,i,j,k,e,ie,je,ke."""

    __slots__ = ("co",)

    def __init__(self, coords):
        co = tuple(Fraction(c) if not isinstance(c, float) else _reject(c) for c in coords)
        if len(co) != 8:
            raise ValueError("need 8 coordinates")
        self.co = co

    @staticmethod
    def basis(i):
        return Octonion(tuple(Fraction(int(m == i)) for m in range(8)))

    def __eq__(self, other):
        return isinstance(other, Octonion) and self.co == other.co

    def __hash__(self):
        return hash(self.co)

    def __add__(self, other):
        return Octonion(tuple(a + b for a, b in zip(self.co, other.co)))

    def __sub__(self, other):
        return Octonion(tuple(a - b for a, b in zip(self.co, other.co)))

    def __neg__(self):
        return Octonion(tuple(-a for a in self.co))

    def scale(self, s):
        s = Fraction(s)
        return Octonion(tuple(s * a for a in self.co))

    def __mul__(self, other):
        # sparse double loop; basis products are single table lookups
        out = [Fraction(0)] * 8
        for a, ca in enumerate(self.co):
            if not ca:
                continue
            for b, cb in enumerate(other.co):
                if not cb:
                    continue
                s, c = MULT_TABLE[a][b]
                out[c] += ca * cb if s > 0 else -ca * cb
        return Octonion(tuple(out))

    def conj(self):
        return Octonion((self.co[0],) + tuple(-c for c in self.co[1:]))

    def inner(self, other):
        return sum(a * b for a, b in zip(self.co, other.co))

    def norm_sq(self):
        return self.inner(self)

    def real(self):
        return self.co[0]

    def __repr__(self):
        parts = [f"{c}*{BASIS_NAMES[m]}" for m, c in enumerate(self.co) if c]
        return "Octonion(" + (" + ".join(parts) if parts else "0") + ")"


def _reject(c):
    raise TypeError("octonion coordinates must be exact (int/Fraction), not float")


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
