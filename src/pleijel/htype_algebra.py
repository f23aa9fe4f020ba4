"""Explicit H-type structures: the defining matrices and the group law.

An H-type structure on R^(2n) x R^m is a family U^(1..m) of 2n x 2n
matrices that are skew-symmetric, orthogonal, and pairwise anticommuting.
The construction here realises a maximal family of signed permutations,
(U x)_i = signs[i] * x[perm[i]], so products, Kronecker products and all
three axioms are O(d) integer operations:

* dimension 2:  the rotation J = [[0, -1], [1, 0]];
* dimension 4:  left multiplication by i, j, k on the quaternions;
* dimension 8:  doubling -- diag-extend the quaternion lefts, add the
  symplectic block, and extend by P tensor (quaternion *rights*), which
  commute with the lefts by associativity;
* dimension 16: doubling of the 8-family (no complement needed);
* dimension 2^v, v >= 5: the product omega of the eight 16-dimensional
  matrices is symmetric, orthogonal, and anticommutes with each factor,
  so {B tensor I} + {omega tensor A} glues the 16-family to the family
  four steps down (the period-8 step rho(16 N) = 8 + rho(N));
* general 2n = 2^v * odd: tensor each family member with the odd-size
  identity.

The family size matches the Radon-Hurwitz maximum rho(2n) - 1 at every
even dimension, so construction succeeds exactly on admissible pairs.
For m = 1 the canonical symplectic block [[0, -I_n], [I_n, 0]] is
returned directly.  ``SignedPermutation.rows`` gives a member's dense
integer matrix.

The group law on R^(2n) x R^m is

    (x, t) o (xi, tau) = (x + xi, ..., t_j + tau_j + <U^(j) x, xi>/2, ...)

with one central coordinate per matrix; it is evaluated in exact rational
arithmetic whenever the inputs are rational.  The sublaplacian, applied to
polynomial test functions, and the JSON reader are oracles
(``oracles.sublaplacian``, ``oracles.from_json_dict``): ``htype`` builds,
verifies and writes, and loads ``fractions`` nowhere on that path.
"""

import operator
from collections import namedtuple
from functools import lru_cache, reduce

from .admissibility import admissible
from .core import InadmissiblePair, Refused, as_pair

__all__ = [
    "SignedPermutation",
    "HTypeStructure",
    "GroupElement",
    "construct",
    "verify_structure",
    "group_mul",
    "to_json_dict",
    "write_json",
]


class SignedPermutation(namedtuple("SignedPermutation", "perm signs")):
    """The matrix with the single entry signs[i] at (i, perm[i]) in row i."""

    __slots__ = ()

    @classmethod
    def identity(cls, d: int) -> "SignedPermutation":
        return cls(tuple(range(d)), (1,) * d)

    def __matmul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return SignedPermutation(tuple(other.perm[p] for p in self.perm),
                                 tuple(s * other.signs[p] for p, s in zip(self.perm, self.signs)))

    def kron(self, other: "SignedPermutation") -> "SignedPermutation":
        b = len(other.perm)
        return SignedPermutation(tuple(p * b + q for p in self.perm for q in other.perm),
                                 tuple(s * t for s in self.signs for t in other.signs))

    def is_skew(self) -> bool:
        """U^T = -U: perm is an involution whose 2-cycles carry opposite signs."""
        p, s = self.perm, self.signs
        return all(p[p[i]] == i and s[p[i]] == -s[i] for i in range(len(p)))

    def anticommutes(self, other: "SignedPermutation") -> bool:
        """U V = -V U: the two perms commute and the products' signs are opposite."""
        p, s, q, t = self.perm, self.signs, other.perm, other.signs
        return all(q[p[i]] == p[q[i]] and s[i] * t[p[i]] == -t[i] * s[q[i]]
                   for i in range(len(p)))

    def rows(self) -> list[list[int]]:
        return [[s if k == p else 0 for k in range(len(self.perm))]
                for p, s in zip(self.perm, self.signs)]


_J = SignedPermutation((1, 0), (-1, 1))  # [[0, -1], [1, 0]]
_P = SignedPermutation((1, 0), (1, 1))  # [[0, 1], [1, 0]]
_Q = SignedPermutation((0, 1), (1, -1))  # [[1, 0], [0, -1]]

# quaternion basis (1, i, j, k): _QMUL[a][b] = (sign, c) with e_a e_b = sign e_c
_QMUL = {
    0: {0: (1, 0), 1: (1, 1), 2: (1, 2), 3: (1, 3)},
    1: {0: (1, 1), 1: (-1, 0), 2: (1, 3), 3: (-1, 2)},
    2: {0: (1, 2), 1: (-1, 3), 2: (-1, 0), 3: (1, 1)},
    3: {0: (1, 3), 1: (1, 2), 2: (-1, 1), 3: (-1, 0)},
}


def _quaternion(a: int, side: str) -> SignedPermutation:
    """Left (x -> e_a x) or right (x -> x e_a) multiplication: e_b lands on sign e_c."""
    perm, signs = [0] * 4, [0] * 4
    for b in range(4):
        sign, c = _QMUL[a][b] if side == "left" else _QMUL[b][a]
        perm[c], signs[c] = b, sign
    return SignedPermutation(tuple(perm), tuple(signs))


@lru_cache(maxsize=None)
def _hurwitz_radon_family(v: int) -> tuple[SignedPermutation, ...]:
    """Maximal anticommuting skew orthogonal family on R^(2^v)."""
    if v == 1:
        return (_J,)
    if v == 2:
        return tuple(_quaternion(a, "left") for a in (1, 2, 3))
    if v == 3:
        return (tuple(_Q.kron(_quaternion(a, "left")) for a in (1, 2, 3))
                + (_J.kron(SignedPermutation.identity(4)),)
                + tuple(_P.kron(_quaternion(a, "right")) for a in (1, 2, 3)))
    if v == 4:
        return (tuple(_Q.kron(B) for B in _hurwitz_radon_family(3))
                + (_J.kron(SignedPermutation.identity(8)),))
    sixteen = _hurwitz_radon_family(4)
    omega = reduce(operator.matmul, sixteen)
    eye = SignedPermutation.identity(1 << (v - 4))
    return (tuple(B.kron(eye) for B in sixteen)
            + tuple(omega.kron(A) for A in _hurwitz_radon_family(v - 4)))


class HTypeStructure(namedtuple("HTypeStructure", "pair family")):
    """An explicit family of signed permutation matrices realising an H-type group."""

    __slots__ = ()

    @property
    def dim_x(self) -> int:
        return 2 * self.pair.n

    @property
    def dim_t(self) -> int:
        return self.pair.m


def verify_structure(s: HTypeStructure) -> None:
    """Exact integer verification of all defining axioms, O(d) each; raises ValueError."""
    d = s.dim_x
    if len(s.family) != s.pair.m:
        raise ValueError(f"expected {s.pair.m} matrices, got {len(s.family)}")
    for idx, P in enumerate(s.family, 1):
        # orthogonal: perm is a bijection of range(d) and every sign is +-1
        if sorted(P.perm) != list(range(d)) or len(P.signs) != d or set(P.signs) - {-1, 1}:
            raise ValueError(f"U^({idx}) is not an orthogonal {d} x {d} signed permutation")
        if not P.is_skew():
            raise ValueError(f"U^({idx}) is not skew-symmetric")
    for i in range(len(s.family)):
        for j in range(i + 1, len(s.family)):
            if not s.family[i].anticommutes(s.family[j]):
                raise ValueError(f"U^({i + 1}) and U^({j + 1}) do not anticommute")


def construct(pair) -> HTypeStructure:
    """Build and verify an integer H-type structure for an admissible pair.

    Raises InadmissiblePair (citing rho(2n)) when none exists, and Refused, before
    building, past m * 2n = 2^18 nonzero entries: the costliest accepted pairs,
    (131072, 1) at m = 1 and (6144, 21), build and verify within 0.4 s.
    """
    p = as_pair(pair)
    verdict = admissible(p)
    if not verdict.admissible:
        raise InadmissiblePair(p, verdict.rho_2n)
    if p.m * 2 * p.n > 1 << 18:
        raise Refused(f"construct{p} needs m * 2n <= 2^18 nonzero entries")
    if p.m == 1:
        family: tuple[SignedPermutation, ...] = (_J.kron(SignedPermutation.identity(p.n)),)
    else:
        two_n = 2 * p.n
        v = (two_n & -two_n).bit_length() - 1
        eye_odd = SignedPermutation.identity(two_n >> v)
        family = tuple(F.kron(eye_odd) for F in _hurwitz_radon_family(v)[: p.m])
    s = HTypeStructure(pair=p, family=family)
    verify_structure(s)
    return s


GroupElement = namedtuple("GroupElement", "x t")
GroupElement.__doc__ = """A point (x, t) with len(x) = 2n and len(t) = m.

Coordinates may be ints, Fractions, or floats; group operations stay
exact on rational inputs."""


def _check_dims(s: HTypeStructure, g: GroupElement) -> None:
    if len(g.x) != s.dim_x or len(g.t) != s.dim_t:
        raise ValueError(
            f"element dimensions ({len(g.x)}, {len(g.t)}) do not match "
            f"structure ({s.dim_x}, {s.dim_t})"
        )


def group_mul(s: HTypeStructure, a: GroupElement, b: GroupElement) -> GroupElement:
    """(x, t) o (xi, tau) with the half-commutator correction <U x, xi>/2."""
    from fractions import Fraction  # loaded only where the group law runs

    _check_dims(s, a)
    _check_dims(s, b)
    # tuple() of a generator allocates a guessed size and resizes it, so freed
    # results of the final size pile up unused on CPython's tuple free list;
    # tuple() of a list allocates the exact size and reuses them
    x = tuple([xa + xb for xa, xb in zip(a.x, b.x)])
    rational = (int, Fraction)
    t = []
    for j, P in enumerate(s.family):
        # <U x, xi> = sum_i xi_i (signs[i] x_perm[i]) in index order: d >= 2
        # terms, so the getter returns a tuple
        x_perm = operator.itemgetter(*P.perm)(a.x)
        corr = sum(map(operator.mul, b.x, map(operator.mul, P.signs, x_perm)))
        ta, tb = a.t[j], b.t[j]
        if isinstance(corr, rational) and isinstance(ta, rational) and isinstance(tb, rational):
            # the Fraction ta + tb + corr/2, built once
            t.append(Fraction(2 * (ta + tb) + corr, 2))
        else:
            t.append(ta + tb + (Fraction(1, 2) if isinstance(corr, rational) else 0.5) * corr)
    return GroupElement(x=x, t=tuple(t))


# --------------------------------------------------------------------------
# JSON export: {"n": int, "m": int, "U": [[[int]]]}

def to_json_dict(s: HTypeStructure) -> dict:
    return {"n": s.pair.n, "m": s.pair.m, "U": [P.rows() for P in s.family]}


def write_json(s: HTypeStructure, path) -> None:
    """Re-verify and serialise; never writes an unverified structure.

    Writes the text of ``json.dump(to_json_dict(s), fh, indent=1)`` and a
    newline, one matrix at a time (json indents in pure Python).
    """
    verify_structure(s)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "n": {s.pair.n},\n "m": {s.pair.m},\n "U": [')
        separator = "\n"
        for P in s.family:
            rows = ",\n".join("   [\n" + ",\n".join(f"    {v}" for v in row) + "\n   ]"
                              for row in P.rows())
            fh.write(f"{separator}  [\n{rows}\n  ]")
            separator = ",\n"
        fh.write("\n ]\n}\n")


def cmd_htype(args) -> int:
    """The ``htype`` verb: write the verified family of (n, m) to ``args.output``.
    Raises ``InadmissiblePair`` for an inadmissible pair, and ``Refused`` over
    2^22 dense matrix entries or where the file cannot be written; ``cli.main``
    prints them (exit 3 and 2)."""
    # both refusals come before the family is built, whose cost grows with n; the dense
    # limit implies construct's m * 2n <= 2^18, so construct never refuses here
    verdict = admissible((args.n, args.m))
    if not verdict.admissible:
        raise InadmissiblePair(verdict.pair, verdict.rho_2n)
    entries = args.m * (2 * args.n) ** 2  # htype 1024 1 (29 MB of JSON) is the largest m = 1
    if entries > 1 << 22:
        raise Refused(f"htype({args.n},{args.m}) would write {entries} dense matrix entries, "
                      "over the limit of 2^22")
    try:
        write_json(construct(verdict.pair), args.output)
    except OSError as exc:  # the family is built and verified; the path is refused
        raise Refused(f"cannot write {args.output}: {exc.strerror}") from None
    print(f"wrote verified H-type structure ({args.n},{args.m}) to {args.output}")
    return 0
