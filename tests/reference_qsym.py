"""The definitional product route: the M product as a sum over Delannoy
paths, one ``quasi_shuffle`` per path and the paths of each term counted,
and the F product computed by converting both factors to M, multiplying
there and converting back.  The
basis change and the M antipode are the signed sums over ``refinements``
and ``coarsenings``, one term at a time.  For
Gessel's rule itself, ``with_descent_composition`` gives the permutations
whose shuffles define an F product.  For the permutation algebra,
``shuffles`` is the recursive merge and ``multiply_ssym`` the sum over all
of S_(n+m) that define the shuffle product.

This is the route the package used before each basis got its own product
rule; it stays here, slow and literal, as the reference the products in
``qsymx.qsym`` are compared against, with the Delannoy paths and the
quasi-shuffle along one of them defined here.  It only uses public
functions of the package.
"""

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm

from qsymx.compositions import Composition, coarsenings, refinements
from qsymx.permutations import Permutation, SSymElement
from qsymx.qsym import QSymElement, TensorElement, qsym_basis

# Lattice paths are tuples over these step symbols.
HORIZONTAL = "H"
VERTICAL = "V"
DIAGONAL = "D"
LatticePath = tuple[str, ...]


@lru_cache(maxsize=512)
def _delannoy_paths(p: int, q: int) -> tuple[LatticePath, ...]:
    if p == 0 and q == 0:
        return ((),)
    out: list[LatticePath] = []
    if p > 0:
        out.extend((HORIZONTAL,) + tail for tail in _delannoy_paths(p - 1, q))
    if q > 0:
        out.extend((VERTICAL,) + tail for tail in _delannoy_paths(p, q - 1))
    if p > 0 and q > 0:
        out.extend((DIAGONAL,) + tail for tail in _delannoy_paths(p - 1, q - 1))
    return tuple(out)


def delannoy_paths(p: int, q: int) -> list[LatticePath]:
    """All lattice paths from (0,0) to (p,q) with unit horizontal, vertical
    and diagonal steps, in a fixed (H < V < D at each point) order."""
    if p < 0 or q < 0:
        raise ValueError("endpoint coordinates must be non-negative")
    return list(_delannoy_paths(p, q))


def quasi_shuffle(alpha: Composition, beta: Composition, path: LatticePath) -> Composition:
    """Quasi-shuffle of alpha and beta along a Delannoy path: a horizontal
    step consumes the next part of alpha, a vertical step the next part of
    beta, a diagonal step consumes one of each and emits their sum."""
    out = []
    i = j = 0
    for step in path:
        if step == HORIZONTAL:
            out.append(alpha[i])
            i += 1
        elif step == VERTICAL:
            out.append(beta[j])
            j += 1
        elif step == DIAGONAL:
            out.append(alpha[i] + beta[j])
            i += 1
            j += 1
        else:
            raise ValueError("unknown step %r" % (step,))
    if i != len(alpha) or j != len(beta):
        raise ValueError(
            "path endpoint (%d, %d) does not match lengths (%d, %d)"
            % (i, j, len(alpha), len(beta))
        )
    return tuple(out)


def with_descent_composition(alpha) -> Permutation:
    """A permutation with descent composition alpha: its runs, of the part
    lengths, take decreasing blocks of values."""
    top, sigma = sum(alpha), []
    for a in alpha:
        sigma.extend(range(top - a + 1, top + 1))
        top -= a
    return tuple(sigma)


def _expanded(basis, x, expand):
    """The sum of c * sign * B_gamma over the terms (alpha, c) of x and the
    (gamma, sign) of expand(alpha), added as ints over the lcm of the
    coefficients' denominators."""
    scale = lcm(*(c.denominator for c in x.coeffs.values()))
    out: dict = {}
    for alpha, c in x.coeffs.items():
        scaled = c.numerator * (scale // c.denominator)
        for gamma, sign in expand(alpha):
            out[gamma] = out.get(gamma, 0) + sign * scaled
    return QSymElement(basis, {gamma: Fraction(v, scale) for gamma, v in out.items()})


@lru_cache(maxsize=1024)
def _signed_refinements(alpha: Composition) -> tuple:
    """(beta, (-1)^(k(beta) - k(alpha))) for the refinements beta of alpha,
    listed once per composition the tests convert."""
    return tuple((beta, (-1) ** (len(beta) - len(alpha))) for beta in refinements(alpha))


def to_F(x: QSymElement) -> QSymElement:
    """M_alpha = sum over refinements beta of alpha of
    (-1)^(k(beta) - k(alpha)) F_beta."""
    return x if x.basis == "F" else _expanded("F", x, _signed_refinements)


def to_M(x: QSymElement) -> QSymElement:
    """F_alpha = sum over refinements beta of alpha of M_beta."""
    if x.basis == "M":
        return x
    return _expanded("M", x, lambda alpha: ((beta, 1) for beta, _ in _signed_refinements(alpha)))


def antipode_M(x: QSymElement) -> QSymElement:
    """S(M_beta) = (-1)^k(beta) times the sum of the coarsenings of the
    reversal of beta."""
    if x.basis != "M":
        raise ValueError("expected an M-basis element")
    return _expanded("M", x, lambda beta: (
        (alpha, (-1) ** len(beta)) for alpha in coarsenings(beta[::-1])
    ))


def multiply(x: QSymElement, y: QSymElement) -> QSymElement:
    """Quasi-shuffle sum over Delannoy paths in M; F goes F -> M -> F."""
    if x.basis != y.basis:
        raise ValueError("mixed-basis arithmetic")
    if x.basis == "F":
        return to_F(multiply(to_M(x), to_M(y)))
    out: dict = {}
    for alpha, a in x.coeffs.items():
        for beta, b in y.coeffs.items():
            # the paths of each gamma counted as an int, then one term per
            # gamma, an int while the coefficients are integral
            paths = Counter(
                quasi_shuffle(alpha, beta, path)
                for path in delannoy_paths(len(alpha), len(beta))
            )
            ab = a * b
            if ab.denominator == 1:
                ab = ab.numerator
            for gamma, count in paths.items():
                out[gamma] = out.get(gamma, 0) + ab * count
    return QSymElement("M", out)


def multiply_tensor(s: TensorElement, t: TensorElement) -> TensorElement:
    """(a (x) b)(c (x) d) = ac (x) bd, one reference product per side and
    pair of terms."""
    if s.basis != t.basis:
        raise ValueError("mixed-basis tensor arithmetic")
    basis = s.basis
    out: dict = {}
    for (l1, r1), c1 in s.coeffs.items():
        for (l2, r2), c2 in t.coeffs.items():
            prod_l = multiply(qsym_basis(basis, l1), qsym_basis(basis, l2))
            prod_r = multiply(qsym_basis(basis, r1), qsym_basis(basis, r2))
            for la, ca in prod_l.coeffs.items():
                for rb, cb in prod_r.coeffs.items():
                    key = (la, rb)
                    out[key] = out.get(key, Fraction(0)) + c1 * c2 * ca * cb
    return TensorElement(basis, out)


def shuffles(sigma: Permutation, tau: Permutation) -> list[Permutation]:
    """The shuffles of sigma with tau shifted up by len(sigma), by the
    recursive merge: those that start with sigma's first letter, then those
    that start with the shifted tau's."""
    n = len(sigma)

    def merge(a, b):
        if not a:
            yield b
            return
        if not b:
            yield a
            return
        for rest in merge(a[1:], b):
            yield (a[0],) + rest
        for rest in merge(a, b[1:]):
            yield (b[0],) + rest

    return list(merge(sigma, tuple(x + n for x in tau)))


def multiply_ssym(x: SSymElement, y: SSymElement) -> SSymElement:
    """F_sigma F_tau as the sum of F_rho over the rho in S_(n+m) whose
    letters up to n read sigma and whose letters above n, less n, read
    tau."""
    out: dict = {}
    for sigma, a in x.coeffs.items():
        for tau, b in y.coeffs.items():
            n = len(sigma)
            for rho in itertools.permutations(range(1, n + len(tau) + 1)):
                low = tuple(v for v in rho if v <= n)
                high = tuple(v - n for v in rho if v > n)
                if low == sigma and high == tau:
                    out[rho] = out.get(rho, Fraction(0)) + a * b
    return SSymElement(out)
