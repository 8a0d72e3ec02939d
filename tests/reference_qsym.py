"""The definitional product route: the M product as a sum over Delannoy
paths, one ``quasi_shuffle`` per path, and the F product computed by
converting both factors to M, multiplying there and converting back.  For
Gessel's rule itself, ``with_descent_composition`` gives the permutations
whose shuffles define an F product.

This is the route the package used before each basis got its own product
rule; it stays here, slow and literal, as the reference the products in
``qsymx.qsym`` are compared against.  It only uses public functions.
"""

from fractions import Fraction

from qsymx.compositions import delannoy_paths, quasi_shuffle
from qsymx.permutations import Permutation
from qsymx.qsym import QSymElement, TensorElement, qsym_basis, to_F, to_M


def with_descent_composition(alpha) -> Permutation:
    """A permutation with descent composition alpha: its runs, of the part
    lengths, take decreasing blocks of values."""
    top, sigma = sum(alpha), []
    for a in alpha:
        sigma.extend(range(top - a + 1, top + 1))
        top -= a
    return tuple(sigma)


def multiply(x: QSymElement, y: QSymElement) -> QSymElement:
    """Quasi-shuffle sum over Delannoy paths in M; F goes F -> M -> F."""
    if x.basis != y.basis:
        raise ValueError("mixed-basis arithmetic")
    if x.basis == "F":
        return to_F(multiply(to_M(x), to_M(y)))
    out: dict = {}
    for alpha, a in x.coeffs.items():
        for beta, b in y.coeffs.items():
            ab = a * b
            for path in delannoy_paths(len(alpha), len(beta)):
                gamma = quasi_shuffle(alpha, beta, path)
                out[gamma] = out.get(gamma, Fraction(0)) + ab
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
