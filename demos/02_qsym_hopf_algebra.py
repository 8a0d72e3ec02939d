"""Quasi-symmetric functions: the two bases and the Hopf operations.

Run:  python demos/02_qsym_hopf_algebra.py
"""

from qsymx import (
    antipode,
    coproduct,
    counit,
    multiply,
    qsym_basis,
    ribbon_cuts,
    t_involution,
    to_F,
    to_M,
)

product = multiply(qsym_basis("M", (1,)), qsym_basis("M", (2, 1)))
print("Products in the monomial basis are quasi-shuffles: the parts of both")
print("factors interleave in order, and a part of one may be added to a part")
print("of the other.  M[1] * M[2,1] has the terms:")
for gamma, c in sorted(product.coeffs.items()):
    print("   %-12s x %s" % (gamma, c))
print("so M[1]*M[2,1] =", product)

print()
print("The F basis multiplies by Gessel's shuffle rule:")
print("   F[1]*F[1] =", multiply(qsym_basis("F", (1,)), qsym_basis("F", (1,))))

print()
print("Basis change both ways (a Moebius-inverting pair):")
print("   M[2] in F:", to_F(qsym_basis("M", (2,))))
print("   F[2] in M:", to_M(qsym_basis("F", (2,))))

print()
print("The F coproduct cuts the ribbon diagram; (2,3) has 6 cuts:")
for i, (left, right) in enumerate(ribbon_cuts((2, 3))):
    print("   cut %d: %r | %r" % (i, left, right))
print("so coproduct(F[2,3]) =", coproduct(qsym_basis("F", (2, 3))))

print()
x = qsym_basis("F", (1, 2))
print("Antipode on F is a signed conjugate: S(F[1,2]) =", antipode(x))
print("Antipode on M sums coarsenings of the reversal: S(M[1,2]) =",
      antipode(qsym_basis("M", (1, 2))))
print("T reverses: T(F[1,2]) =", t_involution(x))
print("counit(F[1,2]) =", counit(x))
