#!/usr/bin/env python3
"""Walk through the central-extension computations on the worked examples.

Run from the repository root:

    python3 scripts/h2_examples.py
"""

from fractions import Fraction

from lsconf.algebras import AlgebraSpec, tensor
from lsconf.cli import family_text
from lsconf.cohomology import h2, unital_vanishing_check
from lsconf.conformal import (ModuleElement, build_rank_one,
                              format_lambda_poly, lambda_product)

F = Fraction


def show(alg, beta):
    res = h2(alg, beta)
    print(f"{alg.name}, beta = {beta}:")
    print(f"  dim Z2 = {res.dim_Z2}, dim B2 = {res.dim_B2}, "
          f"dim H2 = {res.dim_H2}")
    for k, fam in enumerate(res.representatives, 1):
        print(f"  representative {k}: {family_text(alg, fam)}")


def main():
    print("== rank-one family ==")
    for c in (0, 1, -2, F(5, 3)):
        show(build_rank_one(c), 0)

    print()
    print("== the 2-dimensional (L, W) algebra ==")
    lw = AlgebraSpec("two_dim_lw", 2, ("L", "W"),
                     {"ld": tensor(2, {(0, 0, 0): 1, (1, 0, 1): 1}),
                      "rd": tensor(2, {(0, 1, 1): 1})})
    L, W = ModuleElement.basis(0), ModuleElement.basis(1)
    print("  L_lam W =", format_lambda_poly(lambda_product(lw, L, W), lw.basis))
    show(lw, 0)

    print()
    print("== unital vanishing at nonzero beta ==")
    u1 = AlgebraSpec("unital_one_dim", 1, ("L",),
                     {"ld": tensor(1, {(0, 0, 0): 1})})
    for beta in (1, -1, F(2, 7)):
        print(f"  beta = {beta}: H2 vanishes: {unital_vanishing_check(u1, beta)}")


if __name__ == "__main__":
    main()
