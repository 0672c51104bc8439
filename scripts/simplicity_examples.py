#!/usr/bin/env python3
"""Certify (non-)simplicity of the quadratic conformal algebras attached to
a few small structure tensors.

Run from the repository root:

    python3 scripts/simplicity_examples.py
"""

from lsconf.algebras import AlgebraSpec, tensor
from lsconf.conformal import build_rank_one
from lsconf.ideals import certify_conformal_simplicity


def rank_two(h1, k1):
    """ld: L ld L = L, W ld L = W; circ symmetric with parameters h1, k1."""
    return AlgebraSpec(f"rank_two({h1},{k1})", 2, ("L", "W"),
                       {"ld": tensor(2, {(0, 0, 0): 1, (1, 0, 1): 1}),
                        "circ": tensor(2, {(0, 1, 0): h1, (1, 0, 0): h1,
                                           (1, 1, 0): k1, (1, 1, 1): k1})})


def gaussian_rationals():
    """Q(i), ld its multiplication: a field, split over C."""
    return AlgebraSpec("Q(i)", 2, ("1", "i"),
                       {"ld": tensor(2, {(0, 0, 0): 1, (0, 1, 1): 1,
                                         (1, 0, 1): 1, (1, 1, 0): -1})})


def split_quadratic():
    """Q[x]/(x^2 - 1), ld its multiplication: Q x Q, a semisimple envelope."""
    return AlgebraSpec("Q[x]/(x^2-1)", 2, ("1", "x"),
                       {"ld": tensor(2, {(0, 0, 0): 1, (0, 1, 1): 1,
                                         (1, 0, 1): 1, (1, 1, 0): 1})})


def show(alg):
    cert = certify_conformal_simplicity(alg)
    print(f"{alg.name}: {cert.verdict} ({cert.criterion})")
    if cert.witness is not None:
        if hasattr(cert.witness, "basis"):
            rows = ["[" + ", ".join(str(x) for x in row) + "]"
                    for row in cert.witness.basis]
            print("  witness ideal basis:", ", ".join(rows))
        else:
            print("  witness element: ["
                  + ", ".join(str(x) for x in cert.witness) + "]")
    for line in cert.details:
        print("  -", line)


def main():
    for c in (0, 1):
        show(build_rank_one(c))
    show(rank_two(1, 1))
    show(rank_two(0, 0))
    show(gaussian_rationals())
    show(split_quadratic())


if __name__ == "__main__":
    main()
