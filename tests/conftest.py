"""Shared fixtures: the worked examples and generators of random specs."""

import random
from fractions import Fraction

import pytest

from lsconf.algebras import AlgebraSpec, product_tensor, tensor
from lsconf.conformal import build_rank_one
from lsconf import constructions as cons


def two_dim_lw():
    """L ld L = L, W ld L = W, L rd W = W; the 2-dim worked example."""
    return AlgebraSpec("two_dim_lw", 2, ("L", "W"),
                       {"ld": tensor(2, {(0, 0, 0): 1, (1, 0, 1): 1}),
                        "rd": tensor(2, {(0, 1, 1): 1})})


def rank_two(h1, k1):
    """L ld L = L, W ld L = W, L o W = W o L = h1 L, W o W = k1(L + W)."""
    return AlgebraSpec(f"rank_two({h1},{k1})", 2, ("L", "W"),
                       {"ld": tensor(2, {(0, 0, 0): 1, (1, 0, 1): 1}),
                        "circ": tensor(2, {(0, 1, 0): h1, (1, 0, 0): h1,
                                           (1, 1, 0): k1, (1, 1, 1): k1})})


def unital_one_dim():
    return AlgebraSpec("unital1", 1, ("L",), {"ld": tensor(1, {(0, 0, 0): 1})})


def unital_two_dim():
    """u is a right unit for ld; rd = 0."""
    return AlgebraSpec("unital2", 2, ("u", "v"),
                       {"ld": tensor(2, {(0, 0, 0): 1, (1, 0, 1): 1})})


def dual_numbers_ls_poisson():
    """C[x]/(x^2) with circ from the Euler derivation, as dot/circ spec."""
    return AlgebraSpec("dual_numbers", 2, ("u", "v"),
                       {"dot": tensor(2, {(0, 0, 0): 1, (0, 1, 1): 1,
                                          (1, 0, 1): 1}),
                        "circ": tensor(2, {(0, 1, 1): 1})})


def rank_one_poisson(c):
    return AlgebraSpec(f"rank_one_poisson({c})", 1, ("L",),
                       {"dot": tensor(1, {(0, 0, 0): 1}),
                        "circ": tensor(1, {(0, 0, 0): c})})


def gaussian_rationals():
    """Q(i) on the basis 1, i, with ld its multiplication: a field, so no
    proper ideal over Q, while over C it splits as C x C."""
    return AlgebraSpec("Q(i)", 2, ("1", "i"),
                       {"ld": tensor(2, {(0, 0, 0): 1, (0, 1, 1): 1,
                                         (1, 0, 1): 1, (1, 1, 0): -1})})


def split_quadratic():
    """Q[x]/(x^2 - 1) on the basis 1, x, with ld its multiplication: Q x Q,
    with the ideals spanned by 1 + x and 1 - x and a semisimple envelope."""
    return AlgebraSpec("Q[x]/(x^2-1)", 2, ("1", "x"),
                       {"ld": tensor(2, {(0, 0, 0): 1, (0, 1, 1): 1,
                                         (1, 0, 1): 1, (1, 1, 0): 1})})


def matrices_star_zero():
    """M_2(Q) as ld on e11, e12, e21, e22, with rd = -ld^op, so that
    a star b = a rd b + b ld a = 0: simple on every operation set, while
    the star products span nothing."""
    at = {(i, j): 2 * i + j for i in range(2) for j in range(2)}
    ld = {(at[i, j], at[j, k], at[i, k]): 1
          for i in range(2) for j in range(2) for k in range(2)}
    rd = {(b, a, c): -v for (a, b, c), v in ld.items()}
    return AlgebraSpec("M2_star_zero", 4, ("e11", "e12", "e21", "e22"),
                       {"ld": tensor(4, ld), "rd": tensor(4, rd)})


def small_fraction(rng):
    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 1, 2, 3]))


def random_tensor(rng, dim, density=0.35):
    t = tensor(dim)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if rng.random() < density:
                    t[i][j][k] = small_fraction(rng)
    return t


def random_algebra(rng, dim, ops=("ld", "rd", "circ"), density=0.35):
    built = {}
    for op in ops:
        if rng.random() < 0.85:
            built[op] = random_tensor(rng, dim, density)
    return AlgebraSpec(f"random({dim})", dim, tuple(f"e{i}" for i in range(dim)),
                       built)


def perturbed_product_tensor(hit):
    """product_tensor with 1 added at entry (0, 0, 0) of every tensor whose
    terms satisfy hit: planted in constructions, a wrong formula."""
    def perturbed(alg, terms, aux=None):
        t = product_tensor(alg, terms, aux)
        if hit(terms):
            t[0][0][0] += 1
        return t
    return perturbed


def is_direct_route(terms):
    """Whether terms are zinbiel_to_pre_gd's direct circ, k(a.D(b) - D(a).b)."""
    return ("aux", "a") in terms[-1][1]


def construction_pre_gd_family():
    """Construction-derived pre-GD specs of assorted shapes (with and
    without circ, with and without rd)."""
    out = []
    for n in (2, 3, 4):
        zin, D = cons.truncated_binomial_zinbiel(n)
        for xi in (Fraction(0), Fraction(1, 2)):
            for k in (Fraction(0), Fraction(1), Fraction(-3)):
                out.append(cons.zinbiel_to_pre_gd(zin, D, xi, k))
    out.append(cons.ls_poisson_to_pre_gd(dual_numbers_ls_poisson()))
    for c in (Fraction(2), Fraction(-1, 3)):
        out.append(cons.ls_poisson_to_pre_gd(rank_one_poisson(c)))
    return out


def pre_gd_zoo_specs():
    """Known-good pre-GD specs: worked examples plus construction outputs."""
    zoo = [build_rank_one(0), build_rank_one(1), build_rank_one(Fraction(-2)),
           two_dim_lw(), rank_two(1, 1), rank_two(0, 0),
           unital_one_dim(), unital_two_dim()]
    zoo.extend(construction_pre_gd_family())
    return zoo


@pytest.fixture(scope="session")
def pre_gd_zoo():
    return pre_gd_zoo_specs()


@pytest.fixture
def rng():
    return random.Random(20260823)
