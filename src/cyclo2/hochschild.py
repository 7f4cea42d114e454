"""The normalized Hochschild complex over F2 and its chain-level products.

A bar word a0[a1|...|an] is a pair (head, bars) of reduced monomials with no
bar entry equal to the unit: entries that reduce to a scalar kill the term
(normalized complex).  Chains are frozensets of words; adding a word twice
cancels.  The internal degree of a word is the plain sum of the internal
degrees of all its slots, which both b and B preserve.

Both product tables, shuffles and cyclic_shuffles, are gather orders: slot s
of a product word takes item order[s] (0-based) of the concatenated content,
so each product builds its words with tuple(map(content.__getitem__, order)).

u-chains carry the bookkeeping for the four homology theories: the entry at
u-exponent i is a chain of bar length n + 2i, where n is the total
homological degree.  Exponents are >= 0 for the minus theory, <= 0 for the
plus theory (the class of u^{-i}) and unrestricted for per.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .gralg import AlgebraPresentation

BarWord = tuple  # (head: Monomial, bars: tuple[Monomial, ...])
ChainElement = frozenset  # frozenset[BarWord]

ZERO_CHAIN: ChainElement = frozenset()


class ChainError(Exception):
    pass


# ----- shuffle combinatorics -----

@lru_cache(maxsize=None)
def shuffles(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """All (p,q)-shuffles as gather orders, each block kept in order."""
    if p < 0 or q < 0:
        raise ChainError("negative shuffle parameters")
    out = []
    for pos in map(set, itertools.combinations(range(p + q), p)):
        first, second = iter(range(p)), iter(range(p, p + q))
        out.append(tuple(next(first if s in pos else second)
                         for s in range(p + q)))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def cyclic_shuffles(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Cyclic (p,q)-shuffles as gather orders: rotate each block, shuffle,
    keep item 0 before item p (no order arises twice)."""
    if p < 1 or q < 1:
        raise ChainError("cyclic shuffles need p, q >= 1")
    out = []
    for r1, r2 in itertools.product(range(p), range(q)):
        rot = [(k + r1) % p for k in range(p)] + \
              [p + (k + r2) % q for k in range(q)]
        for order in shuffles(p, q):
            seq = tuple(map(rot.__getitem__, order))
            if seq.index(0) < seq.index(p):
                out.append(seq)
    return tuple(sorted(out))


def shuffle_product(A: AlgebraPresentation, c1: ChainElement,
                    c2: ChainElement) -> ChainElement:
    """Chain-level product on the Hochschild complex (shuffle then multiply)."""
    out: set = set()
    for h1, b1 in c1:
        for h2, b2 in c2:
            content = b1 + b2
            heads = A.mul(h1, h2)
            for order in shuffles(len(b1), len(b2)):
                bars = tuple(map(content.__getitem__, order))
                for h in heads:
                    out.symmetric_difference_update({(h, bars)})
    return frozenset(out)


# ----- u-chains and the mixed products -----

THEORIES = ("minus", "plus", "per")


def _combine_theories(t1: str, t2: str) -> str:
    if t1 == t2:
        return t1
    if t1 == "minus":
        return t2
    if t2 == "minus":
        return t1
    raise ChainError(f"incompatible theory tags: {t1} x {t2}")


@dataclass(frozen=True)
class UChain:
    """Finitely supported map u-exponent -> chain, tagged with its theory."""

    theory: str
    entries: tuple[tuple[int, ChainElement], ...]

    def __post_init__(self):
        if self.theory not in THEORIES:
            raise ChainError(f"unknown theory {self.theory}")
        for i, c in self.entries:
            if self.theory == "minus" and i < 0:
                raise ChainError("negative u-exponent in a minus chain")
            if self.theory == "plus" and i > 0:
                raise ChainError("positive u-exponent in a plus chain")

    @classmethod
    def make(cls, theory: str, entries: dict[int, ChainElement]) -> "UChain":
        items = tuple(sorted((i, c) for i, c in entries.items() if c))
        return cls(theory, items)

    def entry(self, i: int) -> ChainElement:
        for j, c in self.entries:
            if j == i:
                return c
        return ZERO_CHAIN

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "UChain") -> "UChain":
        if other.theory != self.theory:
            raise ChainError("cannot add chains from different theories")
        acc: dict[int, set] = {}
        for i, c in self.entries + other.entries:
            acc.setdefault(i, set()).symmetric_difference_update(c)
        return UChain.make(self.theory,
                           {i: frozenset(s) for i, s in acc.items()})


def mu_chain(A: AlgebraPresentation, x: UChain, y: UChain) -> UChain:
    """The chain-level product: shuffle part plus u times the cyclic part.

    Works for minus x minus, per x per and the module pairings where one
    factor is a minus chain.  In the plus theory, terms pushed above u^0 are
    quotiented away.
    """
    theory = _combine_theories(x.theory, y.theory)
    acc: dict[int, set] = {}
    one = A.one
    for i, ci in x.entries:
        for j, cj in y.entries:
            # shuffle part at u^{i+j}
            if not (theory == "plus" and i + j > 0):
                acc.setdefault(i + j, set()).symmetric_difference_update(
                    shuffle_product(A, ci, cj))
            # cyclic-shuffle part at u^{i+j+1}; dies if a head is 1
            if theory == "plus" and i + j + 1 > 0:
                continue
            cyclic = acc.setdefault(i + j + 1, set())
            for (h1, b1) in ci:
                for (h2, b2) in cj:
                    if h1 == one or h2 == one:
                        continue
                    content = (h1,) + b1 + (h2,) + b2
                    for order in cyclic_shuffles(len(b1) + 1, len(b2) + 1):
                        cyclic.symmetric_difference_update(
                            {(one, tuple(map(content.__getitem__, order)))})
    return UChain.make(theory, {i: frozenset(s) for i, s in acc.items()})

