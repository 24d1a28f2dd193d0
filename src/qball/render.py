"""Deterministic text rendering of normal forms.

The output is valid input for the CLI expression grammar, so golden-file
tests can round-trip through the parser.  Terms print in canonical order:
by word length, then by generator codes.
"""

from __future__ import annotations

from functools import lru_cache

from .ncpoly import Algebra, NCPoly
from .scalars import terms_to_text


@lru_cache(maxsize=None)
def _atom_texts(alg: Algebra) -> tuple:
    return tuple(f"{g.cls}[{g.i},{g.j}]" for g in alg.gens)


def word_text(alg: Algebra, word: tuple) -> str:
    if not word:
        return "1"
    atoms = _atom_texts(alg)
    parts = []
    run_start = 0
    for k in range(1, len(word) + 1):
        if k == len(word) or word[k] != word[run_start]:
            atom = atoms[word[run_start]]
            e = k - run_start
            parts.append(atom if e == 1 else f"{atom}^{e}")
            run_start = k
    return "*".join(parts)


def poly_text(p: NCPoly) -> str:
    if not p.terms:
        return "0"
    bits = []
    for word in sorted(p.terms, key=lambda w: (len(w), w)):
        c = p.terms[word]
        ctext = c.to_text()
        wtext = word_text(p.alg, word)
        if wtext == "1":
            term = ctext if _is_simple(ctext) else f"({ctext})"
        elif ctext == "1":
            term = wtext
        elif ctext == "-1":
            term = f"-{wtext}"
        elif _is_simple(ctext):
            term = f"{ctext}*{wtext}"
        else:
            term = f"({ctext})*{wtext}"
        bits.append(term)
    return terms_to_text(bits)


def _is_simple(ctext: str) -> bool:
    # a single product term needs no parentheses inside a bigger product
    return not any(op in ctext for op in (" + ", " - "))
