"""Orbit lengths and masses recomputed without fpaut, to check classify jobs.

A word is a list of syllables ``(track, exponents)``: track ``("a", i)`` with
the exponent vector of factor i, or ``("x", l)`` with a one-entry tuple.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"^(?:a(\d+)\.(\d+)|x(\d+))(?:\^(-?\d+))?$")


def parse(text: str, ranks) -> list:
    raw = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad token {tok!r}")
        e = int(m.group(4) or 1)
        if m.group(3):
            raw.append((("x", int(m.group(3))), (e,)))
        else:
            i, j = int(m.group(1)), int(m.group(2))
            raw.append((("a", i), tuple(e if r == j else 0
                                        for r in range(1, ranks[i - 1] + 1))))
    return reduce(raw)


def reduce(raw) -> list:
    out = []
    for track, vec in raw:
        if out and out[-1][0] == track:
            vec = tuple(a + b for a, b in zip(out.pop()[1], vec))
        if any(vec):
            out.append((track, vec))
    return out


def inverse(w: list) -> list:
    return [(t, tuple(-e for e in v)) for t, v in reversed(w)]


def cyclic_core(w: list):
    """(conjugator, core) with w = conjugator core conjugator^-1."""
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo][0] == w[hi - 1][0]:
        merged = tuple(a + b for a, b in zip(w[lo][1], w[hi - 1][1]))
        if any(merged):
            return (w[:lo] + inverse([w[hi - 1]]),
                    [(w[lo][0], merged)] + w[lo + 1:hi - 1])
        lo, hi = lo + 1, hi - 1
    return w[:lo], w[lo:hi]


def power(w: list, n: int) -> list:
    if n < 0:
        w, n = inverse(w), -n
    if n == 0 or not w:
        return []
    conj, core = cyclic_core(w)
    if len(core) == 1:
        mid = [(core[0][0], tuple(n * e for e in core[0][1]))]
    else:
        mid = core * n
    return reduce(conj + mid + inverse(conj))


def apply(images: dict, w: list) -> list:
    raw = []
    for (kind, idx), vec in w:
        if kind == "x":
            raw.extend(power(images[f"x{idx}"], vec[0]))
        else:
            for j, e in enumerate(vec, start=1):
                raw.extend(power(images[f"a{idx}.{j}"], e))
    return reduce(raw)


def orbit(doc: dict, element: str, max_iter: int):
    """(lengths, masses) of the cyclic cores of phi^n(element), n = 0..max_iter."""
    ranks = doc["group"]["abelian_factors"]
    images = {k: parse(v, ranks) for k, v in doc["images"].items()}
    w = parse(element, ranks)
    lengths, masses = [], []
    for _ in range(max_iter + 1):
        core = cyclic_core(w)[1]
        lengths.append(len(core))
        masses.append(sum(abs(e) for _, vec in core for e in vec))
        w = apply(images, w)
    return lengths, masses
