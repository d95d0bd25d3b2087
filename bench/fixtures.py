"""Inputs of the benchmark.

The five automorphisms the test suite uses (fib, trib, intro, twist, mixed),
three derived from them (fibsw, fib2, intro_sub), and the seeded inputs:
one orbit element per fixture and one conjugacy partner for intro and for
twist.  Everything is a function of the seed alone.

Run as a script (``python3 bench/fixtures.py SEED OUTDIR``) it performs the
benchmark's set-up once, importing fpaut and writing every input, and exits;
``run.py`` times such runs to report ``setup_s``.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BASE = {
    "fib": {
        "group": {"abelian_factors": [], "free_rank": 2},
        "images": {"x1": "x1 x2", "x2": "x1"},
        "inverse_images": {"x1": "x2", "x2": "x2^-1 x1"},
    },
    "trib": {
        "group": {"abelian_factors": [], "free_rank": 3},
        "images": {"x1": "x2", "x2": "x3", "x3": "x2 x1"},
        "inverse_images": {"x1": "x1^-1 x3", "x2": "x1", "x3": "x2"},
    },
    "intro": {
        "group": {"abelian_factors": [2, 3], "free_rank": 0},
        "images": {"a1.1": "a1.1^2 a1.2", "a1.2": "a1.1 a1.2",
                   "a2.1": "a2.2", "a2.2": "a2.3", "a2.3": "a2.1 a2.2"},
        "inverse_images": {"a1.1": "a1.1 a1.2^-1", "a1.2": "a1.1^-1 a1.2^2",
                           "a2.1": "a2.1^-1 a2.3", "a2.2": "a2.1",
                           "a2.3": "a2.2"},
    },
    "twist": {
        "group": {"abelian_factors": [2, 2], "free_rank": 0},
        "images": {"a1.1": "a1.1", "a1.2": "a1.2",
                   "a2.1": "a1.1 a2.1 a1.1^-1", "a2.2": "a1.1 a2.2 a1.1^-1"},
        "inverse_images": {"a1.1": "a1.1", "a1.2": "a1.2",
                           "a2.1": "a1.1^-1 a2.1 a1.1",
                           "a2.2": "a1.1^-1 a2.2 a1.1"},
    },
    "mixed": {
        "group": {"abelian_factors": [2], "free_rank": 1},
        "images": {"a1.1": "a1.1", "a1.2": "a1.2", "x1": "a1.1 x1"},
        "inverse_images": {"a1.1": "a1.1", "a1.2": "a1.2", "x1": "a1.1^-1 x1"},
    },
}

# Seeded orbit elements on the free fixtures are positive words with a fixed
# letter content.  fib and trib are positive automorphisms, so the letter
# length of every iterate depends on that content only, and the cost of a
# seeded orbit (dominated by the quadratic canonical rotation of the longest
# iterates) stays the same from seed to seed; only the arrangement varies.
FREE_CONTENT = {"fib": (3, 2), "trib": (2, 1, 1)}


@dataclass(frozen=True)
class Inputs:
    seed: int
    files: dict       # file name -> bytes
    elements: dict    # fixture -> seeded orbit element, in the text grammar


def _encode(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def _syllable_text(name: str, exponent: int) -> str:
    return name if exponent == 1 else f"{name}^{exponent}"


def _vector_text(factor: int, vec) -> str:
    return " ".join(_syllable_text(f"a{factor}.{j}", e)
                    for j, e in enumerate(vec, start=1) if e)


def _random_vector(rng: random.Random, rank: int) -> tuple:
    while True:
        vec = tuple(rng.randint(-2, 2) for _ in range(rank))
        if any(vec) and sum(map(abs, vec)) <= 3:
            return vec


def _free_element(rng: random.Random, content) -> str:
    """A positive cyclically reduced word with the given letter counts."""
    letters = [l for l, n in enumerate(content, start=1) for _ in range(n)]
    while True:
        rng.shuffle(letters)
        runs = []
        for l in letters:
            if runs and runs[-1][0] == l:
                runs[-1][1] += 1
            else:
                runs.append([l, 1])
        if 2 <= len(runs) <= 4 and runs[0][0] != runs[-1][0]:
            return " ".join(_syllable_text(f"x{l}", e) for l, e in runs)


def _factor_element(rng: random.Random, fixture: str) -> str:
    """Four syllables alternating between two tracks; only the vectors are
    random, so that the cost of the orbit does not depend on the seed."""
    ranks = BASE[fixture]["group"]["abelian_factors"]
    parts = []
    for k in range(4):
        if k % 2 == 0:
            parts.append(_vector_text(1, _random_vector(rng, ranks[0])))
        elif len(ranks) > 1:
            parts.append(_vector_text(2, _random_vector(rng, ranks[1])))
        else:
            parts.append("x1")
    return " ".join(parts)


def orbit_elements(seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    for fixture in ("fib", "trib", "intro", "twist", "mixed"):
        if fixture in FREE_CONTENT:
            out[fixture] = _free_element(rng, FREE_CONTENT[fixture])
        else:
            out[fixture] = _factor_element(rng, fixture)
    return out


def _load(doc: dict):
    from fpaut.automorphisms import validate
    from fpaut.parsing import presentation_from_dict, word_table_from_dict
    pres = presentation_from_dict(doc["group"])
    return validate(word_table_from_dict(doc["images"], pres),
                    word_table_from_dict(doc["inverse_images"], pres), pres)


def _transvection(pres, factor: int, row: int, col: int, sign: int):
    """The elementary automorphism a_factor.col -> a_factor.col a_factor.row^sign."""
    from fpaut import FactorSyllable, Word, validate
    from fpaut.automorphisms import generator_word
    images = {n: generator_word(pres, n) for n in pres.generator_names()}
    inverse_images = dict(images)
    rank = pres.factor_rank(factor)
    for table, s in ((images, sign), (inverse_images, -sign)):
        vec = [1 if r == col else 0 for r in range(rank)]
        vec[row] += s
        table[f"a{factor}.{col + 1}"] = Word(pres, (FactorSyllable(factor, tuple(vec)),))
    return validate(images, inverse_images, pres)


def _conjugate_by(psi, phi):
    from fpaut import compose, inverse
    return compose(compose(psi, phi), inverse(psi))


def _random_partner(rng: random.Random, phi):
    """psi phi psi^-1 for a random transvection psi on one factor."""
    pres = phi.presentation
    factor = rng.randint(1, pres.num_factors)
    row, col = rng.sample(range(pres.factor_rank(factor)), 2)
    return _conjugate_by(_transvection(pres, factor, row, col,
                                       rng.choice((1, -1))), phi)


def build(seed: int) -> Inputs:
    from fpaut import power
    from fpaut.cli import automorphism_to_dict

    files = {f"{name}.json": _encode(doc) for name, doc in BASE.items()}
    auts = {name: _load(doc) for name, doc in BASE.items()}
    fib, intro = auts["fib"], auts["intro"]
    swap = _load({"group": BASE["fib"]["group"],
                  "images": {"x1": "x2", "x2": "x1"},
                  "inverse_images": {"x1": "x2", "x2": "x1"}})
    derived = {
        "fibsw": _conjugate_by(swap, fib),
        "fib2": power(fib, 2),
        "intro_sub": _conjugate_by(
            _transvection(intro.presentation, 1, 0, 1, 1), intro),
    }
    rng = random.Random(f"partners-{seed}")
    for name in ("intro", "twist"):
        derived[f"{name}_conj"] = _random_partner(rng, auts[name])
    for name, phi in derived.items():
        files[f"{name}.json"] = _encode(automorphism_to_dict(phi))
    return Inputs(seed, files, orbit_elements(seed))


def write(inputs: Inputs, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for name, data in inputs.files.items():
        (outdir / name).write_bytes(data)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    write(build(int(sys.argv[1])), Path(sys.argv[2]))
