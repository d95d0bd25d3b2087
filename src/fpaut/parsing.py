"""Text grammar for words and the automorphism file schema.

Grammar: tokens separated by whitespace.  ``a<i>.<j>^<e>`` is the j-th
generator of factor i raised to e, ``x<l>^<e>`` is a free letter; ``^<e>`` is
optional (default 1) and e is a signed decimal integer.

>>> pres = Presentation((2, 2), 1)
>>> render_word(parse_word("a1.1^2 x1^-1 a2.2", pres))
'a1.1^2 x1^-1 a2.2'
"""

from __future__ import annotations

import re

from .errors import ParseError
from .words import FreeSyllable, Presentation, Word, reduce_syllables

_TOKEN = re.compile(
    r"(?:a(?P<i>\d+)\.(?P<j>\d+)|x(?P<l>\d+))(?:\^(?P<e>[+-]?\d+))?$")


def parse_word(text: str, pres: Presentation) -> Word:
    """Parse and reduce a word; malformed tokens report their position."""
    raw = []
    pos = 0
    for token in text.split():
        pos = text.index(token, pos)
        m = _TOKEN.match(token)
        if m is None:
            raise ParseError(pos, f"malformed token {token!r}")
        e = int(m.group("e")) if m.group("e") is not None else 1
        if m.group("l") is not None:
            l = int(m.group("l"))
            pres.check_letter(l)
            raw.append(FreeSyllable(l, e))
        else:
            raw.append(pres.factor_generator(int(m.group("i")),
                                             int(m.group("j")), e))
        pos += len(token)
    return reduce_syllables(raw, pres)


def render_word(w: Word) -> str:
    """Inverse of parse_word on normal forms; the empty word renders as ''."""
    tokens = []
    for s in w.syllables:
        if isinstance(s, FreeSyllable):
            tokens.append(f"x{s.letter}" if s.exponent == 1
                          else f"x{s.letter}^{s.exponent}")
        else:
            for j, e in enumerate(s.vector, start=1):
                if e:
                    tokens.append(f"a{s.factor}.{j}" if e == 1
                                  else f"a{s.factor}.{j}^{e}")
    return " ".join(tokens)


def presentation_from_dict(group: dict) -> Presentation:
    """The `group` object of an automorphism file.

    Ranks must be JSON integers (not booleans): at least 1 in
    `abelian_factors`, at least 0 for `free_rank`.
    """
    if not isinstance(group, dict):
        raise ParseError(0, f"group must be an object, not {type(group).__name__}")
    factors = group.get("abelian_factors", [])
    free_rank = group.get("free_rank", 0)
    if not (isinstance(factors, list)
            and all(type(n) is int and n >= 1 for n in factors)):
        raise ParseError(0, "abelian_factors must be a list of integers >= 1, "
                            f"not {factors!r}")
    if not (type(free_rank) is int and free_rank >= 0):
        raise ParseError(0, f"free_rank must be an integer >= 0, not {free_rank!r}")
    return Presentation(tuple(factors), free_rank)


def word_table_from_dict(table: dict, pres: Presentation) -> dict[str, Word]:
    """An `images` or `inverse_images` object: generator names to words."""
    if not isinstance(table, dict):
        raise ParseError(0, "image table must be an object mapping names to "
                            f"words, not {type(table).__name__}")
    for name, text in table.items():
        if not isinstance(text, str):
            raise ParseError(0, f"image of {name!r} must be a word string, "
                                f"not {type(text).__name__}")
    return {name: parse_word(text, pres) for name, text in table.items()}
