"""Exception types shared across the package."""


class FpAutError(Exception):
    """Base class for all errors raised by this package."""


class IndexOutOfRange(FpAutError):
    """A syllable or generator references a nonexistent factor or letter."""


class PresentationMismatch(FpAutError):
    """Two operands live over different presentations."""


class EmptyWord(FpAutError):
    """Operation requires a nonempty word."""


class NotAnAutomorphism(FpAutError):
    """The image/inverse-image tables fail the two-sided inverse check."""


class NotFactorPreserving(FpAutError):
    """Some factor image is not a conjugate of an abelian factor."""


class FactorsPermuted(FpAutError):
    """Operation requires the factor permutation to be the identity."""


class ZeroMatrix(FpAutError):
    """Spectral data of the zero matrix was requested."""


class TooShort(FpAutError):
    """Growth classification needs a longer orbit sequence."""


class DimensionMismatch(FpAutError):
    """Vectors or matrices have inconsistent dimensions."""


class SelfCheckFailed(FpAutError):
    """A result failed its own re-verification: a bug in this package,
    never a verdict about the input."""


def not_an_int(what: str, x) -> TypeError:
    """The error for a value that must be exactly an int: a float is never
    truncated, and a bool is not taken for one."""
    return TypeError(f"{what} {x!r} is a {type(x).__name__}, not an int")


class ParseError(FpAutError):
    """Malformed word or automorphism text.

    Carries the character position of the offending token.
    """

    def __init__(self, position, message):
        # both in `args`, so a pickled error (a forked shard's) rebuilds
        super().__init__(position, message)
        self.position = position
        self.message = message

    def __str__(self):
        return f"at position {self.position}: {self.message}"
