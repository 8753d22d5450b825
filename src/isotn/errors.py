"""Exception types shared across the package."""

import math

# symbols of a sequence or prefix that an error message shows
_SHOWN_SYMBOLS = 16
# characters of one value that an error message shows
_SHOWN_CHARS = 40


def _brief(symbols: tuple) -> str:
    """The tuple as text, each symbol as :func:`_brief_value` shows it, cut
    after its first 16 symbols with its length stated."""
    head = ", ".join(_brief_value(x) for x in symbols[:_SHOWN_SYMBOLS])
    if len(symbols) > _SHOWN_SYMBOLS:
        return f"({head}, …) of length {len(symbols)}"
    return f"({head},)" if len(symbols) == 1 else f"({head})"


def _brief_value(x) -> str:
    """``str(x)``, cut after 40 characters; an integer of more digits is
    shown by its digit count, as it may be too long to print at all."""
    if isinstance(x, int) and abs(x) >= 10 ** _SHOWN_CHARS:
        digits = int((abs(x).bit_length() - 1) * math.log10(2)) + 1  # those of 2**(bits - 1)
        digits += abs(x) >= 10 ** digits
        return f"(an integer of {digits} digits)"
    text = str(x)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "…"


class IsotnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(IsotnError, ValueError):
    """Tensor shapes or edge dimensions are incompatible."""


class IsometryImpossibleError(IsotnError, ValueError):
    """Input dimension exceeds output dimension: no isometry can exist.

    Deliberately distinct from ``is_isometry(...) == False``; the question
    "is this an isometry" has no answer when the shape forbids one.
    """


class SingularMatrixError(IsotnError, ValueError):
    """A matrix required to have full column rank is (numerically) singular."""

    def __init__(self, message, smallest_singular_value):
        super().__init__(f"{message} (smallest singular value {smallest_singular_value:.3e})")
        self.smallest_singular_value = smallest_singular_value


class CycleError(IsotnError, ValueError):
    """The internal edges of a quiver contain a directed cycle."""

    def __init__(self, message, cycle_edges=()):
        super().__init__(message)
        self.cycle_edges = tuple(cycle_edges)


class ZeroAmplitudeError(IsotnError, ValueError):
    """A sampled sequence has amplitude zero, so its log term is singular."""

    def __init__(self, sequence):
        self.sequence = tuple(sequence)
        super().__init__(f"zero amplitude on sequence {_brief(self.sequence)}")


class ConditioningError(IsotnError, ValueError):
    """A conditioning prefix has zero probability under the model."""

    def __init__(self, prefix):
        self.prefix = tuple(prefix)
        super().__init__(
            f"prefix {_brief(self.prefix)} has zero probability; cannot condition on it")


class UnsupportedTopologyError(IsotnError, ValueError):
    """The operation is only defined for a restricted class of graphs."""


class FitError(IsotnError, ValueError):
    """A decay-curve fit cannot be performed (too few usable points)."""


class ModelFileError(IsotnError, ValueError):
    """A model file is malformed, truncated, or fails its checksum."""
