"""Exception types shared across the package."""


class TreeSyntaxError(ValueError):
    """Input text is not a well-formed tree description."""


class InvalidTreeError(ValueError):
    """Input describes something that is not a single tree."""


class ListFormatError(ValueError):
    """A list-assignment or coloring file is malformed or incomplete."""


class EnumerationBoundError(RuntimeError):
    """An exhaustive computation would exceed its configured work bound;
    the message names the parameter that sets the bound."""


class ClassCapError(RuntimeError):
    """A vertex has more classes of distinguishing list colorings than the
    list-count functions' ``class_cap`` keeps; the instance is too large
    for exact list counting."""


class SaturatedCountError(RuntimeError):
    """An exact value was required but only a saturated count is available."""


class NotDistinguishingError(ValueError):
    """The given coloring is preserved by a nontrivial automorphism."""


class NoColoringError(RuntimeError):
    """No coloring exists with the requested parameters."""


class CountIndexError(IndexError):
    """A rank index falls outside the valid range of coloring classes."""
