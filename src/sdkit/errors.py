"""Exception hierarchy shared by all sdkit modules.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit statuses (2 = invalid input / violated precondition,
3 = instance exceeds a documented size cap).
"""


class SdkitError(Exception):
    exit_code = 2


class ValidationError(SdkitError):
    """Malformed data or a violated operation precondition."""

    exit_code = 2


class NonMonicSpan(ValidationError):
    """A span leg required to be injective is not."""


class CodomainMismatch(ValidationError):
    """Cospan legs (or a morphism and its expected target) disagree."""


class IllFormedDiagram(ValidationError):
    """A diagram arrow does not type-check against its endpoints."""


class NotChordal(ValidationError):
    """Operation requires a chordal input graph."""


class NonTreeShape(ValidationError):
    """Operation requires the decomposition shape to be a tree or forest."""


class NotTame(ValidationError):
    """Operation requires all adhesion legs to be injective."""


class NotMono(ValidationError):
    """Operation requires an injective morphism."""


class NonFinSetValued(ValidationError):
    """Operation is defined for finite-set-valued decompositions only."""


class EmptyDecomposition(ValidationError):
    """Operation is undefined on a decomposition with no bags."""


class NotALayering(ValidationError):
    """The given vertex-set sequence is not a layering of the graph."""


class NotATreeDecomposition(ValidationError):
    """The given decomposition is not a tree decomposition of the graph."""


class TooLarge(SdkitError):
    """Instance exceeds a documented size cap."""

    exit_code = 3
