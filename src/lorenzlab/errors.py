"""Exception hierarchy shared by all lorenzlab modules.

Three base classes drive the CLI exit codes: ConfigError -> 2,
PreconditionError -> 3, BudgetError -> 4.  Every concrete error class below
derives from one of them.
"""


class LorenzLabError(Exception):
    """Base class for all package errors."""


class ConfigError(LorenzLabError):
    """Bad configuration document."""


class ParseError(ConfigError):
    def __init__(self, line, message=""):
        self.line = line
        super().__init__(f"config parse error at line {line}: {message}")


class ValidationError(ConfigError):
    def __init__(self, field, message=""):
        self.field = field
        super().__init__(f"invalid config field '{field}': {message}")


class PreconditionError(LorenzLabError):
    """An operation was called outside its domain of validity."""


class BudgetError(LorenzLabError):
    """A computation exceeded its declared resource cap."""


# --- model construction -------------------------------------------------

class ExpansionTooWeak(PreconditionError):
    """Minimal branch slope does not exceed the required expansion rate."""


class DegenerateArc(PreconditionError):
    """Branch endpoint placement leaves an empty branch."""


class OnStratum(PreconditionError):
    """A cusp point sits on a homoclinic stratum; the verdict is ambiguous."""


# --- symbolic dynamics --------------------------------------------------

class EmptyWord(PreconditionError):
    pass


class EmptyCylinder(PreconditionError):
    """Backward cylinder construction emptied out: the word is not realizable."""

    def __init__(self, depth):
        self.depth = depth
        super().__init__(f"empty cylinder at depth {depth}")


class KneadingMismatch(PreconditionError):
    """Conjugacy requested between models with different kneading data."""

    def __init__(self, word, index):
        self.word = word
        self.index = index
        super().__init__(f"kneading words differ: {word} at index {index}")


class KneadingRecursionViolated(PreconditionError):
    """A boundary itinerary disagrees with the one-step kneading recursion.

    Guards the agreement between direct itineraries and the recursion."""

    def __init__(self, word, direct, recursive):
        self.word = word
        super().__init__(
            f"kneading recursion violated for {word}: {direct} vs {recursive}")


# --- atlas / certificates ------------------------------------------------

class LambdaBelowPhi(PreconditionError):
    pass


class NoTrappingInterval(PreconditionError):
    """Classification is not an up/down Lorenz region."""


class NotMarkov(PreconditionError):
    """A horseshoe crossing fails to cover the strip."""


class ArcBudgetExceeded(BudgetError):
    pass


# --- annulus -------------------------------------------------------------

class ConeBoundViolated(PreconditionError):
    """Fiber contraction too strong for the analytic cone-invariance bound."""


class OnDiscontinuity(PreconditionError):
    pass


class TrackingLost(PreconditionError):
    """Continuous tracking of a cusp along a parameter loop jumped too far."""
