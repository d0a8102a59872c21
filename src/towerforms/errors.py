"""Exception hierarchy shared by all modules."""


class TowerFormsError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(TowerFormsError):
    pass


class TowerMismatch(TowerFormsError):
    pass


class ZeroArgument(TowerFormsError):
    pass


class UnsupportedLevel(TowerFormsError):
    pass


class NotIntegralUnit(TowerFormsError):
    pass


class SingularForm(TowerFormsError):
    pass


class BudgetExceeded(TowerFormsError):
    pass


class ZeroScalar(TowerFormsError):
    pass


class RuleNotApplicable(TowerFormsError):
    pass


class PreconditionSpanViolated(TowerFormsError):
    pass


class IsotropicInput(TowerFormsError):
    pass


class FoldMismatch(TowerFormsError):
    pass


class ConfigUnsupported(TowerFormsError):
    pass


class ParseError(TowerFormsError):
    """DSL parse failure; carries the offending position and an expectation hint."""

    def __init__(self, message, text, pos):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos}: {text[:pos]!r} >>> {text[pos:pos + 12]!r}")
