"""Exception types shared across the package."""


class Eta26Error(Exception):
    """Base class for package-specific errors."""


class BudgetError(Eta26Error):
    """A configured resource budget was exceeded."""


class FactoringBudgetError(BudgetError):
    """Factoring gave up before finishing within its iteration budget."""


class SeriesBudgetError(BudgetError):
    """A series expansion would exceed its memory or term budget."""


class ConsistencyError(Eta26Error):
    """An internal cross-check failed.

    This always indicates a bug in the package (or corrupted inputs),
    never a legitimate mathematical outcome.  The CLI maps it to exit
    status 2.
    """
