"""Exception hierarchy shared across the package."""


class WindcalError(Exception):
    """Base class for all package errors."""


class DomainError(WindcalError, ValueError):
    """Invalid parameter values or arguments outside a function's domain."""


class DataValidationError(WindcalError):
    """Input data failed schema or consistency checks."""


class NumericalError(WindcalError):
    """A numerical procedure failed (non-PD matrix, non-finite posterior, ...)."""


class RuleError(DomainError):
    """A record's values break one of its rules; ``fields`` names the values the rule reads."""

    def __init__(self, fields, rule: str):
        super().__init__(f"{', '.join(fields)} {rule}")
        self.fields = tuple(fields)
        self.rule = rule

    def __reduce__(self):
        # Exception pickles its message alone, which __init__ cannot take back
        return type(self), (self.fields, self.rule)


def check_rules(rows) -> None:
    """Raise a RuleError for the first (fields, rule, holds) row that does not hold."""
    for fields, rule, holds in rows:
        if not holds:
            raise RuleError(fields, rule)
