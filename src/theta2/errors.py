"""Exception types shared across the package."""


class DerivationError(RuntimeError):
    """An internal derivation produced inconsistent data (a bug, not bad input)."""


class EvaluationError(ArithmeticError):
    """A numerical evaluation could not meet its accuracy target."""
