"""Exception hierarchy shared by all fiberfields modules."""

from __future__ import annotations

import copyreg


class FiberFieldsError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # The subclasses' __init__ signatures differ from their `args` (the
        # formatted message), so rebuild without calling __init__: restore
        # `args` and the attributes (`module`, `residual`, ...) as they are,
        # so a pickled or copied error comes back intact.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DomainError(FiberFieldsError, ValueError):
    """A precondition on an operation's input was violated."""

    def __init__(self, module: str, message: str):
        self.module = module
        super().__init__(f"{module}: {message}")


class BudgetError(FiberFieldsError, RuntimeError):
    """A configured work budget was exhausted before the result was exact."""

    def __init__(self, module: str, message: str):
        self.module = module
        super().__init__(f"{module}: {message}")


class UnfactoredResidualError(BudgetError):
    """Factorization budget ran out; `residual` is the composite left over.

    Residuals are never silently treated as prime: callers either retry
    with a bigger budget or propagate the failure.
    """

    def __init__(self, residual: int, budget: int):
        self.residual = residual
        self.budget = budget
        super().__init__(
            "arith",
            f"factorization budget ({budget} iterations) exceeded; "
            f"unfactored residual {residual}",
        )


class PolyParseError(DomainError):
    """Syntax error in the polynomial grammar; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__("polyring", f"{message} (at offset {position})")
