import pickle

import pytest

from fiberfields.errors import (
    BudgetError,
    DomainError,
    PolyParseError,
    UnfactoredResidualError,
)


@pytest.mark.parametrize(
    "err, attrs",
    [
        (DomainError("kummer", "x"), {"module": "kummer"}),
        (BudgetError("diversity", "fiber n = 3 unresolved"), {"module": "diversity"}),
        (UnfactoredResidualError(15, 3), {"module": "arith", "residual": 15, "budget": 3}),
        (PolyParseError("unexpected ')'", 4), {"module": "polyring", "position": 4}),
    ],
    ids=["DomainError", "BudgetError", "UnfactoredResidualError", "PolyParseError"],
)
def test_errors_survive_pickling(err, attrs):
    """Errors come back from pickling as themselves: type, message and
    attributes."""
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert back.args == err.args
    assert {k: getattr(back, k) for k in attrs} == attrs
