"""Checks on the library source itself."""

import ast
from collections import Counter
from pathlib import Path

import fiberfields

SOURCES = sorted(Path(fiberfields.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # would vanish; the library raises a named error instead.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_functions_take_no_private_parameters():
    # A parameter named `_x` is a private switch: a second code path that
    # only a test selects and no workload runs.
    found = [
        f"{path.name}:{node.lineno}:{arg.arg}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in (
            node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            + [a for a in (node.args.vararg, node.args.kwarg) if a]
        )
        if arg.arg.startswith("_")
    ]
    assert found == []


def test_library_does_not_use_functools_cached_property():
    # Before Python 3.12 cached_property takes a lock on every first read;
    # the library caches such an attribute in the instance __dict__ itself.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "cached_property")
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "functools"
            and any(alias.name == "cached_property" for alias in node.names)
        )
    ]
    assert found == []


def test_library_starts_no_worker_processes():
    # Fibers are processed serially in one process: a pool lost to the
    # serial stream on every workload, so no module imports one back.
    pool_modules = ("concurrent.futures", "multiprocessing")
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        # `from concurrent import futures` imports concurrent.futures
        for name in [f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom)
                     else alias.name]
        if any(name == m or name.startswith(m + ".") for m in pool_modules)
    ]
    assert found == []


def test_every_library_function_has_a_caller():
    # A top-level function or class that no other code in the library
    # names, and that the package does not export, is dead: no workload
    # reaches it.  A name used only inside its own body (recursion) does
    # not count.
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]

    def names(node):
        return Counter(
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
        )

    used = sum((names(tree) for tree in trees), Counter())
    found = [
        f"{path.name}:{node.lineno}:{node.name}"
        for path, tree in zip(SOURCES, trees)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in fiberfields.__all__
        and used[node.name] == names(node)[node.name]
    ]
    assert found == []


def test_value_primes_have_one_owner():
    # Which primes each value g(n) gets, from the trial root table and its
    # windows, is decided in sieve alone; every other module reads
    # sieve.value_prime_lists.
    owned = {
        "trial_root_table",
        "segment_prime_lists",
        "trial_prime_lists",
        "window_size",
        "TrialRootTable",
    }
    found = [
        f"{path.name}:{node.lineno}:{name}"
        for path in SOURCES
        if path.name != "sieve.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in [node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute) else None]
        if name in owned
    ]
    assert found == []


def test_primes_have_one_owner():
    # The primes up to a limit come from arith's one table
    # (arith.primes_up_to); no other module sieves its own.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "arith.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == "prime_flags")
        or (isinstance(node, ast.Attribute) and node.attr == "prime_flags")
        or (isinstance(node, ast.alias) and node.name == "prime_flags")
    ]
    assert found == []


def test_good_primes_have_one_walk():
    # A polynomial's good primes, those not dividing its leading
    # coefficient times its discriminant, come from arith's one walk
    # (arith.primes_not_dividing): kummer and polyring cut no list of
    # primes of their own.
    found = {
        path.name: {
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        } & {"primes_up_to", "primes_not_dividing"}
        for path in SOURCES
        if path.name in ("kummer.py", "polyring.py")
    }
    assert found == {"kummer.py": {"primes_not_dividing"}, "polyring.py": {"primes_not_dividing"}}


def test_irreducibility_is_decided_in_one_place():
    # Whether F(n, y) or a minimal polynomial is irreducible is decided by
    # one rule: an inert prime among its fingerprint's first,
    # factor_over_Q only without one.  kummer.factor_certified applies it.
    # The other callers of factor_over_Q need every factor of a polynomial
    # with its multiplicity, and each factors it once for every reader:
    # g of a cyclic cover, the branch polynomial of a plane cover (a
    # cyclic cover's comes from g's factors), and the g whose
    # irreducibility exact_order_prime_ratio checks before its table
    # reads the same factors.  polyring defines it and the package
    # exports it.
    allowed = {
        ("kummer.py", "factor_certified"),
        ("covers.py", "normalize_cyclic"),
        ("covers.py", "branch_factorization"),
        ("sieve.py", "exact_order_prime_ratio"),
        ("polyring.py", "factor_over_Q"),
    }
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "__init__.py"
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if (path.name, getattr(top, "name", None)) not in allowed
        for node in ast.walk(top)
        if (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None) == "factor_over_Q"
    ]
    assert found == []
