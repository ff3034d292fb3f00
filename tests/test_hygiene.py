"""Source hygiene of the `minsess` package: no dead private helpers, no
dangling entry points, no unused imports and no state that outlives a call.

A module-level function or class with a single leading underscore must be
referenced somewhere in the package outside its own definition, a public
one somewhere in the package, its tests or the benchmark, and every name a
module imports at top level must be used in that module. Dunder names are
exempt. A parameter with a default is an option: some call must set it
and some other call must leave it out. What a module binds at top level
is never mutated, and nothing is memoized by `functools`: every cache
belongs to one call.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "minsess"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}
# every file that may use the package: the package itself, its tests and
# the benchmark, keyed by path
USERS = {
    path: ast.parse(path.read_text(), str(path))
    for folder in ("src", "tests", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(tree: ast.AST):
    """(identifier, line) for every name and attribute occurrence."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _uses(trees: dict) -> dict:
    """identifier -> (file, line) of each of its occurrences in trees."""
    uses: dict = {}
    for where, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((where, line))
    return uses


PACKAGE_USES = _uses(TREES)
ALL_USES = _uses(USERS)


def _definitions(private: bool):
    """(module, node) for each top-level function or class of the package
    whose name has a single leading underscore, or none."""
    for module, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("__") and name.startswith("_") == private:
                yield module, node


def _used_elsewhere(node, uses: list, own) -> bool:
    lines = range(node.lineno, node.end_lineno + 1)
    return any(not (where == own and line in lines) for where, line in uses)


def _imported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if not _is_dunder(bound):
                    yield bound, node.lineno


@pytest.mark.parametrize("module,node", list(_definitions(private=True)),
                         ids=lambda x: x if isinstance(x, str) else x.name)
def test_private_helpers_are_referenced(module, node):
    if not _used_elsewhere(node, PACKAGE_USES.get(node.name, []), module):
        pytest.fail(f"{module}: {node.name} is defined but never referenced")


@pytest.mark.parametrize("module,node", list(_definitions(private=False)),
                         ids=lambda x: x if isinstance(x, str) else x.name)
def test_public_definitions_are_referenced(module, node):
    if not _used_elsewhere(node, ALL_USES.get(node.name, []), PACKAGE / module):
        pytest.fail(f"{module}: {node.name} is defined but never referenced in src, tests or perfbench")


def _defaults():
    """(module, callee, parameter, position) for each parameter with a
    default of a top-level function or method of the package. A method is
    called by its name and `__init__` by its class's, as `C(...)`; the
    position is the parameter's index among a call's positional
    arguments, None for a keyword-only one."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node, node.name, 0)]
            elif isinstance(node, ast.ClassDef):
                functions = [(f, node.name if f.name == "__init__" else f.name, 1)
                             for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for f, callee, implicit in functions:
                a = f.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for k in range(first, len(positional)):
                    yield module, callee, positional[k].arg, k - implicit
                for p, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield module, callee, p.arg, None


def _calls(trees: dict) -> dict:
    """callee name -> every call of a name or an attribute by that name in
    trees."""
    calls: dict = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


ALL_CALLS = _calls(USERS)
DEFAULTS = list(_defaults())


def _passes(call: ast.Call, param: str, position) -> bool:
    """Whether call may set param: by keyword, by position, or through an
    unpacked argument."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


@pytest.mark.parametrize("module,callee,param,position", DEFAULTS,
                         ids=[f"{m}-{c}-{p}" for m, c, p, _ in DEFAULTS])
def test_every_default_is_both_taken_and_overridden(module, callee, param, position):
    calls = ALL_CALLS.get(callee, [])
    setting = sum(_passes(c, param, position) for c in calls)
    assert setting, f"{module}: no call of {callee} sets {param}; make it a constant"
    assert setting < len(calls), f"{module}: every call of {callee} sets {param}; drop its default"


@pytest.mark.parametrize("module", list(TREES))
def test_top_level_imports_are_used(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{module}: unused imports {unused}"


# modules whose walks must run on explicit stacks: one Python frame per
# prefix would overflow on protocols a few thousand prefixes long
RECURSION_FREE = ("semantics.py", "terms.py", "types.py", "typecheck.py")


def _self_calls(tree: ast.AST):
    """'name (line)' for every function, nested ones included, that calls
    itself by name: `f(...)` inside f, or `self.f(...)` inside a method f.
    A trampoline step names its function in a tuple and is no call."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            on_self = isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "self"
            callee = f.id if isinstance(f, ast.Name) else f.attr if on_self else None
            if callee == node.name:
                yield f"{node.name} (line {call.lineno})"
                break


@pytest.mark.parametrize("module", RECURSION_FREE)
def test_no_function_calls_itself(module):
    recursive = list(_self_calls(TREES[module]))
    assert not recursive, f"{module}: functions that call themselves: {recursive}"


def _tracer_targets() -> tuple:
    """`perfbench/tracer.py`'s TARGETS, read from its source."""
    tracer = PACKAGE.parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text(), str(tracer)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    pytest.fail("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("module,function", _tracer_targets())
def test_tracer_targets_are_top_level_functions(module, function):
    # the tracer looks each one up with getattr, which raises under
    # `--trace 1` once a simplification has deleted or nested it
    tree = TREES.get(f"{module}.py")
    assert tree is not None, f"no module {module}.py in the package"
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert function in defined, f"{module}.py has no top-level function {function}"


# a module-level container outlives every call: a cache kept there would
# let one call profit from the work of another, such as an earlier pass of
# a benchmark over the same inputs
MUTATORS = {"append", "add", "update", "setdefault", "clear", "pop", "popitem",
            "extend", "insert", "remove", "discard"}
MEMOIZERS = {"cache", "lru_cache"}


def _module_bindings(tree: ast.Module) -> set:
    """The names a module assigns at top level."""
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _mutations(tree: ast.Module):
    """'what (line)' for every mutation of a module-level binding, every
    `global` statement and every `functools` memoizer in the module."""
    bound = _module_bindings(tree)

    def on_binding(node) -> bool:
        return isinstance(node, (ast.Subscript, ast.Attribute)) and \
            isinstance(node.value, ast.Name) and node.value.id in bound

    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield f"global {', '.join(node.names)} (line {node.lineno})"
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for t in targets:
                if on_binding(t):
                    yield f"{t.value.id} written (line {node.lineno})"
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in MUTATORS and on_binding(f):
                yield f"{f.value.id}.{f.attr} (line {node.lineno})"
            if getattr(f, "id", None) in MEMOIZERS or getattr(f, "attr", None) in MEMOIZERS:
                yield f"functools memoizer (line {node.lineno})"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a bare decorator is no call
            for d in node.decorator_list:
                if getattr(d, "id", None) in MEMOIZERS or getattr(d, "attr", None) in MEMOIZERS:
                    yield f"functools memoizer (line {d.lineno})"


@pytest.mark.parametrize("module", list(TREES))
def test_module_level_state_is_never_mutated(module):
    found = list(_mutations(TREES[module]))
    assert not found, f"{module}: state that outlives a call: {found}"
