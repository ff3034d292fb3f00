"""Operations of the three workloads and their checks against the
generator's references.

`execute` is the timed part: it calls only public `minsess` functions.
`verify` and `layer_counts` run outside the timed region and never call
into `minsess`; they compare with the reference the generator built and
walk results with loops, so deep terms cannot overflow the stack here.
"""

from __future__ import annotations

import dataclasses

from gen import Op

OK, WRONG, TRUNCATED, RAISED = "ok", "wrong", "truncated", "raised"

_FIELDS: dict = {}


def _fields(obj) -> tuple:
    cls = type(obj)
    names = _FIELDS.get(cls)
    if names is None:
        names = _FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return names


def same_tree(a, b) -> bool:
    """Structural equality of frozen-dataclass trees, iteratively."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, tuple):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif dataclasses.is_dataclass(x):
            stack.extend((getattr(x, n), getattr(y, n)) for n in _fields(x))
        elif x != y:
            return False
    return True


def execute(lib, op: Op):
    """Run one operation; returns the raw results for `verify`."""
    inp = op.inputs
    if op.workload == "run":
        return lib.sem.run(inp["process"])
    if op.workload == "explore":
        return lib.sem.explore(inp["process"])
    process, encoded = inp["process"], None
    if op.family == "deleg":
        process = encoded = lib.tm.encode_namepass(process, inp["name_types"])
    result = lib.tc.check_process(inp["envs"], process)
    stype = inp["stype"]
    parts = lib.ty.gdecomp(stype)
    dual = lib.ty.dual(stype)
    equal = lib.ty.equal_types(stype, inp["unfolding"]) if op.family == "rec" else None
    return {"result": result, "parts": parts, "dual": dual, "equal": equal, "encoded": encoded}


def verify(lib, op: Op, out) -> tuple[str, str]:
    """(status, detail): OK, WRONG with what differs, or TRUNCATED."""
    ref = op.ref
    if op.workload == "run":
        if out.status != "inert":
            return WRONG, f"status {out.status}"
        if len(out.steps) != ref["steps"]:
            return WRONG, f"{len(out.steps)} steps, expected {ref['steps']}"
        if not isinstance(out.final, lib.tm.Inact):
            return WRONG, "final state is not nil"
        return OK, ""
    if op.workload == "explore":
        if out.truncated:
            return TRUNCATED, "exploration truncated"
        got = {"states": len(out.states), "edges": out.edges, "terminals": len(out.terminals)}
        want = {k: ref[k] for k in got}
        if got != want:
            return WRONG, f"{got}, expected {want}"
        if set(out.terminals.values()) != {"inert"}:
            return WRONG, "a terminal state is stuck"
        return OK, ""
    if out["result"].ok != ref["ok"]:
        return WRONG, f"verdict {out['result'].ok}, expected {ref['ok']}"
    if len(out["parts"]) != ref["width"]:
        return WRONG, f"decomposition width {len(out['parts'])}, expected {ref['width']}"
    if not same_tree(out["dual"], ref["dual"]):
        return WRONG, "dual type differs"
    if op.family == "rec" and out["equal"] is not ref["equal"]:
        return WRONG, "type not equal to its unfolding"
    if op.family == "deleg":
        annot = session_annotation(lib, out["encoded"])
        if annot is None or not same_tree(annot, ref["encoded_stype"]):
            return WRONG, "encoded session type differs"
    return OK, ""


def session_annotation(lib, p):
    """The annotation of the restriction of s along a restriction chain."""
    while isinstance(p, lib.tm.Res):
        if p.binder.base == "s":
            return p.annot
        p = p.body
    return None


# ---------------------------------------------------------------------------
# State shape, counted outside the timed region
# ---------------------------------------------------------------------------


def term_nodes(lib, p) -> int:
    """Process, value and name nodes of a term; type annotations excluded."""
    types_module = lib.ty.__name__
    count, stack = 0, [p]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif dataclasses.is_dataclass(x) and type(x).__module__ != types_module:
            count += 1
            stack.extend(getattr(x, n) for n in _fields(x))
    return count


def components(lib, p) -> int:
    """Top-level parallel components under the restriction prefix."""
    tm = lib.tm
    count, stack = 0, [p]
    while stack:
        x = stack.pop()
        if isinstance(x, tm.Res):
            stack.append(x.body)
        elif isinstance(x, tm.Par):
            stack += (x.left, x.right)
        elif not isinstance(x, tm.Inact):
            count += 1
    return count


def layer_counts(lib, op: Op, out) -> dict:
    """Per-operation counts read off a successful result."""
    if op.workload == "check":
        return {"types_seen": len(out["result"].types_seen)}
    if op.workload == "run":
        states = [out.initial] + [s.term for s in out.steps]
        steps, dedup = len(out.steps), 0
    else:
        states = list(out.states.values())
        steps = out.edges
        dedup = out.edges - (len(out.states) - 1)
    return {
        "steps": steps,
        "states": len(states),
        "dedup": dedup,
        "state_components": sum(components(lib, s) for s in states) / len(states),
        "state_nodes": sum(term_nodes(lib, s) for s in states) / len(states),
    }
