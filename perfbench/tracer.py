"""Layer tracer: wraps public `minsess` functions from outside the program.

Each traced function is replaced at its defining module attribute and at
every alias another `minsess` module imported (for example
`minsess.semantics.substitute`), so calls between layers are seen too.
A call made while the same function is already running (recursion, or a
re-entry through a helper) is counted but not timed, so a recursive
function's time is that of its outermost call. Spans are kept in memory
with name, start, end, parent and operation id, and written out by `dump`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# (module, function): the layer boundaries the benchmark reports on
TARGETS = (
    ("semantics", "normalize"),
    ("semantics", "enabled"),
    ("semantics", "apply_redex"),
    ("semantics", "canonical_key"),
    ("semantics", "run"),
    ("semantics", "explore"),
    ("terms", "substitute"),
    ("terms", "free_names"),
    ("terms", "used_bases"),
    ("terms", "iter_subterms"),
    ("terms", "encode_namepass"),
    ("typecheck", "check_process"),
    ("types", "equal_types"),
    ("types", "canon_key"),
    ("types", "unfold"),
    ("types", "dual"),
    ("types", "gdecomp"),
)
MAX_SPANS = 100_000
PACKAGE = "minsess"


class Tracer:
    """Install with `with Tracer(): ...`; read per-operation totals with
    `begin_op` / `end_op`."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.spans: list[tuple] = []  # (op, name, start_ns, end_ns, parent)
        self.dropped = 0
        self.op = -1
        self._stack: list[list] = []  # open: [span index, start, child ns, name, parent]
        self._active: set = set()
        self._patched: list[tuple] = []  # (module, attribute, original)

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod, fn_name in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn_name)
            wrapper = self._wrap(f"{mod}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        calls, active = self.calls, self._active
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                if name in active:
                    yield from fn(*args, **kwargs)
                    return
                frame = self._open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(frame)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name in active:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        self._active.add(name)
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        frame = [index, time.perf_counter_ns(), 0, name, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        index, start, child_ns, name, parent = frame
        if self._stack and self._stack[-1] is frame:
            self._stack.pop()
        else:  # a generator closed out of call order
            self._stack.remove(frame)
        self._active.discard(name)
        duration = end - start
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (self.op, name, start, end, parent)

    # -- per-operation totals ------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.calls.clear()
        self.self_ns.clear()

    def end_op(self) -> tuple[dict, dict]:
        """(calls, self time in ms) of the operation just run."""
        return dict(self.calls), {k: v / 1e6 for k, v in self.self_ns.items()}

    def dump(self, path) -> None:
        """Write kept spans as tab-separated lines; parent -1 is a root."""
        with open(path, "w") as f:
            f.write(f"# spans kept {sum(s is not None for s in self.spans)}, dropped {self.dropped}\n")
            f.write("span\top\tname\tstart_ns\tend_ns\tparent\n")
            for i, s in enumerate(self.spans):
                if s is not None:
                    f.write(f"{i}\t{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]}\n")
