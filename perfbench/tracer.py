"""In-memory spans around the calls into clipreg's layers.

``Tracer.installed()`` replaces each traced function in the namespace its
caller looks it up in (``clipreg.cli.decompose``, ``clipreg.decomposer.ascend``,
``RepNet.eval_batch`` on the class, ...) and restores the originals on exit.
Nothing inside clipreg changes.  The set-up layers (``config.load_config``,
``measure.build_quadrature``) are timed in fresh interpreters by
``setup_probe.py`` instead, where their cold cost shows.  Each span records
its name, start, end, the span that was open when it began (its parent) and
the operation it belongs to.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)


def _entry_iters(entries_per_restart: int, budget_arg: int):
    """Ascent work of one call: entries x (iterations + 1), read off its budget.

    `budget_arg` is the budget's position in the call; clipreg passes it
    positionally.  ``ascend`` runs both signs of each restart as two entries.
    """
    def count(args, kwargs):
        budget = args[budget_arg]
        return {"entry_iters": entries_per_restart * budget.restarts * (budget.iterations + 1)}
    return count


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._op = 0

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        s = Span(len(self.spans), name, time.perf_counter(), 0.0,
                 stack[-1].id if stack else None, self._op, attrs)
        self.spans.append(s)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def op(self, name: str, **attrs):
        """Root span of one benchmark operation; spans opened inside belong to it."""
        self._op += 1
        return self.span(name, **attrs)

    def _wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(count(args, kwargs) if count else {})):
                return fn(*args, **kwargs)
        return traced

    def _wrap_zoo(self, fn):
        """Trace zoo(); time the first values() call of each target it builds."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span("zoo.zoo"):
                oracle = fn(*args, **kwargs)
            first = oracle.values

            def values(quad):
                with tracer.span("zoo.target_eval"):
                    out = first(quad)
                del oracle.values  # later calls are cache hits: use the method
                return out

            oracle.values = values
            return oracle
        return traced

    @contextlib.contextmanager
    def installed(self):
        from clipreg import cli, decomposer, netcore

        patches = [
            (cli, "zoo", self._wrap_zoo(cli.zoo)),
            (cli, "decompose", self._wrap(cli.decompose, "decomposer.decompose")),
            (cli, "certify_split", self._wrap(cli.certify_split, "decomposer.certify_split")),
            (decomposer, "stage_solve",
             self._wrap(decomposer.stage_solve, "decomposer.stage_solve")),
            (decomposer, "ascend",
             self._wrap(decomposer.ascend, "adversary.stage_ascend", _entry_iters(2, 3))),
            (decomposer, "best_gain_element",
             self._wrap(decomposer.best_gain_element, "adversary.polish", _entry_iters(1, 3))),
            (decomposer, "invisibility_audit",
             self._wrap(decomposer.invisibility_audit, "adversary.audit", _entry_iters(2, 4))),
            (decomposer, "compose_parallel",
             self._wrap(decomposer.compose_parallel, "netcore.compose_parallel")),
            (netcore.RepNet, "eval_batch",
             self._wrap(netcore.RepNet.eval_batch, "netcore.eval_batch")),
        ]
        originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, fn in patches:
                setattr(obj, attr, fn)
            yield self
        finally:
            for obj, attr, fn in originals:
                setattr(obj, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list) -> dict:
    """Per span name: summed duration minus the part its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
    return out
