"""In-memory span tracer that wraps library functions from outside.

A function is wrapped at every module attribute that refers to it, so calls
made through ``from module import name`` are seen as well.  Each call records
a span (name, start, end, parent); spans stay in memory until the pass ends.
``uninstall`` puts every original attribute back.
"""

import functools
import inspect
import sys
import time
import tracemalloc
from typing import Callable, Dict, Iterable, List


class Tracer:
    def __init__(self, peak_names: Iterable[str] = ()):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # one row per span: [name id, start, end, parent index or -1]; a hook
        # runs after its span has closed, inside the parent's span
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self.hooks: Dict[str, Callable] = {}
        # names whose calls get a tracemalloc peak (they must not nest)
        self.peak_names = set(peak_names)
        self.peaks: Dict[str, float] = {}

    # --- wrapping -----------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records a span called ``name``."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack
        peak = name in self.peak_names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            if peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if peak:
                grown = tracemalloc.get_traced_memory()[1] - base
                self.peaks[name] = max(self.peaks.get(name, 0.0), grown / 2**20)
            hook = self.hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, fn: Callable, name: str, modules):
        """Replace ``fn`` at every module attribute bound to it."""
        wrapper = self.span(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str):
        self._patch(cls, attr, self.span(name, cls.__dict__[attr]))

    def wrap_public_functions(self, modules):
        """Wrap every public function defined in ``modules``, named ``module.function``."""
        modules = list(modules)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__ or hasattr(value, "__wrapped_by_tracer__"):
                    continue
                self.wrap_function(value, f"{short}.{attr}", modules)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- analysis -----------------------------------------------------------

    def durations(self):
        """(name ids, durations, self times, parent indices) as lists."""
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        selft = [d - c for d, c in zip(dur, child)]
        return [s[0] for s in self.spans], dur, selft, [s[3] for s in self.spans]

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        ids, dur, selft, _ = self.durations()
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in self.names}
        for nid, d, s in zip(ids, dur, selft):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total"] += d
            row["self"] += s
        return out

    def subtree_mismatch(self, root_name: str) -> float:
        """Largest |sum of self times in a subtree - root duration| / root duration
        over all spans called ``root_name``."""
        ids, dur, selft, parent = self.durations()
        rid = self._ids.get(root_name)
        sums = list(selft)
        # children always come after their parent, so fold from the back
        for i in range(len(sums) - 1, -1, -1):
            if parent[i] >= 0:
                sums[parent[i]] += sums[i]
        worst = 0.0
        for i, nid in enumerate(ids):
            if nid == rid and dur[i] > 0:
                worst = max(worst, abs(sums[i] - dur[i]) / dur[i])
        return worst

    def count_within(self, root_name: str, name: str) -> int:
        """Number of ``name`` spans that lie inside some ``root_name`` span."""
        rid, nid = self._ids.get(root_name), self._ids.get(name)
        inside = [False] * len(self.spans)
        count = 0
        for i, s in enumerate(self.spans):
            inside[i] = s[0] == rid or (s[3] >= 0 and inside[s[3]])
            if s[0] == nid and s[3] >= 0 and inside[s[3]]:
                count += 1
        return count


def library_modules(package) -> list:
    """The package's loaded modules whose public functions the traced run wraps.

    ``backend`` (the njit decorator) and ``cli`` (argument parsing) run only at
    import or start-up and are left alone.
    """
    prefix = package.__name__ + "."
    skip = {prefix + "backend", prefix + "cli"}
    return [m for n, m in sorted(sys.modules.items())
            if n.startswith(prefix) and n not in skip and m is not None]
