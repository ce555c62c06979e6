"""In-memory spans around calls into the package's public functions.

The tracer replaces each named function, in its defining module and in every
``omegapower`` module that imported it by name, with a wrapper that times the
call.  The package's own code is untouched on disk; the suites and deciders
reach the wrappers through the module globals they already use.

Workloads make millions of calls (``E-dual-characterization`` alone makes
1.6M), so per-call spans are folded as they close into one record per
function: the call count, every call's duration (an ``array`` of doubles, for
exact percentiles), the time spent in traced children, and the number of
calls that raised.  Coarse spans (a suite run, a pass) are kept whole.
"""

import array
import importlib
import inspect
import sys
import time

PACKAGE = "omegapower"
clock = time.perf_counter


class FunctionStats:
    __slots__ = ("durations", "child_s", "raised")

    def __init__(self):
        self.durations = array.array("d")
        self.child_s = 0.0
        self.raised = 0

    @property
    def calls(self):
        return len(self.durations)

    @property
    def busy_s(self):
        return sum(self.durations)


def percentile(values, q):
    """Nearest-rank percentile (0 < q <= 100) of a sequence; 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Wraps functions named ``module.function`` inside ``omegapower``.

    ``top_s`` accumulates the time of outermost traced calls, so a span's
    self time is its duration minus ``top_s`` accrued inside it."""

    def __init__(self, names):
        self.names = tuple(names)
        self.stats = {name: FunctionStats() for name in self.names}
        self.spans = []
        self.top_s = 0.0
        self._stack = []
        self._saved = []

    def __enter__(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name in self.names:
            mod_name, fn_name = name.rsplit(".", 1)
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name)
            wrapper = self._wrap(self.stats[name], original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _close(self, stat, frame, elapsed):
        stack = self._stack
        stack.pop()
        stat.child_s += frame[0]
        if stack:
            stack[-1][0] += elapsed
        else:
            self.top_s += elapsed

    def _wrap(self, stat, fn):
        stack = self._stack
        record = stat.durations.append
        close = self._close

        if inspect.isgeneratorfunction(fn):
            # A generator works while it is advanced, so time every next()
            # and record the whole instance as one call when it finishes.
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                total = 0.0
                try:
                    while True:
                        frame = [0.0]
                        stack.append(frame)
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        except BaseException:
                            stat.raised += 1
                            raise
                        finally:
                            elapsed = clock() - t0
                            total += elapsed
                            close(stat, frame, elapsed)
                        yield item
                finally:
                    record(total)

            return traced_gen

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = clock() - t0
                record(elapsed)
                close(stat, frame, elapsed)

        return traced

    def span(self, name, start, end):
        self.spans.append({"name": name, "start": start, "end": end})

    def table(self):
        """Per-function summary: calls, busy and self seconds, p50/p99 in us."""
        out = {}
        for name, stat in self.stats.items():
            durations = stat.durations
            busy = stat.busy_s
            out[name] = {
                "calls": stat.calls,
                "busy_s": busy,
                "self_s": busy - stat.child_s,
                "p50_us": percentile(durations, 50) * 1e6,
                "p99_us": percentile(durations, 99) * 1e6,
                "raised": stat.raised,
            }
        return out
