"""In-memory spans and a stack sampler for the traced benchmark run.

Both measure the program from outside: spans wrap the benchmark's own
calls into each layer, and the sampler attributes host time to the
innermost ``src/repro/<package>`` frame on the main thread's stack.
cProfile was rejected because it costs 3.5-5x wall and distorts the
shares between packages; sampler and spans together cost 2-9%
(``bench.trace_overhead_pct``).
"""

from __future__ import annotations

import collections
import contextlib
import os
import sys
import threading
import time
import typing

#: packages reported as ``<pkg>.self_pct``; every other frame inside
#: ``src/repro`` and every sample with no repro frame counts as "other"
PACKAGES = ("kernel", "tlm", "power", "rtl", "ec", "soc", "link",
            "fabric", "faults", "chaos", "experiments")

#: seconds between stack samples; the interpreter's switch interval
#: (5 ms by default) bounds the rate actually reached
SAMPLE_INTERVAL_S = 0.001

_NULL = contextlib.nullcontext()


class Tracer:
    """Records ``[name, start_ns, end_ns, parent, job]`` spans.

    A disabled tracer hands out one shared null context, so the
    untraced run executes the same benchmark code at near-zero cost.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: typing.List[list] = []
        self.job: typing.Optional[int] = None
        self._open: typing.List[int] = []

    def span(self, name: str) -> typing.ContextManager:
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str) -> typing.Iterator[None]:
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter_ns(), None, parent, self.job]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def total_ms(self, name: str) -> float:
        """Summed duration of every closed span called *name*."""
        return sum(end - start for span_name, start, end, _, _
                   in self.spans if span_name == name) / 1e6

    def summary(self) -> typing.Dict[str, dict]:
        """Per span name: count, total and self time (total minus the
        time covered by direct children)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: typing.Dict[str, dict] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"count": 0, "total_ms": 0.0,
                                          "self_ms": 0.0})
            entry["count"] += 1
            entry["total_ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[index]) / 1e6
        return out


class StackSampler:
    """Daemon thread sampling the calling thread's stack.

    Each sample is charged to the package of the innermost frame whose
    file lies under *repro_dir*.  The sampler must win the GIL from the
    busy main thread, hence the bound on its rate.
    """

    def __init__(self, repro_dir: str) -> None:
        self.prefix = os.path.join(os.path.abspath(repro_dir), "")
        self.counts: typing.Counter[str] = collections.Counter()
        self._target = threading.get_ident()
        self._package_of: typing.Dict[str, typing.Optional[str]] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread()

    def __enter__(self) -> "StackSampler":
        """Start sampling; a sampler may be entered again after exit."""
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        args=(self._stop,), daemon=True,
                                        name="bench-sampler")
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self, stop: threading.Event) -> None:
        while not stop.wait(SAMPLE_INTERVAL_S):
            frame = sys._current_frames().get(self._target)
            if frame is not None:
                self.counts[self._attribute(frame)] += 1

    def _attribute(self, frame) -> str:
        while frame is not None:
            filename = frame.f_code.co_filename
            package = self._package_of.get(filename, "")
            if package == "":
                package = self._classify(filename)
                self._package_of[filename] = package
            if package is not None:
                return package
            frame = frame.f_back
        return "other"

    def _classify(self, filename: str) -> typing.Optional[str]:
        """The package of a repro file ("other" outside PACKAGES), or
        None for a frame outside ``src/repro``."""
        if not filename.startswith(self.prefix):
            return None
        head, sep, _ = filename[len(self.prefix):].partition(os.sep)
        return head if sep and head in PACKAGES else "other"

    def shares_pct(self) -> typing.Dict[str, float]:
        """Self-time share per package, summing to 100 (all zero when
        no sample was taken)."""
        total = sum(self.counts.values())
        return {name: (100.0 * self.counts[name] / total if total
                       else 0.0)
                for name in PACKAGES + ("other",)}
