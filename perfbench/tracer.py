"""Spans around qotsim's layer boundaries, recorded from outside the package.

The tracer replaces each instrumented function with a timing wrapper at
every place it can be reached from: the defining module and every
``qotsim*`` module that imported it by name, plus class attributes for
methods.  Spans (name, start, end, parent) are kept in flat arrays in memory
and written out once, after the traced pass.  A span's self time is its
duration minus the time covered by its direct children.

An instrumentation target that does not exist in the package under test is
recorded as absent; its rows are reported as zero and listed by name, so the
benchmark keeps running while the package is restructured.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Protocol phases whose calls make up ``protocol.phases_per_session``.
PHASES = (
    "phase1_transmit",
    "phase2_challenge",
    "announce_bases",
    "removal_phase",
    "select_subsets",
    "mask_bits",
    "decode",
)


def _len(value) -> int:
    return int(np.asarray(value).shape[0])


def _session_status(result) -> str | None:
    status = getattr(result, "status", None)
    return getattr(status, "value", None)


# (span name, module, attribute, counter name, counter from (args, kwargs, result))
# Functions are wrapped at every qotsim module that holds them by name.
FUNCTIONS = [
    ("channel.transmit_batch", "channel", "transmit_batch",
     "photons", lambda a, k, r: _len(a[0] if a else k["bits"])),
    ("params.validate_params", "params", "validate_params", None, None),
    ("params.build_bound_report", "params", "build_bound_report", None, None),
    ("protocol.run_protocol", "protocol", "run_protocol", None, None),
    *[(f"protocol.{name}", "protocol", name, None, None) for name in PHASES],
    ("adversary.run_with_adversary", "adversary", "run_with_adversary", None, None),
    ("adversary.postpone_bob", "adversary", "postpone_bob", None, None),
    ("adversary.commit_cheat_trials", "adversary", "commit_cheat_trials",
     "trials", lambda a, k, r: int(a[2] if len(a) > 2 else k["trials"])),
    ("harness.run_experiment", "harness", "run_experiment", None, None),
    ("harness.check_bounds", "harness", "check_bounds", None, None),
    ("harness.emit_report", "harness", "emit_report",
     "bytes", lambda a, k, r: len(r.encode("utf-8"))),
    ("harness.exact_failure_oracle", "harness", "exact_failure_oracle", None, None),
    ("harness.brute_force_failure_probability", "harness",
     "brute_force_failure_probability",
     "outcomes", lambda a, k, r: 2 ** int((a[0] if a else k["params"]).N)),
    ("harness.privacy_independence_test", "harness", "privacy_independence_test",
     None, None),
    ("harness.chi2_contingency", "harness", "chi2_contingency", None, None),
]

# (span name, module, class, method, counter name, counter)
METHODS = [
    ("channel.stream", "channel", "RandomSource", "stream", None, None),
    ("channel.bits", "channel", "RandomSource", "bits", None, None),
    ("commitment.commit_many", "commitment", "CommitmentSession", "commit_many",
     "items", lambda a, k, r: _len(a[1] if len(a) > 1 else k["values"])),
    ("commitment.unveil_many", "commitment", "CommitmentSession", "unveil_many",
     "items", lambda a, k, r: _len(a[1] if len(a) > 1 else k["cids"])),
]

# Spans whose result is a protocol session outcome with a ``status``.
SESSION_SPANS = ("protocol.run_protocol", "adversary.postpone_bob")

LAYERS = ("channel", "commitment", "params", "protocol", "adversary", "harness")
# Every span name, grouped by layer (the module it wraps).
SPANS = sorted(
    [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]
    + ["channel.generator_init", "protocol.build_family"],
    key=lambda name: LAYERS.index(name.partition(".")[0]),
)
# span name -> the work counter recorded with it
COUNTERS = {f[0]: f[3] for f in FUNCTIONS if f[3]} | {m[0]: m[4] for m in METHODS if m[4]}

class Tracer:
    """Installs timing wrappers into a loaded ``qotsim`` and records spans."""

    def __init__(self, package: str = "qotsim"):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self.sessions: dict[str, int] = {}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, counter: str | None = None, count=None):
        """Timing wrapper for `fn`; `count(args, kwargs, result)` feeds `counter`."""
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        counters, sessions = self.counters, self.sessions
        key = f"{name}.{counter}" if counter else None
        is_session = name in SESSION_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if key is not None:
                counters[key] = counters.get(key, 0) + count(args, kwargs, result)
            if is_session:
                status = _session_status(result)
                sessions[status] = sessions.get(status, 0) + 1
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at every import site inside the package."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None
            and (key == self.package or key.startswith(self.package + "."))
        ]
        for name, module, attr, counter, count in FUNCTIONS:
            home = sys.modules.get(f"{self.package}.{module}")
            original = getattr(home, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, counter, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

        for name, module, cls_name, method, counter, count in METHODS:
            cls = getattr(sys.modules.get(f"{self.package}.{module}"), cls_name, None)
            if cls is None or method not in vars(cls):
                self.absent.append(name)
                continue
            self._set(cls, method, self.wrap(name, vars(cls)[method], counter, count))

        self._install_generator_init()
        self._install_build_family()

    def _install_generator_init(self) -> None:
        """One span per lazily built ``Generator`` (first ``.gen`` access)."""
        cls = getattr(sys.modules.get(f"{self.package}.channel"), "RandomSource", None)
        prop = vars(cls).get("gen") if cls is not None else None
        if not isinstance(prop, property) or "_gen" not in getattr(cls, "__slots__", ()):
            self.absent.append("channel.generator_init")
            return
        build = self.wrap("channel.generator_init", prop.fget)
        fget = prop.fget

        def gen(self_):
            if self_._gen is None:
                return build(self_)
            return fget(self_)

        self._set(cls, "gen", property(gen, doc=prop.__doc__))

    def _install_build_family(self) -> None:
        """``build_family`` on every Bob class that defines its own."""
        base = getattr(sys.modules.get(f"{self.package}.protocol"), "HonestBob", None)
        if base is None:
            self.absent.append("protocol.build_family")
            return
        seen, todo = [], [base]
        while todo:
            cls = todo.pop()
            if cls not in seen:
                seen.append(cls)
                todo.extend(cls.__subclasses__())
        wrapped = [cls for cls in seen if "build_family" in vars(cls)]
        for cls in wrapped:
            self._set(cls, "build_family",
                      self.wrap("protocol.build_family", vars(cls)["build_family"]))
        if not wrapped:
            self.absent.append("protocol.build_family")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, self time and inclusive time; plus the
        root spans' total."""
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        rows = {}
        for nid, name in enumerate(self.names):
            mask = spans["name"] == nid
            rows[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_time[mask].sum()),
                "total_s": float(dur[mask].sum()),
            }
        return {
            "rows": rows,
            "spans": int(dur.shape[0]),
            "root_s": float(dur[~has_parent].sum()),
            "self_s": float(self_time.sum()),
        }

    def write(self, path) -> None:
        """Write every span and the name table as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
