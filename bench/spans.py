"""Span tracing of flashtrack's public entry points, from outside the program.

`Tracer.install` replaces each traced function with a wrapper on every
flashtrack module attribute that holds it (a module that imported the
function by name holds its own reference), and on the class for
methods. Each call records one span: name, start, end, parent span,
whether it raised, and the first argument when it is an integer (the
word length for code-book builds). Spans stay in memory in flat arrays
until `save` writes them out; `summary` turns them into the per-layer
figures.
"""

from __future__ import annotations

import sys
import time
import weakref
from array import array

import numpy as np

# layer -> list of (span name, owner "module" or "module:Class", attribute)
TARGETS = {
    "codebook": [
        ("codebook.generate_robust_codebook", "flashtrack.codebook", "generate_robust_codebook"),
        ("codebook.generate_initial_codebook", "flashtrack.codebook", "generate_initial_codebook"),
        ("codebook.necklace_count", "flashtrack.codebook", "necklace_count"),
    ],
    "codec": [
        ("codec.push", "flashtrack.codec:StreamDecoder", "push"),
        ("codec.indel_distance", "flashtrack.codec", "indel_distance"),
        ("codec.assign_ids", "flashtrack.codec", "assign_ids"),
        ("codec.lock_on_display", "flashtrack.codec", "lock_on_display"),
    ],
    "signal": [
        ("signal.associate", "flashtrack.signal", "associate"),
        ("signal.intensity_push", "flashtrack.signal:IntensityBitizer", "push"),
        ("signal.hue_push", "flashtrack.signal:HueBitizer", "push"),
    ],
    "channel": [
        ("channel.apply_heartbeat", "flashtrack.channel", "apply_heartbeat"),
        ("channel.heartbeat_expired", "flashtrack.channel", "heartbeat_expired"),
        ("channel.local_time", "flashtrack.channel:ClockModel", "local_time"),
        ("channel.bit_at_local", "flashtrack.channel:EmitterState", "bit_at_local"),
    ],
    "pose": [
        ("pose.solve_pnp", "flashtrack.pose", "solve_pnp"),
        ("pose.project", "flashtrack.pose", "project"),
        ("pose.pose_error", "flashtrack.pose", "pose_error"),
    ],
    "scenario": [
        ("scenario.from_dict", "flashtrack.scenario:ScenarioConfig", "from_dict"),
        ("scenario.run", "flashtrack.scenario", "run"),
        ("scenario.interpolate_pose", "flashtrack.scenario", "interpolate_pose"),
        ("scenario.to_json", "flashtrack.scenario:ScenarioReport", "to_json"),
    ],
    "cli": [
        ("cli.main", "flashtrack.cli", "main"),
    ],
}

BITIZERS = ("signal.intensity_push", "signal.hue_push")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.arg = array("q")
        self.active = False
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        # pushes each bitizer took before its first non-empty emission
        self._held: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.held: list[int] = []

    def _wrap(self, span_name: str, fn):
        idx = len(self.names)
        self.names.append(span_name)
        tracer = self
        bitizer = span_name in BITIZERS

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = len(tracer.start)
            tracer.name.append(idx)
            tracer.parent.append(tracer._stack[-1])
            tracer.raised.append(0)
            first = args[0] if args else None
            tracer.arg.append(first if type(first) is int else -1)
            tracer.end.append(0.0)
            tracer._stack.append(i)
            tracer.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[i] = 1
                raise
            finally:
                tracer.end[i] = time.perf_counter()
                tracer._stack.pop()
            if bitizer:
                tracer._note_bitizer(args[0], out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        return wrapper

    def _note_bitizer(self, bitizer, emitted) -> None:
        count = self._held.get(bitizer, 0)
        if count < 0:
            return
        if emitted:
            self.held.append(count)
            self._held[bitizer] = -1
        else:
            self._held[bitizer] = count + 1

    def install(self) -> None:
        """Wrap every target on every flashtrack module attribute holding it."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "flashtrack" and m]
        for targets in TARGETS.values():
            for span_name, owner_path, attr in targets:
                module_name, _, cls_name = owner_path.partition(":")
                if cls_name:
                    cls = getattr(sys.modules[module_name], cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(span_name, raw.__func__))
                    else:
                        wrapped = self._wrap(span_name, raw)
                    self._restore.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)
                    continue
                fn = getattr(sys.modules[module_name], attr)
                wrapped = self._wrap(span_name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, key, fn))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "arg": np.frombuffer(self.arg, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self, rounds: int, setup_spans: int, necklaces) -> dict[str, float]:
        """Per-layer figures for one traced set-up plus one traced round.

        The first `setup_spans` spans come from one set-up; the rest are
        averaged over `rounds` traced rounds. Times are seconds inside
        the named spans; a `self` time is the span minus the time its
        direct child spans cover. `necklaces` maps a word length to its
        class count (for classes_per_s). Percentiles pool every span.
        """
        a = self.arrays()
        span_names = np.array(self.names + [""])[a["name"]]
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        weight = np.full(len(dur), 1.0 / max(rounds, 1))
        weight[:setup_spans] = 1.0

        def pick(*span):
            return np.isin(span_names, span)

        def total(*span, times=dur):
            sel = pick(*span)
            return float((times[sel] * weight[sel]).sum())

        def calls(*span):
            return float(weight[pick(*span)].sum())

        def pct_ms(span, q, minimum):
            d = dur[pick(span)]
            return float(np.percentile(d, q) * 1e3) if len(d) >= minimum else 0.0

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        robust = pick("codebook.generate_robust_codebook")
        robust_s = total("codebook.generate_robust_codebook")
        classes = float(sum(w * necklaces(int(n)) for n, w in zip(a["arg"][robust], weight[robust])))
        push_calls, push_s = calls("codec.push"), total("codec.push")
        bitizer_calls, bitizer_s = calls(*BITIZERS), total(*BITIZERS)
        channel = [s for s, _, _ in TARGETS["channel"]]
        return {
            "codebook.robust_s": robust_s,
            "codebook.initial_s": total("codebook.generate_initial_codebook"),
            "codebook.classes_per_s": rate(classes, robust_s),
            "cli.self_s": total("cli.main", times=self_time),
            "codec.push_calls": push_calls,
            "codec.push_s": push_s,
            "codec.bits_per_s": rate(push_calls, push_s),
            "codec.indel_distance_calls": calls("codec.indel_distance"),
            "codec.indel_distance_s": total("codec.indel_distance"),
            "signal.associate_calls": calls("signal.associate"),
            "signal.associate_s": total("signal.associate"),
            "signal.associate_ms_p50": pct_ms("signal.associate", 50, 1),
            "signal.bitizer_push_calls": bitizer_calls,
            "signal.bitizer_s": bitizer_s,
            "signal.bitizer_samples_per_s": rate(bitizer_calls, bitizer_s),
            "signal.bitizer_held": float(np.mean(self.held)) if self.held else 0.0,
            "channel.calls": calls(*channel),
            "channel.s": total(*channel),
            "pose.solve_pnp_calls": calls("pose.solve_pnp"),
            "pose.solve_pnp_s": total("pose.solve_pnp"),
            "pose.solve_pnp_ms_p50": pct_ms("pose.solve_pnp", 50, 1),
            "pose.solve_pnp_ms_p90": pct_ms("pose.solve_pnp", 90, 100),
            "pose.degenerate": float((a["raised"] * weight)[pick("pose.solve_pnp")].sum()),
            "pose.project_calls": calls("pose.project"),
            "pose.project_s": total("pose.project"),
            "scenario.from_dict_s": total("scenario.from_dict"),
            "scenario.run_self_s": total("scenario.run", times=self_time),
            "scenario.interpolate_pose_s": total("scenario.interpolate_pose"),
            "scenario.to_json_s": total("scenario.to_json"),
            "trace.spans": float(weight.sum()),
        }
