"""Per-layer tracing of the engine from outside the program.

A :class:`Tracer` wraps public functions of each ``handover`` module, in every
module namespace that holds them (``agents`` imports ``seal``, ``generate_vc``
and ``verify_presentation`` by name; ``simnet`` imports ``seal`` and
``unseal_at_mediator``; ``scenarios``, ``invariants`` and ``registry`` import
``canonical_json``), and records one span per call.  Spans stay in memory with
a span id, a parent id, the repetition and the step index, and are written
out when the run ends.  Layers are named after the modules.
"""

from __future__ import annotations

import sys
import time
from array import array

from handover import agents, credential, crypto, encoding, invariants, messages, registry, scenarios, simnet


def _raises_only(result) -> bool:
    return False


# (span name, owner, attribute, failure test).  The owner is a module or the
# one class that defines the method.  A failure test marks which functions get
# a ``.failed`` metric; an exception always marks its span failed.
TARGETS = (
    ("crypto.generate_keypair", crypto, "generate_keypair", None),
    ("crypto.sign", crypto, "sign", None),
    ("crypto.verify", crypto, "verify", lambda ok: ok is False),
    ("crypto.asym_encrypt", crypto, "asym_encrypt", None),
    ("crypto.asym_decrypt", crypto, "asym_decrypt", _raises_only),
    ("encoding.encode", encoding, "encode", None),
    ("encoding.decode_value", encoding, "decode_value", _raises_only),
    ("encoding.canonical_json", encoding, "canonical_json", None),
    ("messages.seal", messages, "seal", _raises_only),
    ("messages.unseal_at_mediator", messages, "unseal_at_mediator", _raises_only),
    ("messages.open_inner", messages, "open_inner", _raises_only),
    ("messages.verify_inner", messages, "verify_inner", _raises_only),
    ("credential.generate_vc", credential, "generate_vc", None),
    ("credential.verify_presentation", credential, "verify_presentation", lambda report: not report.valid),
    ("credential.verify_credential_signature", credential, "verify_credential_signature", lambda r: not r[0]),
    ("registry.publish", registry.VerifiableDataRegistry, "publish", _raises_only),
    ("invariants.scan_trace", invariants, "scan_trace", None),
    ("simnet.run_until_quiescent", simnet.World, "run_until_quiescent", None),
    ("simnet.mediator.handle", simnet.Mediator, "handle", None),
    ("agents.deliver", agents.Agent, "deliver", None),
    ("agents.handle_payload", agents.Agent, "handle_payload", None),
    ("scenarios.run_scenario", scenarios, "run_scenario", None),
    ("scenarios.build_world", scenarios, "build_world", None),
    ("scenarios.execute_step", scenarios, "execute_step", None),
)

MODULES = ("crypto", "encoding", "messages", "credential", "registry", "invariants", "simnet", "agents", "scenarios")

# Counts measured where the work happens: (tally name, span name, amount).
TALLIES = (
    ("messages.sealed_bytes", "messages.seal", lambda args, result: len(result.outer_ciphertext)),
    ("invariants.records", "invariants.scan_trace", lambda args, result: len(args[0])),
)

STEP_SPAN = "scenarios.execute_step"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name, _, _, failure in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        if failure is not None:
            units[f"{name}.failed"] = "count"
    units["messages.open_inner.useful_ratio"] = "ratio"
    for module in MODULES:
        units[f"{module}.self_ms"] = "ms"
    for tally, _, _ in TALLIES:
        units[tally] = "bytes" if tally.endswith("_bytes") else "count"
    return units


class Tracer:
    """In-memory span store; one span per call of a wrapped function.

    Spans are recorded only between :meth:`begin_rep` and :meth:`end_rep`, so
    work the benchmark does between repetitions leaves no spans.  Counts
    (``calls``, ``failed``, tallies) are kept for repetition 0 only, which
    makes them repeat exactly at a fixed seed.
    """

    def __init__(self) -> None:
        self.names = [name for name, _, _, _ in TARGETS]
        self.span_name = array("H")
        self.parent = array("l")
        self.rep = array("l")
        self.step = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.tallies = {tally: 0 for tally, _, _ in TALLIES}
        self.reps = 0
        self._active = False
        self._rep = -1
        self._step = -1
        self._steps_begun = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        tallies = {span: (tally, amount) for tally, span, amount in TALLIES}
        package = [m for n, m in sys.modules.items() if n == "handover" or n.startswith("handover.")]
        for name_id, (name, owner, attribute, failure) in enumerate(TARGETS):
            original = getattr(owner, attribute)
            wrapper = self._wrap(name_id, original, failure, tallies.get(name), name == STEP_SPAN)
            holders = [owner] if isinstance(owner, type) else package
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def begin_rep(self) -> None:
        self._rep = self.reps
        self._steps_begun = 0
        self._active = True

    def end_rep(self) -> None:
        self._active = False
        self.reps += 1

    def _wrap(self, name_id, fn, failure, tally, marks_step):
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span = len(self.span_name)
            self.span_name.append(name_id)
            self.parent.append(self._stack[-1])
            self.rep.append(self._rep)
            if marks_step:
                self._step = self._steps_begun
                self._steps_begun += 1
            self.step.append(self._step)
            self.failed.append(0)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[span] = 1
                raise
            finally:
                self.end[span] = time.perf_counter()
                self._stack.pop()
                if marks_step:
                    self._step = -1
            if failure is not None and failure(result):
                self.failed[span] = 1
            if tally is not None and self._rep == 0:
                self.tallies[tally[0]] += tally[1](args, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Counts for repetition 0; times in ms as a mean per repetition."""
        count = len(self.span_name)
        duration = [end - start for start, end in zip(self.start, self.end)]
        covered = [0.0] * count
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += duration[span]
        calls = [0] * len(self.names)
        failed = [0] * len(self.names)
        total = [0.0] * len(self.names)
        module_self = dict.fromkeys(MODULES, 0.0)
        for span in range(count):
            name_id = self.span_name[span]
            total[name_id] += duration[span]
            module_self[self.names[name_id].split(".", 1)[0]] += duration[span] - covered[span]
            if self.rep[span] == 0:
                calls[name_id] += 1
                failed[name_id] += self.failed[span]
        per_rep_ms = 1000.0 / max(self.reps, 1)
        values: dict[str, float] = {}
        for name_id, (name, _, _, failure) in enumerate(TARGETS):
            values[f"{name}.calls"] = calls[name_id]
            values[f"{name}.ms"] = total[name_id] * per_rep_ms
            if failure is not None:
                values[f"{name}.failed"] = failed[name_id]
        opens = values["messages.open_inner.calls"]
        values["messages.open_inner.useful_ratio"] = (
            (opens - values["messages.open_inner.failed"]) / opens if opens else 0.0
        )
        for module in MODULES:
            values[f"{module}.self_ms"] = module_self[module] * per_rep_ms
        values.update(self.tallies)
        return values

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span; times in microseconds from the first span."""
        origin = self.start[0] if self.start else 0.0
        lines = ["span\tparent\trep\tstep\tname\tstart_us\tdur_us\tfailed"]
        for span in range(len(self.span_name)):
            lines.append(
                f"{span}\t{self.parent[span]}\t{self.rep[span]}\t{self.step[span]}\t"
                f"{self.names[self.span_name[span]]}\t{(self.start[span] - origin) * 1e6:.1f}\t"
                f"{(self.end[span] - self.start[span]) * 1e6:.1f}\t{self.failed[span]}"
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
