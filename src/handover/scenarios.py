"""Declarative scenario runner: casts agents, executes scripted steps, checks
expected verdicts, and runs the global invariant scan over the trace.

Every step yields exactly one verdict string, so scripts can assert rejects as
easily as successes.  ``connect`` and ``offline`` yield ``ok``.  Every other
step runs to quiescence and is judged on one list: the verdicts of the step's
ssi/https deliveries to agents (not to the mediator), in trace order.
``online`` yields the first ``rejected:`` entry, so that a queued message
refused on delivery shows, or ``ok``.  Any other step yields ``no-decision``
for an empty list.  A protocol step yields the first entry that is not
``accepted``, or ``accepted``.  An attack step (``replay``, ``tamper``,
``spoof``) yields ``all-rejected`` when every entry is a rejection or dead
letter and it injected more than one message, the last entry when it injected
one, and ``accepted-<op>`` otherwise.  The built-ins cover the honest
lifecycles and the stock attacks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from . import simnet
from .agents import (
    FORGERY_MODES,
    AdversaryWallet,
    Agent,
    AgentActionError,
    DistributorAgent,
    ManufacturerAgent,
    WalletAgent,
    establish_connection,
)
from .encoding import canonical_json
from .invariants import scan_trace
from .messages import KIND_FIELDS, PIN, MessagePayload, PayloadError, payload
from .simnet import World

# Each op's arguments: an agent of a cast role (any agent, a wallet incl.
# adversaries, an adversary, or the distributor, also the default) or a value
# type (the checks below).  "?": the argument may be left out; no other is taken.
STEP_OPS: dict[str, dict[str, str]] = {
    "connect": {"a": "agent", "b": "agent"},
    "record_sale": {"distributor": "distributor", "buyer": "agent", "product": "str"},
    "claim_new": {"wallet": "wallet", "product": "str?", "tid": "str?", "pin": "pin?"},
    "sell": {"seller": "wallet", "buyer": "agent", "product": "str"},
    "transfer": {"seller": "wallet", "product": "str"},
    "claim_used": {"wallet": "wallet", "tid": "str?"},
    "offline": {"agent": "agent"},
    "online": {"agent": "agent"},
    "replay": {"seq": "seq?"},
    "tamper": {"seq": "seq?", "byte_index": "int?", "mask": "mask?"},
    "spoof": {
        "a": "agent?",
        "recipient": "agent",
        "forged_sender": "str?",
        "knows_endpoint_key": "bool?",
        "message": "message?",
    },
    "adversary_transfer": {"adversary": "adversary", "product": "str", "mode": "forgery mode?"},
}
_VALUE_CHECKS = {
    "str": lambda value: isinstance(value, str),
    "pin": PIN.admits,
    "int": lambda value: type(value) is int,
    "mask": lambda value: type(value) is int and 1 <= value <= 255,  # XORed into the byte, so never a no-op
    "forgery mode": lambda value: value in FORGERY_MODES,
    "bool": lambda value: isinstance(value, bool),
    "seq": lambda value: type(value) is int or value in ("all-ssi", "last-ssi"),
    "message": lambda value: isinstance(value, dict),
}
ATTACK_OPS = ("replay", "tamper", "spoof")


class ScenarioError(Exception):
    """Scenario file is malformed; the message starts with the offending part's location."""

    def __init__(self, location: str, problem: str):
        super().__init__(f"{location}: {problem}")


@dataclass(frozen=True)
class ScenarioStep:
    op: str
    args: dict
    expect: str


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    seed: int
    manufacturer: str
    distributor: Optional[str]
    wallets: tuple[str, ...]
    adversaries: tuple[str, ...]
    products: tuple[str, ...]
    script: tuple[ScenarioStep, ...]

    @cached_property
    def roles(self) -> dict[str, set[str]]:
        """The cast's names each agent role of ``STEP_OPS`` admits; built on first use, not per step."""
        wallets = {*self.wallets, *self.adversaries}
        agents = {self.manufacturer, self.distributor, *wallets} - {None}
        return {"agent": agents, "wallet": wallets, "adversary": set(self.adversaries), "distributor": {self.distributor}}


@dataclass
class StepResult:
    index: int
    op: str
    verdict: str
    expect: str

    @property
    def ok(self) -> bool:
        return self.verdict == self.expect


@dataclass
class ScenarioResult:
    spec: ScenarioSpec
    world: World
    cast: dict[str, Agent]
    steps: list[StepResult] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)

    @property
    def divergence(self) -> Optional[StepResult]:
        return next((s for s in self.steps if not s.ok), None)

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.violations and not self.world.timed_out

    def trace_lines(self) -> list[str]:
        return [canonical_json(rec) for rec in self.world.trace]

    def write_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.trace_lines():
                fh.write(line + "\n")


# -- parsing -----------------------------------------------------------------


def _require(data: dict, key: str, kinds, location: str):
    if key not in data:
        raise ScenarioError(location, f"missing required key {key!r}")
    value = data[key]
    if not isinstance(value, kinds):
        raise ScenarioError(f"{location}.{key}", f"expected {kinds}, got {type(value).__name__}")
    return value


def parse_scenario(data: dict) -> ScenarioSpec:
    if not isinstance(data, dict):
        raise ScenarioError("scenario", "top level must be an object")
    name = _require(data, "name", str, "scenario")
    seed = _require(data, "seed", int, "scenario")
    cast = _require(data, "cast", dict, "scenario")
    manufacturer = _require(cast, "manufacturer", str, "cast")
    distributor = cast.get("distributor")
    if distributor is not None and not isinstance(distributor, str):
        raise ScenarioError("cast.distributor", "expected a string")
    wallets = tuple(_require(cast, "wallets", list, "cast"))
    adversaries = tuple(_require(cast, "adversaries", list, "cast") if "adversaries" in cast else ())
    if not all(isinstance(agent_name, str) for agent_name in wallets + adversaries):
        raise ScenarioError("cast", "agent names must be strings")
    products = tuple(_require(data, "products", list, "scenario"))
    if not all(isinstance(code, str) for code in products):
        raise ScenarioError("scenario.products", "product codes must be strings")
    declared = {manufacturer, distributor, *wallets, *adversaries} - {None}
    if len(declared) != (2 if distributor else 1) + len(wallets) + len(adversaries):
        raise ScenarioError("cast", "agent names must be unique")
    spec = ScenarioSpec(name, seed, manufacturer, distributor, wallets, adversaries, products, script=())
    raw_script = _require(data, "script", list, "scenario")
    return replace(spec, script=tuple(parse_step(raw, f"script[{i}]", spec) for i, raw in enumerate(raw_script)))


def parse_step(raw: object, location: str, spec: ScenarioSpec) -> ScenarioStep:
    """Check one script step: a known op, only its own arguments, each of its type or in ``spec``'s cast."""
    if not isinstance(raw, dict):
        raise ScenarioError(location, "step must be an object")
    op = _require(raw, "op", str, location)
    if op not in STEP_OPS:
        raise ScenarioError(location, f"unknown op {op!r}")
    expect = _require(raw, "expect", str, location)
    args = {k: v for k, v in raw.items() if k not in ("op", "expect")}
    unknown = sorted(set(args) - set(STEP_OPS[op]))
    if unknown:
        raise ScenarioError(f"{location}.{unknown[0]}", f"{op} takes no argument {unknown[0]!r}")
    for key, kind in STEP_OPS[op].items():
        if key not in args and kind.endswith("?"):
            continue
        kind = kind.rstrip("?")
        value = args.get(key, spec.distributor if kind == "distributor" else None)
        if kind in spec.roles:
            if not isinstance(value, str) or value not in spec.roles[kind]:
                raise ScenarioError(f"{location}.{key}", f"{value!r} is not in the cast as {kind}")
        elif not _VALUE_CHECKS[kind](value):
            raise ScenarioError(f"{location}.{key}", f"expected a {kind}, got {value!r}")
    if op == "connect" and args["a"] == args["b"]:
        raise ScenarioError(f"{location}.b", f"{args['b']!r} cannot connect to itself")
    if op == "spoof":
        if "a" in args and "forged_sender" in args:
            raise ScenarioError(f"{location}.forged_sender", "spoof takes a or forged_sender, not both")
        _spoof_payload(args.get("message", {}), f"{location}.message")
    return ScenarioStep(op=op, args=args, expect=expect)


def load_scenario_file(path: str) -> ScenarioSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(path, f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}", f"invalid JSON: {exc.msg}") from exc
    return parse_scenario(data)


def payload_from_json(kind: str, body: dict, location: str) -> MessagePayload:
    """Build a payload from scenario JSON, each field in its type's JSON form (bytes are hex strings)."""
    spec = KIND_FIELDS.get(kind)
    if spec is None:
        raise ScenarioError(location, f"unknown message kind {kind!r}")
    if any(ftype.from_json is None for _, ftype in spec):
        raise ScenarioError(location, f"{kind} carries a credential or presentation, which cannot be scripted")
    unknown = sorted(set(body) - {name for name, _ in spec})
    if unknown:
        raise ScenarioError(f"{location}.body.{unknown[0]}", f"{kind} has no field {unknown[0]!r}")
    try:
        return payload(kind, **{name: ftype.from_json(body.get(name)) for name, ftype in spec})
    except (PayloadError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
        raise ScenarioError(location, f"invalid {kind} body: {exc}") from exc


def _spoof_payload(message: dict, location: str) -> MessagePayload:
    kind, body = message.get("kind", "PINReq"), message.get("body", {"tid": "00" * 16})
    if not isinstance(kind, str) or not isinstance(body, dict):
        raise ScenarioError(location, "expected a string kind and an object body")
    return payload_from_json(kind, body, location)


# -- world construction ---------------------------------------------------------


def build_world(spec: ScenarioSpec, seed: Optional[int] = None) -> tuple[World, dict[str, Agent]]:
    world = World(seed if seed is not None else spec.seed)
    cast: dict[str, Agent] = {}
    manufacturer = ManufacturerAgent(spec.manufacturer, world)
    cast[spec.manufacturer] = manufacturer
    for code in spec.products:
        manufacturer.add_product(code)
    if spec.distributor:
        cast[spec.distributor] = DistributorAgent(spec.distributor, world)
    for name in spec.wallets:
        cast[name] = WalletAgent(name, world)
    for name in spec.adversaries:
        cast[name] = AdversaryWallet(name, world)
    return world, cast


# -- step execution ----------------------------------------------------------------


def _delivery_verdicts(world: World, mark: int) -> list[str]:
    """Verdicts of the ssi/https deliveries to agents (not the mediator) since ``mark``."""
    return [
        rec["verdict"]
        for rec in world.trace[mark:]
        if rec["channel"] in (simnet.CHANNEL_SSI, simnet.CHANNEL_HTTPS) and rec["to"] != simnet.MEDIATOR_ID
    ]


def _latest_email(wallet: WalletAgent, subject: str, product: Optional[str] = None) -> Optional[dict]:
    for message in reversed(wallet.inbox):
        if message.subject != subject:
            continue
        if product is not None and message.fields.get("productCode") != product:
            continue
        return message.fields
    return None


def execute_step(world: World, cast: dict[str, Agent], spec: ScenarioSpec, step: ScenarioStep) -> str:
    """Run one step to quiescence and return its verdict (rule in the module docstring)."""
    mark = len(world.trace)
    manufacturer = cast[spec.manufacturer]
    injections = 1
    try:
        if step.op == "connect":
            establish_connection(cast[step.args["a"]], cast[step.args["b"]])
            world.run_until_quiescent()
            return "ok"

        if step.op == "offline":
            world.set_online(step.args["agent"], False)
            return "ok"

        if step.op == "online":
            world.set_online(step.args["agent"], True)
            world.run_until_quiescent()
            return next((v for v in _delivery_verdicts(world, mark) if v.startswith("rejected:")), "ok")

        if step.op == "record_sale":
            distributor = cast[step.args.get("distributor", spec.distributor)]
            buyer = cast[step.args["buyer"]]
            distributor.record_sale(manufacturer.agent_id, step.args["product"], buyer.email)

        elif step.op == "claim_new":
            wallet = cast[step.args["wallet"]]
            product = step.args.get("product")
            tid = step.args.get("tid")
            pin = step.args.get("pin")
            if tid is None:
                fields = _latest_email(wallet, "tid", product)
                if fields is None:
                    return "rejected:no-tid-email"
                tid = fields["tid"]
                product = product or fields.get("productCode")
            if pin is None:
                fields = _latest_email(wallet, "pin", product)
                if fields is None:
                    return "rejected:no-pin-email"
                pin = fields["pin"]
            wallet.claim_new(manufacturer.did, tid, pin)

        elif step.op == "sell":
            seller = cast[step.args["seller"]]
            buyer = cast[step.args["buyer"]]
            seller.start_sell(buyer.did, step.args["product"])

        elif step.op == "transfer":
            seller = cast[step.args["seller"]]
            seller.start_transfer(manufacturer.did, step.args["product"])

        elif step.op == "claim_used":
            wallet = cast[step.args["wallet"]]
            tid = step.args.get("tid")
            if tid is None:
                tid = next(reversed(wallet.claiming), None)  # the wallet's latest purchase
                if tid is None:
                    return "rejected:no-purchase-data"
            wallet.claim_used(manufacturer.did, tid)

        elif step.op == "adversary_transfer":
            adversary = cast[step.args["adversary"]]
            adversary.craft_transfer_request(
                manufacturer.did, step.args["product"], step.args.get("mode", "self-issued")
            )

        elif step.op == "replay":
            seqs = _resolve_seqs(world, step.args.get("seq", "all-ssi"))
            for seq in seqs:
                world.replay(seq)
                world.run_until_quiescent()
            injections = len(seqs)

        elif step.op == "tamper":
            seqs = _resolve_seqs(world, step.args.get("seq", "last-ssi"))
            for seq in seqs:
                world.tamper(seq, step.args.get("byte_index", 7), step.args.get("mask", 0xA5))
                world.run_until_quiescent()
            injections = len(seqs)

        elif step.op == "spoof":
            forged = cast[step.args["a"]] if "a" in step.args else None
            forged_did = forged.did if forged else step.args.get("forged_sender", "did:handover:ghost")
            p = _spoof_payload(step.args.get("message", {}), "message")
            key_of = forged_did if step.args.get("knows_endpoint_key", True) else None
            world.spoof(step.args["recipient"], forged_did, p, key_of)

        else:
            raise ScenarioError(step.op, "unhandled op")  # unreachable: ops validated at parse time
    except AgentActionError:
        return "rejected:action-failed"
    world.run_until_quiescent()
    verdicts = _delivery_verdicts(world, mark)
    if not verdicts:
        return "no-decision"
    if step.op in ATTACK_OPS:
        if all(v.startswith(("rejected", "dead-letter")) for v in verdicts):
            return "all-rejected" if injections > 1 else verdicts[-1]
        return f"accepted-{step.op}"
    return next((v for v in verdicts if v != "accepted"), "accepted")


def _resolve_seqs(world: World, selector) -> list[int]:
    if selector == "all-ssi":
        return sorted(world.wire_log)
    if selector == "last-ssi":
        return [max(world.wire_log)] if world.wire_log else []
    return [selector]  # a seq, checked at parse time


def run_steps(
    world: World, cast: dict[str, Agent], spec: ScenarioSpec, start: int = 0, stop: Optional[int] = None
) -> list[StepResult]:
    """Execute ``spec.script[start:stop]``, each step followed by its ``step`` record, on a world built for ``spec``
    (or a copy of one taken at step ``start``); stops once the world has timed out."""
    steps = []
    for index, step in enumerate(spec.script[start:stop], start):
        if world.timed_out:
            break  # nothing is delivered past the budget, so a later verdict would mean nothing
        verdict = execute_step(world, cast, spec, step)
        steps.append(StepResult(index=index, op=step.op, verdict=verdict, expect=step.expect))
        meta = {"index": index, "op": step.op, "expect": step.expect}
        world.emit(channel=simnet.CHANNEL_CONTROL, kind="step", frm="-", to="-", verdict=verdict, meta=meta)
    return steps


def run_scenario(
    spec: ScenarioSpec, seed: Optional[int] = None, max_ticks: Optional[int] = None
) -> ScenarioResult:
    """Execute a whole scenario; the result carries verdicts, trace, and scan findings."""
    world, cast = build_world(spec, seed)
    if max_ticks is not None:
        world.max_ticks = max_ticks
    result = ScenarioResult(spec=spec, world=world, cast=cast, steps=run_steps(world, cast, spec))
    world.emit_state_dumps()
    result.violations = scan_trace(world.trace)
    return result


# -- built-in scenarios ------------------------------------------------------------

_LIFECYCLE_PREFIX = [
    {"op": "record_sale", "product": "PC-100", "buyer": "B1", "expect": "accepted"},
    {"op": "connect", "a": "B1", "b": "MF", "expect": "ok"},
    {"op": "claim_new", "wallet": "B1", "expect": "accepted"},
    {"op": "connect", "a": "B1", "b": "B2", "expect": "ok"},
    {"op": "sell", "seller": "B1", "buyer": "B2", "product": "PC-100", "expect": "accepted"},
    {"op": "connect", "a": "B2", "b": "MF", "expect": "ok"},
    {"op": "transfer", "seller": "B1", "product": "PC-100", "expect": "accepted"},
    {"op": "claim_used", "wallet": "B2", "expect": "accepted"},
]

BUILTIN_SCENARIOS: dict[str, dict] = {
    "new-purchase": {
        "name": "new-purchase",
        "seed": 11,
        "cast": {"manufacturer": "MF", "distributor": "DS", "wallets": ["B1"]},
        "products": ["PC-100"],
        "script": _LIFECYCLE_PREFIX[:3],
    },
    "full-lifecycle": {
        "name": "full-lifecycle",
        "seed": 17,
        "cast": {"manufacturer": "MF", "distributor": "DS", "wallets": ["B1", "B2"]},
        "products": ["PC-100"],
        "script": list(_LIFECYCLE_PREFIX),
    },
    "wrong-pin": {
        "name": "wrong-pin",
        "seed": 23,
        "cast": {"manufacturer": "MF", "distributor": "DS", "wallets": ["B1"]},
        "products": ["PC-100"],
        "script": _LIFECYCLE_PREFIX[:2]
        + [{"op": "claim_new", "wallet": "B1", "pin": "WRONGP1", "expect": "rejected:unknown-claim"}]
        + _LIFECYCLE_PREFIX[2:3],
    },
    "replay-attack": {
        "name": "replay-attack",
        "seed": 29,
        "cast": {"manufacturer": "MF", "distributor": "DS", "wallets": ["B1", "B2"]},
        "products": ["PC-100"],
        "script": list(_LIFECYCLE_PREFIX)
        + [{"op": "replay", "seq": "all-ssi", "expect": "all-rejected"}],
    },
    "duplicate-transfer": {
        "name": "duplicate-transfer",
        "seed": 31,
        "cast": {"manufacturer": "MF", "distributor": "DS", "wallets": ["B1", "B2"]},
        "products": ["PC-100"],
        "script": list(_LIFECYCLE_PREFIX[:7])
        + [{"op": "transfer", "seller": "B1", "product": "PC-100", "expect": "rejected:duplicate-transfer"}],
    },
    "spoof-attack": {
        "name": "spoof-attack",
        "seed": 37,
        "cast": {"manufacturer": "MF", "distributor": "DS", "wallets": ["B1"], "adversaries": ["EVE"]},
        "products": ["PC-100"],
        "script": _LIFECYCLE_PREFIX[:3]
        + [
            {"op": "connect", "a": "EVE", "b": "MF", "expect": "ok"},
            {
                "op": "adversary_transfer",
                "adversary": "EVE",
                "product": "PC-100",
                "mode": "self-issued",
                "expect": "rejected:wrong-issuer",
            },
            {
                "op": "adversary_transfer",
                "adversary": "EVE",
                "product": "PC-100",
                "mode": "unknown-creddef",
                "expect": "rejected:unknown-issuer",
            },
            {
                "op": "adversary_transfer",
                "adversary": "EVE",
                "product": "PC-100",
                "mode": "garbage",
                "expect": "rejected:bad-issuer-sig",
            },
            {
                "op": "spoof",
                "a": "B1",
                "recipient": "MF",
                "message": {"kind": "PINReq", "body": {"tid": "00112233445566778899aabbccddeeff"}},
                "expect": "rejected:bad-signature",
            },
        ],
    },
    "offline-claim": {
        "name": "offline-claim",
        "seed": 41,
        "cast": {"manufacturer": "MF", "distributor": "DS", "wallets": ["B1"]},
        "products": ["PC-100"],
        "script": _LIFECYCLE_PREFIX[:2]
        + [
            {"op": "offline", "agent": "B1", "expect": "ok"},
            {"op": "claim_new", "wallet": "B1", "expect": "accepted"},
            {"op": "online", "agent": "B1", "expect": "ok"},
        ],
    },
    "sale-only": {
        "name": "sale-only",
        "seed": 43,
        "cast": {"manufacturer": "MF", "distributor": "DS", "wallets": ["B1", "B2"]},
        "products": ["PC-100"],
        "script": _LIFECYCLE_PREFIX[:1],
    },
}


def builtin_scenario(name: str) -> ScenarioSpec:
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError("scenario", f"unknown built-in scenario {name!r}")
    return parse_scenario(BUILTIN_SCENARIOS[name])
