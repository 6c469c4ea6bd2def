"""Command-line entry point.

Subcommands:
  run    -- execute a scenario (built-in name or JSON file), check verdicts,
            run the invariant scan, optionally write trace and ledger files
  wallet -- interactive wallet session on top of a scenario world
  scan   -- run the invariant scanner over a previously written trace file
  list   -- show the built-in scenarios

Exit codes: 0 pass, 1 verdict or invariant failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence, TextIO

from .agents import WalletAgent
from .invariants import UnreadableRecord, scan_trace
from .simnet import SimError
from .scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    ScenarioSpec,
    builtin_scenario,
    execute_step,
    load_scenario_file,
    parse_step,
    run_scenario,
)


def _load_spec(ref: str) -> ScenarioSpec:
    if ref in BUILTIN_SCENARIOS:
        return builtin_scenario(ref)
    return load_scenario_file(ref)


def _cmd_run(args: argparse.Namespace, out: TextIO) -> int:
    spec = _load_spec(args.scenario)
    result = run_scenario(spec, seed=args.seed, max_ticks=args.max_ticks)
    for step in result.steps:
        flag = "PASS" if step.ok else "FAIL"
        out.write(f"[{step.index + 1:>2}] {step.op:<20} {step.verdict:<34} expected {step.expect:<28} {flag}\n")
    if result.world.timed_out:
        out.write("TIMEOUT: tick budget exceeded before quiescence\n")
    for violation in result.violations:
        out.write(f"INVARIANT VIOLATION seq={violation['seq']} {violation['invariant']}: {violation['detail']}\n")
    if not result.violations:
        out.write("invariants: single-live-credential, counter-monotonicity, pin-secrecy all hold\n")
    registry = result.world.registry
    for what, path, write in (("trace", args.trace, result.write_trace), ("ledger", args.ledger_out, registry.write_ledger)):
        if path:
            try:
                write(path)
            except OSError as exc:
                out.write(f"cannot write {path}: {exc.strerror or exc}\n")
                return 2
            out.write(f"{what} written to {path}\n")
    if result.ok:
        out.write(f"scenario {spec.name}: PASS\n")
        return 0
    divergence = result.divergence
    if divergence is not None:
        out.write(
            f"scenario {spec.name}: FAIL at step {divergence.index + 1} "
            f"({divergence.op}): got {divergence.verdict}, expected {divergence.expect}\n"
        )
    else:
        out.write(f"scenario {spec.name}: FAIL\n")
    return 1


def _cmd_scan(args: argparse.Namespace, out: TextIO) -> int:
    records, linenos = [], []
    try:
        with open(args.trace, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.decode("utf-8")
                if line.strip():
                    records.append(json.loads(line))
                    linenos.append(lineno)
        violations = scan_trace(records)
    except json.JSONDecodeError as exc:
        out.write(f"{args.trace}:{lineno}: invalid JSON: {exc.msg}\n")
        return 2
    except UnicodeDecodeError:
        out.write(f"{args.trace}:{lineno}: not UTF-8\n")
        return 2
    except UnreadableRecord as exc:
        out.write(f"{args.trace}:{linenos[exc.args[0]]}: unreadable record: {exc.args[1]}\n")
        return 2
    except OSError as exc:
        out.write(f"cannot read {args.trace}: {exc}\n")
        return 2
    for violation in violations:
        out.write(f"seq={violation['seq']} {violation['invariant']}: {violation['detail']}\n")
    out.write(f"{len(records)} records scanned, {len(violations)} violation(s)\n")
    return 1 if violations else 0


def _cmd_list(args: argparse.Namespace, out: TextIO) -> int:
    for name, data in BUILTIN_SCENARIOS.items():
        out.write(f"{name:<20} {len(data['script'])} steps, seed {data['seed']}\n")
    return 0


# Each REPL command that runs a script step: (op, the argument the session's
# wallet fills, the positional arguments in order).
STEP_COMMANDS = {
    "claim": ("claim_new", "wallet", ("tid", "pin")),
    "claim-used": ("claim_used", "wallet", ("tid",)),
    "sell": ("sell", "seller", ("buyer", "product")),
    "transfer": ("transfer", "seller", ("product",)),
    "connect": ("connect", "a", ("b",)),
}


def _usage(command: str) -> str:
    return " ".join([command, *(f"<{name}>" for name in STEP_COMMANDS[command][2])])


class WalletRepl:
    """Interactive wallet driving the scheduler one command at a time."""

    COMMANDS = " | ".join(["inbox", "credentials", *map(_usage, STEP_COMMANDS), "state", "quit"])

    def __init__(self, agent_id: str, spec: ScenarioSpec, seed: Optional[int]):
        self.result = run_scenario(spec, seed=seed)
        self.spec = self.result.spec
        self.world = self.result.world
        self.cast = self.result.cast
        if agent_id not in self.cast:
            raise ScenarioError("wallet", f"agent {agent_id!r} is not in the scenario cast")
        self.agent = self.cast[agent_id]
        if not isinstance(self.agent, WalletAgent):
            raise ScenarioError("wallet", f"agent {agent_id!r} is not a wallet")

    def run(self, stdin: TextIO, out: TextIO) -> int:
        out.write(f"wallet session for {self.agent.agent_id} ({self.agent.did})\n")
        out.write(f"commands: {self.COMMANDS}\n")
        while True:
            out.write(f"{self.agent.agent_id}> ")
            out.flush()
            line = stdin.readline()
            if not line:
                break
            words = line.split()
            if not words:
                continue
            command, rest = words[0], words[1:]
            if command in ("quit", "exit"):
                break
            try:
                self._dispatch(command, rest, out)
            except (ScenarioError, KeyError) as exc:
                out.write(f"error: {exc}\n")
        return 0

    def _step(self, command: str, rest: list[str], out: TextIO) -> None:
        op, own, names = STEP_COMMANDS[command]
        if len(rest) != len(names):
            out.write(f"error: usage: {_usage(command)}\n")
            return
        args = {own: self.agent.agent_id, **dict(zip(names, rest))}
        step = parse_step({"op": op, "expect": "-", **args}, op, self.spec)
        verdict = execute_step(self.world, self.cast, self.spec, step)
        out.write(f"{op}: {verdict}\n")

    def _dispatch(self, command: str, rest: list[str], out: TextIO) -> None:
        if command in STEP_COMMANDS:
            self._step(command, rest, out)
        elif command == "inbox":
            if not self.agent.inbox:
                out.write("(empty)\n")
            for message in self.agent.inbox:
                fields = " ".join(f"{k}={v}" for k, v in sorted(message.fields.items()))
                out.write(f"{message.subject}: {fields}\n")
        elif command == "credentials":
            if not self.agent.credentials:
                out.write("(none)\n")
            for code, vc in self.agent.credentials.items():
                status = "REVOKED" if self.world.registry.is_revoked(vc.credential_id) else "valid"
                out.write(f"{vc.credential_id} product={code} [{status}]\n")
        elif command == "state":
            out.write(json.dumps(self.agent.state_dump(), indent=2, sort_keys=True) + "\n")
        elif command == "help":
            out.write(self.COMMANDS + "\n")
        else:
            out.write(f"unknown command {command!r}\n")


def _cmd_wallet(args: argparse.Namespace, out: TextIO, stdin: TextIO) -> int:
    spec = _load_spec(args.scenario)
    repl = WalletRepl(args.agent, spec, args.seed)
    return repl.run(stdin, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handover",
        description="Deterministic simulator for credential-based IoT ownership transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and check its expected verdicts")
    run_p.add_argument("scenario", help="built-in scenario name or path to a scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--trace", default=None, help="write the event trace (newline-delimited JSON)")
    run_p.add_argument("--ledger-out", default=None, help="write the registry ledger (newline-delimited JSON)")
    run_p.add_argument("--max-ticks", type=int, default=None, help="deliver no event after this tick and fail the run")

    wallet_p = sub.add_parser("wallet", help="interactive wallet on top of a scenario world")
    wallet_p.add_argument("agent", help="wallet agent id from the scenario cast")
    wallet_p.add_argument("--scenario", default="sale-only", help="setup scenario (default: sale-only)")
    wallet_p.add_argument("--seed", type=int, default=None)

    scan_p = sub.add_parser("scan", help="run the invariant scanner over a trace file")
    scan_p.add_argument("trace", help="trace file produced by `run --trace`")

    sub.add_parser("list", help="list built-in scenarios")
    return parser


def main(argv: Optional[Sequence[str]] = None, out: TextIO = sys.stdout, stdin: TextIO = sys.stdin) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "wallet":
            return _cmd_wallet(args, out, stdin)
        if args.command == "scan":
            return _cmd_scan(args, out)
        if args.command == "list":
            return _cmd_list(args, out)
    except (ScenarioError, SimError) as exc:
        out.write(f"scenario error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
