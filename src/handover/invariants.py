"""Trace-level invariant scanner.

Works on any trace produced by a run: the trace carries registry events
(issuance, revocation, product updates), audit records (minted secrets and
final state dumps), the raw wire bytes of every routed message and the payload
bytes of every https message, which is everything the global checks need.
The PIN-secrecy check joins the wire bytes into one buffer and searches it once
per secret needle.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterable

from .encoding import canonical_json


def _violation(seq: int, invariant: str, detail: str) -> dict:
    return {"seq": seq, "invariant": invariant, "detail": detail}


class UnreadableRecord(ValueError):
    """``args``: the index of a record the scan cannot read in the scanned sequence, and why."""


def scan_trace(records: Iterable[dict]) -> list[dict]:
    """Return one violation dict per breached invariant, empty when clean; raise on an unreadable record."""
    violations: list[dict] = []
    live: dict[str, set[str]] = {}
    sold_counts: dict[str, int] = {}
    secrets: list[dict] = []
    dumps: dict[str, tuple[int, dict]] = {}
    wire_chunks: list[tuple[int, bytes]] = []

    for index, rec in enumerate(records):
        try:
            kind = rec.get("kind", "")
            meta = rec.get("meta", {})
            seq = rec.get("seq", -1)
            if kind == "vc-issued":
                holders = live.setdefault(meta["productCode"], set())
                holders.add(meta["credentialId"])
                if len(holders) > 1:
                    detail = f"{meta['productCode']} has {sorted(holders)} unrevoked"
                    violations.append(_violation(seq, "single-live-credential", detail))
            elif kind == "vc-revoked":
                live.get(meta["productCode"], set()).discard(meta["credentialId"])
            elif kind == "product-updated":
                code = meta["productCode"]
                new_count = meta["previouslySoldCount"]
                old_count = sold_counts.get(code, 0)
                if new_count < old_count:
                    detail = f"{code} previouslySoldCount {old_count} -> {new_count}"
                    violations.append(_violation(seq, "counter-monotonicity", detail))
                elif new_count > old_count and not (
                    new_count == old_count + 1 and meta.get("reason") == "transfer-committed"
                ):
                    detail = f"{code} count increased without a committed transfer"
                    violations.append(_violation(seq, "counter-monotonicity", detail))
                sold_counts[code] = max(old_count, new_count)
            elif kind == "secret-minted":
                meta["pin"].encode("ascii"), bytes.fromhex(meta["keyHex"])  # raise here, not in the scan below
                secrets.append({**meta, "seq": seq})
            elif kind == "state-dump":
                dumps[rec["from"]] = (seq, {**meta.get("state", {})})  # raises unless the state is an object
            if rec.get("channel") in ("ssi", "https") and "bytes" in meta:
                wire_chunks.append((seq, bytes.fromhex(meta["bytes"])))
            if rec.get("channel") == "oob-email" and "fields" in meta:
                wire_chunks.append((seq, canonical_json(meta["fields"]).encode("utf-8")))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise UnreadableRecord(index, f"{type(exc).__name__}: {exc}") from exc

    violations.extend(_scan_pin_secrecy(secrets, dumps, wire_chunks))
    return violations


def _scan_pin_secrecy(
    secrets: list[dict],
    dumps: dict[str, tuple[int, dict]],
    wire_chunks: list[tuple[int, bytes]],
) -> list[dict]:
    violations = []
    texts = [(agent_id, seq, state.get("role", ""), canonical_json(state)) for agent_id, (seq, state) in dumps.items()]
    wire = b"".join(chunk for _, chunk in wire_chunks)
    ends = list(accumulate(len(chunk) for _, chunk in wire_chunks))
    for secret in secrets:
        owner, key_hex, hit_chunks = secret.get("owner"), secret["keyHex"], set()
        for needle in (secret["pin"].encode("ascii"), bytes.fromhex(key_hex), key_hex.encode("ascii")):
            at = wire.find(needle)
            while 0 <= at < len(wire):  # an empty needle also matches at the end of the buffer
                i = bisect_right(ends, at)
                if at + len(needle) <= ends[i]:  # a match across two chunks is no leak
                    hit_chunks.add(i)
                at = wire.find(needle, at + 1)
        for i in sorted(hit_chunks):
            violations.append(_violation(wire_chunks[i][0], "pin-secrecy", f"secret of {owner} visible on the wire"))
        for agent_id, seq, role, text in texts:
            if agent_id == owner:
                continue  # the buyer legitimately holds its own PIN and key
            if secret["pin"] in text:
                violations.append(_violation(seq, "pin-secrecy", f"plaintext PIN of {owner} stored by {agent_id}"))
            # the manufacturer receives the key by design (used-product claim)
            if role != "manufacturer" and key_hex in text:
                violations.append(_violation(seq, "pin-secrecy", f"symmetric key of {owner} stored by {agent_id}"))
    return violations
