"""Scenario generators for the benchmark workloads.

Each workload is a scenario built from the seed argument alone and handed to
the public ``parse_scenario``/``run_scenario`` API, so the engine receives
only the generated inputs.  One ownership lifecycle (sale, new claim, resale,
transfer, used claim) ends with exactly one ``claim_used`` step, which is how
:func:`lifecycle_count` counts completed work.
"""

from __future__ import annotations

import copy
import dataclasses

from handover.scenarios import BUILTIN_SCENARIOS, ScenarioSpec, builtin_scenario, parse_scenario

NAMES = ("lifecycle", "fleet", "attack")
FLEET_SIZE = 16  # at 32 a run takes 2 s: too few runs in one measurement for steady fastest step times


def lifecycle(seed: int) -> ScenarioSpec:
    """The built-in ``full-lifecycle``, re-seeded.

    Why: 4 agents and at most 3 connections per agent, so fixed per-message
    costs dominate (seal, sign/verify, hybrid encrypt/decrypt, the codec,
    issuance and verification) and trial decryption barely registers.  A
    key-id change should leave this workload flat; a key-object cache should
    show up here.
    """
    return dataclasses.replace(builtin_scenario("full-lifecycle"), seed=seed)


def fleet(seed: int, size: int = FLEET_SIZE) -> ScenarioSpec:
    """One manufacturer, one distributor, ``size`` products and 2 x ``size`` wallets.

    Why: each product runs the 8-step lifecycle in turn (A_i buys, claims and
    sells to B_i, B_i claims), so the manufacturer ends with 2 x ``size``
    connections and the trace holds ``size`` secrets.  Trial decryption in
    ``Agent._handle_ssi`` and the PIN-secrecy scan dominate, and later
    lifecycles pay for every earlier connection, so ``step_ms.p99`` shows the
    cost at full fleet size.
    """
    wallets: list[str] = []
    products: list[str] = []
    script: list[dict] = []
    for i in range(size):
        first, second, product = f"A{i:03d}", f"B{i:03d}", f"PC-{i:03d}"
        wallets += [first, second]
        products.append(product)
        script += [
            {"op": "record_sale", "product": product, "buyer": first, "expect": "accepted"},
            {"op": "connect", "a": first, "b": "MF", "expect": "ok"},
            {"op": "claim_new", "wallet": first, "product": product, "expect": "accepted"},
            {"op": "connect", "a": first, "b": second, "expect": "ok"},
            {"op": "sell", "seller": first, "buyer": second, "product": product, "expect": "accepted"},
            {"op": "connect", "a": second, "b": "MF", "expect": "ok"},
            {"op": "transfer", "seller": first, "product": product, "expect": "accepted"},
            {"op": "claim_used", "wallet": second, "expect": "accepted"},
        ]
    return parse_scenario(
        {
            "name": f"fleet-{size}",
            "seed": seed,
            "cast": {"manufacturer": "MF", "distributor": "DS", "wallets": wallets},
            "products": products,
            "script": script,
        }
    )


def attack(seed: int) -> ScenarioSpec:
    """``full-lifecycle`` with an adversary EVE, then every stock attack.

    Why: the same layers as ``lifecycle``, used to reject traffic instead of
    accepting it: mediator dead-letters, the replay guard after a full open and
    verify, trial decryption that runs through every key, and failed
    credential checks.  A change that speeds up acceptance by moving work onto
    rejection, or by reordering checks, shows up here, and so does bounding
    ``ReplayGuard``.
    """
    data = copy.deepcopy(BUILTIN_SCENARIOS["full-lifecycle"])
    data["name"] = "attack"
    data["seed"] = seed
    data["cast"]["adversaries"] = ["EVE"]
    forged_transfers = [
        ("self-issued", "rejected:wrong-issuer"),
        ("unknown-creddef", "rejected:unknown-issuer"),
        ("garbage", "rejected:bad-issuer-sig"),
    ]
    data["script"] += [
        {"op": "replay", "seq": "all-ssi", "expect": "all-rejected"},
        {"op": "tamper", "seq": "all-ssi", "expect": "all-rejected"},
        {"op": "connect", "a": "EVE", "b": "MF", "expect": "ok"},
        *(
            {"op": "adversary_transfer", "adversary": "EVE", "product": "PC-100", "mode": mode, "expect": expect}
            for mode, expect in forged_transfers
        ),
        {"op": "spoof", "a": "B2", "recipient": "MF", "knows_endpoint_key": True, "expect": "rejected:bad-signature"},
        {"op": "spoof", "a": "B2", "recipient": "MF", "knows_endpoint_key": False, "expect": "rejected:decrypt-error"},
    ]
    return parse_scenario(data)


def scenario(name: str, seed: int, fleet_size: int = FLEET_SIZE) -> ScenarioSpec:
    if name == "lifecycle":
        return lifecycle(seed)
    if name == "fleet":
        return fleet(seed, fleet_size)
    if name == "attack":
        return attack(seed)
    raise ValueError(f"unknown workload {name!r}")


def lifecycle_count(spec: ScenarioSpec) -> int:
    """Ownership lifecycles one run of ``spec`` completes."""
    return sum(step.op == "claim_used" for step in spec.script)
