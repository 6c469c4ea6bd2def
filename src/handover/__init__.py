"""Deterministic protocol engine for credential-based ownership management and
transfer of consumer IoT devices.

Entities (manufacturer, distributor, wallets) run as state machines over a
simulated verifiable data registry and a mediator-routed encrypted transport;
an adversarial scheduler exercises replay, tamper, and spoof attacks against
the protocol's security properties.
"""
