"""The balance check of the peeled graph and of the sides growth splits off.

Peeling leaves the 2-core of a connected graph, which is connected, so it
goes to growth whole.  Growth splits it at supply super nodes that are cut
vertices of the condensation, articulation supplies among them (see
:func:`~radialflow.forward_engine.split_at_cut`), and checks each side's
balance as :func:`islander` checks the peeled graph's.
"""

from __future__ import annotations

import math

from .exceptions import InfeasibleSplit
from .network_model import balance_tolerance


def islander(injections: dict[int, float], floor: float = 0.0) -> None:
    """Check that the peeled graph's injections balance within at least ``floor``.

    Raises:
        InfeasibleSplit: If they do not, which indicates corrupt input
            rather than a property of valid networks.
    """
    _check_balance(injections, floor)


def _check_balance(inj: dict[int, float], floor: float = 0.0,
                   total: float | None = None) -> None:
    """Raise unless the injections, summing to ``total`` if given, balance.

    The tolerance, a sum over every injection, is taken only past ``floor``.
    The error names the piece by its smallest node id.
    """
    if total is None:
        total = math.fsum(inj.values())
    if abs(total) > floor and abs(total) > balance_tolerance(inj.values()):
        raise InfeasibleSplit(
            f"the subproblem of node {min(inj)} has injections summing to "
            f"{total!r}, expected zero")
