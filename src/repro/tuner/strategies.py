"""Search strategies: how to spend a simulation budget on a space.

Two strategies behind one :class:`Strategy` interface, both
deterministic:

* :class:`GridSearch` — the exhaustive grid: every valid point at one
  fidelity (``ecfault sweep``), the reference the budgeted search is
  measured against.
* :class:`SuccessiveHalving` — the multi-fidelity screen-and-promote
  loop (``ecfault tune``): evaluate every configuration cheaply (few
  objects), keep the top ``1/eta`` per rung, re-evaluate survivors at
  the next fidelity, until the final rung runs at full fidelity.

Both stop cleanly when the budget cannot pay for their next batch,
returning what they measured so far; the budget is a hard ceiling,
never overdrawn.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

from .evaluator import BudgetExhaustedError, Evaluator, Fidelity, Measurement
from .space import TuningSpace

__all__ = [
    "Strategy",
    "GridSearch",
    "SuccessiveHalving",
]


class Strategy:
    """One budgeted search policy over a tuning space."""

    name = "strategy"

    def search(self, space: TuningSpace, evaluator: Evaluator) -> List[Measurement]:
        """Run the search; returns fresh+cached measurements in use order."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """The settings that decide what the search measures (stored in
        tuning reports, so a resume can refuse different ones)."""
        raise NotImplementedError


class GridSearch(Strategy):
    """Every valid point of the space, in grid order, at one fidelity.

    The grid is one batch, admitted or refused whole by the budget, so
    it either measures every point or none.
    """

    name = "grid"

    def __init__(self, fidelity: Fidelity):
        self.fidelity = fidelity

    def search(self, space: TuningSpace, evaluator: Evaluator) -> List[Measurement]:
        try:
            return evaluator.evaluate_many(space.enumerate(), self.fidelity)
        except BudgetExhaustedError:
            return []

    def describe(self) -> Dict[str, Any]:
        return {"fidelity": self.fidelity.to_dict()}


class SuccessiveHalving(Strategy):
    """Multi-fidelity screening: evaluate broadly, promote the top 1/eta.

    ``fidelities`` is the rung ladder, cheapest first; rung 0 evaluates
    the whole (constraint-filtered) grid, and the final rung is the
    full-fidelity measurement the recommendation is made at.  Each rung
    ranks its points by recovery time, ties broken by signature.
    """

    name = "halving"

    def __init__(self, fidelities: Sequence[Fidelity], eta: int = 4):
        if not fidelities:
            raise ValueError("need at least one fidelity rung")
        costs = [fidelity.cost for fidelity in fidelities]
        if costs != sorted(costs):
            raise ValueError("fidelities must be ordered cheapest first")
        if eta < 2:
            raise ValueError("eta must be >= 2")
        self.fidelities = tuple(fidelities)
        self.eta = eta

    def search(self, space: TuningSpace, evaluator: Evaluator) -> List[Measurement]:
        survivors = space.enumerate()
        measured: List[Measurement] = []
        for rung, fidelity in enumerate(self.fidelities):
            if not evaluator.affords(
                len(survivors)
                - sum(
                    1 for p in survivors
                    if evaluator.cached(p, fidelity) is not None
                ),
                fidelity,
            ):
                break
            rung_results = evaluator.evaluate_many(survivors, fidelity)
            measured.extend(rung_results)
            if rung == len(self.fidelities) - 1:
                break
            keep = max(1, math.ceil(len(survivors) / self.eta))
            ranked = sorted(
                rung_results, key=lambda m: (m.recovery_time, m.signature)
            )[:keep]
            by_signature = {
                m.signature: p for p, m in zip(survivors, rung_results)
            }
            survivors = [by_signature[m.signature] for m in ranked]
        return measured

    def describe(self) -> Dict[str, Any]:
        return {
            "rungs": [fidelity.to_dict() for fidelity in self.fidelities],
            "eta": self.eta,
        }
