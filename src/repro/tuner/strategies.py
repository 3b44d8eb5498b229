"""Search strategies: how to spend a simulation budget on a space.

Four strategies behind one :class:`Strategy` interface, all seeded and
deterministic:

* :class:`GridSearch` — the exhaustive grid: every valid point at one
  fidelity (``ecfault sweep``), the reference the budgeted strategies
  are measured against.
* :class:`RandomSearch` — the classic strong baseline: distinct valid
  points sampled uniformly, each evaluated at one fidelity.
* :class:`CoordinateDescent` — hill climbing one axis at a time.  The
  coordinate order is not fixed: an initial screening sample is ranked
  with the sensitivity analysis's :func:`~repro.analysis.rank_axes`, so
  the climb works the highest-impact axis first (pg_num before cache
  scheme, per the paper's Fig 2).
* :class:`SuccessiveHalving` — the multi-fidelity screen-and-promote
  loop: evaluate many configurations cheaply (few objects), keep the
  top ``1/eta`` per rung, re-evaluate survivors at the next fidelity,
  until the final rung runs at full fidelity.

Every strategy stops cleanly on :class:`BudgetExhaustedError`, returning
what it measured so far; the budget is a hard ceiling, never overdrawn.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..analysis.sensitivity import rank_axes
from .evaluator import BudgetExhaustedError, Evaluator, Fidelity, Measurement
from .space import EC_AXIS, TuningSpace

__all__ = [
    "by_recovery_time",
    "Strategy",
    "GridSearch",
    "RandomSearch",
    "CoordinateDescent",
    "SuccessiveHalving",
]


def by_recovery_time(measurement: Measurement) -> float:
    """The default search objective: §4's headline metric."""
    return measurement.recovery_time


class Strategy:
    """One budgeted search policy over a tuning space."""

    name = "strategy"

    def __init__(self, objective: Callable[[Measurement], float] = by_recovery_time):
        self.objective = objective

    def search(
        self, space: TuningSpace, evaluator: Evaluator, seed: int
    ) -> List[Measurement]:
        """Run the search; returns fresh+cached measurements in use order."""
        raise NotImplementedError

    def _rank(self, measurements: Sequence[Measurement]) -> List[Measurement]:
        """Objective-ascending, signature-tiebroken (deterministic)."""
        return sorted(measurements, key=lambda m: (self.objective(m), m.signature))


class GridSearch(Strategy):
    """Every valid point of the space, in grid order, at one fidelity.

    The grid is one batch, admitted or refused whole by the budget, so
    it either measures every point or none.
    """

    name = "grid"

    def __init__(self, fidelity: Fidelity):
        super().__init__()
        self.fidelity = fidelity

    def search(
        self, space: TuningSpace, evaluator: Evaluator, seed: int
    ) -> List[Measurement]:
        try:
            return evaluator.evaluate_many(space.enumerate(), self.fidelity)
        except BudgetExhaustedError:
            return []


class RandomSearch(Strategy):
    """Seeded uniform sampling of distinct valid points."""

    name = "random"

    def __init__(
        self,
        samples: int,
        fidelity: Fidelity,
        objective: Callable[[Measurement], float] = by_recovery_time,
    ):
        super().__init__(objective)
        if samples < 1:
            raise ValueError("samples must be >= 1")
        self.samples = samples
        self.fidelity = fidelity

    def search(
        self, space: TuningSpace, evaluator: Evaluator, seed: int
    ) -> List[Measurement]:
        from ..sim.rng import SeedSequence

        rng = SeedSequence(seed).stream("tuner-random")
        count = min(self.samples, len(space.enumerate()))
        points = space.sample(rng, count)
        measured: List[Measurement] = []
        for point in points:
            try:
                measured.append(evaluator.evaluate(point, self.fidelity))
            except BudgetExhaustedError:
                break
        return measured


class CoordinateDescent(Strategy):
    """Axis-at-a-time hill climbing, highest-impact axis first.

    A screening sample seeds both the climb's starting point (its best
    member) and the coordinate order: the sample is fed through
    :func:`repro.analysis.rank_axes` and axes are climbed in descending
    impact order.  Each climb step evaluates every value of one axis
    with the other coordinates pinned, moves to the best, and the loop
    repeats for ``rounds`` passes or until a full pass improves nothing.
    """

    name = "coordinate"

    def __init__(
        self,
        fidelity: Fidelity,
        screen: int = 6,
        rounds: int = 2,
        objective: Callable[[Measurement], float] = by_recovery_time,
    ):
        super().__init__(objective)
        if screen < 2:
            raise ValueError("screen must be >= 2 (impact ranking needs contrast)")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.fidelity = fidelity
        self.screen = screen
        self.rounds = rounds

    def _axis_order(
        self, space: TuningSpace, screened: Sequence[Measurement]
    ) -> List[str]:
        """Axis names in descending recovery-time impact."""
        multi_valued = [axis.name for axis in space.axes if len(axis) > 1]
        if len(screened) < 2 or len(multi_valued) < 2:
            return multi_valued
        # rank_axes speaks sweep settings, where the EC axis appears as
        # the plugin name.
        rank_names = [
            "ec_plugin" if name == EC_AXIS else name for name in multi_valued
        ]
        rows = [m.to_sweep_result() for m in screened]
        ranked = rank_axes(rows, rank_names)
        order = ["ec" if impact.axis == "ec_plugin" else impact.axis
                 for impact in ranked]
        return order

    def search(
        self, space: TuningSpace, evaluator: Evaluator, seed: int
    ) -> List[Measurement]:
        from ..sim.rng import SeedSequence

        rng = SeedSequence(seed).stream("tuner-coordinate")
        measured: List[Measurement] = []
        try:
            screen_count = min(self.screen, len(space.enumerate()))
            for point in space.sample(rng, screen_count):
                measured.append(evaluator.evaluate(point, self.fidelity))
        except BudgetExhaustedError:
            return measured
        order = self._axis_order(space, measured)
        best = self._rank(measured)[0]
        current: Dict[str, Any] = {
            axis.name: best.settings[axis.name]
            if axis.name != EC_AXIS
            else (best.settings["ec_plugin"],
                  tuple(sorted(best.settings["ec_params"].items())))
            for axis in space.axes
        }
        axes_by_name = {axis.name: axis for axis in space.axes}
        try:
            for _ in range(self.rounds):
                improved = False
                for name in order:
                    candidates = []
                    for value in axes_by_name[name].values():
                        candidate = dict(current, **{name: value})
                        if space.is_valid(candidate):
                            candidates.append(candidate)
                    step = [
                        evaluator.evaluate(candidate, self.fidelity)
                        for candidate in candidates
                    ]
                    known = {m.signature for m in measured}
                    measured.extend(
                        m for m in step if m.signature not in known
                    )
                    winner = self._rank(step)[0]
                    if self.objective(winner) < self.objective(
                        evaluator.evaluate(current, self.fidelity)
                    ):
                        improved = True
                    current = next(
                        c for c, m in zip(candidates, step)
                        if m.signature == winner.signature
                    )
                if not improved:
                    break
        except BudgetExhaustedError:
            pass
        return measured


class SuccessiveHalving(Strategy):
    """Multi-fidelity screening: evaluate broadly, promote the top 1/eta.

    ``fidelities`` is the rung ladder, cheapest first; the final rung is
    the full-fidelity measurement the recommendation is made at.  With
    ``initial=None`` rung 0 evaluates the whole (constraint-filtered)
    grid; an integer samples that many distinct points instead.
    """

    name = "halving"

    def __init__(
        self,
        fidelities: Sequence[Fidelity],
        eta: int = 4,
        initial: Optional[int] = None,
        objective: Callable[[Measurement], float] = by_recovery_time,
    ):
        super().__init__(objective)
        if not fidelities:
            raise ValueError("need at least one fidelity rung")
        costs = [fidelity.cost for fidelity in fidelities]
        if costs != sorted(costs):
            raise ValueError("fidelities must be ordered cheapest first")
        if eta < 2:
            raise ValueError("eta must be >= 2")
        if initial is not None and initial < 1:
            raise ValueError("initial must be >= 1")
        self.fidelities = tuple(fidelities)
        self.eta = eta
        self.initial = initial

    def search(
        self, space: TuningSpace, evaluator: Evaluator, seed: int
    ) -> List[Measurement]:
        from ..sim.rng import SeedSequence

        if self.initial is None:
            survivors = space.enumerate()
        else:
            rng = SeedSequence(seed).stream("tuner-halving")
            count = min(self.initial, len(space.enumerate()))
            survivors = space.sample(rng, count)
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
            ranked = self._rank(rung_results)[:keep]
            keep_signatures = [m.signature for m in ranked]
            by_signature = {
                m.signature: p for p, m in zip(survivors, rung_results)
            }
            survivors = [by_signature[s] for s in keep_signatures]
        return measured
