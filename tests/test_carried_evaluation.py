"""The carry of a fresh evaluation changes no result.

A `PNorm` state built by a fresh evaluation hands r = x - shift and <r, r>
to the next segment from it.  Every run here is made twice, once through
the `PNorm` and once through a wrapper that delegates value, gradient and
segment but has no evaluate, so its segments form r from x; the two runs
must agree bit for bit.  Each projected step forms its `Step` once, and
the search's first segment takes that very step over.  The instances are
those of `families.pnorm_instances`, which the large suite of
tests/sweep.py also runs.
"""

import pytest

from projgrad import PNorm, ProblemInstance, SolverConfig, solve, solver

from families import pnorm_instances


class Uncarried:
    """Delegates to an objective everything but evaluate, so a solve through
    it evaluates without a carry and every segment forms r from x."""

    def __init__(self, obj):
        self.obj = obj
        self.dim = obj.dim

    def value(self, x):
        return self.obj.value(x)

    def gradient(self, x):
        return self.obj.gradient(x)

    def segment(self, at, step):
        return self.obj.segment(at, step)


@pytest.mark.parametrize("strategy", ["b", "c", "A2"])
@pytest.mark.parametrize("beta", [1.0, 4.0])  # at beta = 4 the searches backtrack
def test_carried_evaluation_equals_a_fresh_one(strategy, beta):
    cfg = SolverConfig(max_outer_iters=40, beta=beta)
    for p, name, inst in pnorm_instances(2000, (1.5, 4.0)):
        obj, base = inst.objective, inst.feasible_set
        before = (dict(vars(obj)), dict(vars(base)))
        carried = solve(inst, cfg, strategy)
        after = (vars(obj), vars(base))
        for old, new in zip(before, after):
            assert new.keys() == old.keys() and all(new[k] is v for k, v in old.items()), (p, name)
        fresh = solve(ProblemInstance(objective=Uncarried(obj), feasible_set=base, x0=inst.x0), cfg, strategy)
        assert carried.iterations > 1, (p, name)
        assert (carried.status, carried.iterations, carried.inner_trials) == (
            fresh.status, fresh.iterations, fresh.inner_trials
        ), (p, name)
        assert carried.final_x.tobytes() == fresh.final_x.tobytes(), (p, name)


@pytest.mark.parametrize("strategy", ["b", "c", "A2"])
def test_first_segment_takes_the_preludes_step(strategy, monkeypatch):
    # the prelude's Step is the one object the first trial's segment reads,
    # from a point that hands over the carry of a fresh evaluation
    events = []
    prelude, segment = solver._prelude, PNorm.segment

    def recorded_prelude(*args, **kwargs):
        out = prelude(*args, **kwargs)
        events.append(("prelude", out[0]))
        return out

    def recorded_segment(self, at, step):
        events.append(("segment", at, step))
        return segment(self, at, step)

    monkeypatch.setattr(solver, "_prelude", recorded_prelude)
    monkeypatch.setattr(PNorm, "segment", recorded_segment)
    for p, name, inst in pnorm_instances(200, (1.5, 4.0)):
        events.clear()
        rep = solve(inst, SolverConfig(max_outer_iters=10, beta=4.0), strategy)
        firsts = [(now[1], then) for now, then in zip(events, events[1:]) if now[0] == "prelude"]
        # a step whose search fails or that stops after its search counts no iteration
        assert len(firsts) >= rep.iterations > 1, (p, name)
        for step, (kind, at, received) in firsts:
            assert kind == "segment" and received is step, (p, name)
            # every state of b and A2 is a fresh evaluation; c's first one is
            assert at.carry is not None or (strategy == "c" and step is not firsts[0][0]), (p, name)
