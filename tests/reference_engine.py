"""The simulator's one-second loop, kept as the reference that the
next-event engine must reproduce report for report.

`PerSecondEngine` is `spotindex.simulator._Engine` with the slow form of each
of the engine's six shortcuts, and nothing else:

- `_next_instant` returns t, so the loop never skips a second. It so
  also stands in for the two rules the engine's `_next_instant` skips by:
  the reference steps every epoch tick, those a decision table answers
  STAY among them, and checks every held VM's price every second, not only
  where it crosses over max_price or onto the cap;
- `_held_crossed` looks up a held VM's price at t (`_Engine._crossed`) in
  the step's revocation checks, instead of asking the engine's crossing
  cache whether the price crosses at t, so the oracle checks that cache's
  answer against a price lookup at every held VM's every second;
- `_move_at` asks `decide` for every working task at every epoch tick,
  instead of reading the policy's decision table;
- `_works_now` re-derives the BSP lockstep rule from the unfinished tasks
  for every task in every second, instead of reading the gang's low mark;
- `_context` builds every context directly, as a plain `PolicyContext`
  whose fields its own scalar code computes, over `window_stats` and
  `IndexCurve.window_mean`, never from the engine's one vectorized rule
  (`_market_block`) through `MarketBlock.context`, and leaves out the
  candidates over max_price or on the cap by a scalar rule of its own, not
  the engine's `_dropped`, so the oracle checks that rule, its view filter
  and the block's lazy reads against independent code. Like the engine's,
  it keeps no context from one call to the next. Where the market is
  undefined it raises at the first check that fails: the index at t, under
  "window" the index over t's window, then each candidate's price at t;
- `_ask` asks the policy for every task, instead of handing a task the last
  ask's answer when it asks with the same context.

Everything else, the per-second step (`_Engine._step`) but for its held
VMs' check, the work step and the finish, is the engine's own code, so the
equivalence oracle in tests/test_engine_equivalence.py checks the shortcuts
and cannot see the step's order or rules. Those are pinned by direct
tests, each run through both engines: the step order by `test_step_order_*`
there, the policy seam and scripted-move checks by the `test_policy_*` and
`test_forced_*` tests in tests/test_simulator.py.
"""

from spotindex.policies import CandidateView, PolicyContext, build_policy
from spotindex.prices import is_capped
from spotindex.simulator import DONE, WORKING, RunParams, _Engine, window_stats


class PerSecondEngine(_Engine):
    def _next_instant(self, t, flags, forced_queue, limit):
        return t

    def _works_now(self, task, low):
        if task.state != WORKING:
            return False
        if self.bsp:
            unfinished = [peer for peer in self.tasks if peer.state != DONE]
            if any(peer.state != WORKING for peer in unfinished):
                return False
            if task.work > min(peer.work for peer in unfinished):
                return False
        return True

    def _context(self, t, phase, current):
        index_now = self.curve.value_at(t)
        window = self.params.sigma_window
        if self.params.index_reference == "window":
            index_reference = self.curve.window_mean(t, window)
        else:
            index_reference = index_now
        views = []
        for spec in self.candidates:
            price = self._price(spec.id, t)
            if price > self.max_price:
                continue
            if self.params.treat_cap_as_revocation and is_capped(price, spec):
                continue
            views.append(CandidateView(spec, price, *window_stats(self.traces[spec.id], t, window)))
        return PolicyContext(
            t=t,
            candidates=tuple(views),
            cpu_used=phase.cpu,
            mem_used=phase.mem,
            index_now=index_now,
            index_reference=index_reference,
            horizon=self.params.horizon,
            migration_seconds=float(self.t_m),
            current=current,
        )

    def _held_crossed(self, vm, t):
        return self._crossed(vm, t)

    def _move_at(self, t, task):
        return self._asked_move(t, task)

    def _ask(self, ask, t, task, current):
        self._asked = None
        return super()._ask(ask, t, task, current)


def run_per_second(
    job,
    policy,
    traces,
    catalog,
    composition,
    params=None,
    scope=None,
    forced_migrations=None,
    seed=None,
):
    """`run_simulation`, on the one-second reference engine."""
    if isinstance(policy, str):
        policy = build_policy(policy)
    engine = PerSecondEngine(
        job,
        policy,
        traces,
        catalog,
        composition,
        params or RunParams(),
        scope,
        forced_migrations,
        seed,
    )
    return engine.run()
