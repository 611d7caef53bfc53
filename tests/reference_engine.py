"""The simulator's one-second loop, kept as the reference that the
next-event engine must reproduce report for report.

`PerSecondEngine` is `spotindex.simulator._Engine` with the slow form of each
of the engine's three shortcuts, and nothing else:

- `_next_instant` returns t, so the loop never skips a second;
- `_works_now` re-derives the BSP lockstep rule from the unfinished tasks
  for every task in every second, instead of reading the gang's low mark;
- `_market` computes every context's market by its own scalar code, over
  `window_stats` and `IndexCurve.window_mean`, never by the engine's one
  vectorized rule (`_Engine._block`), and leaves out the candidates over
  max_price or on the cap by the scalar `_over`, so the oracle checks that
  rule and its view filter against independent code. Where the market is
  undefined it raises at the first check that fails: the index at t, under
  "window" the index over t's window, then each candidate's price at t.

Everything else, the per-second step (`_Engine._step`), the work step and
the finish, is the engine's own code, so the equivalence oracle in
tests/test_engine_equivalence.py checks the shortcuts and cannot see the
step's order or rules. Those are pinned by direct tests, each run through
both engines: the step order by `test_step_order_*` there, the policy seam
and scripted-move checks by the `test_policy_*` and `test_forced_*` tests in
tests/test_simulator.py.
"""

from spotindex.policies import CandidateView, build_policy
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

    def _market(self, t):
        index_now = self.curve.value_at(t)
        window = self.params.sigma_window
        if self.params.index_reference == "window":
            index_reference = self.curve.window_mean(t, window)
        else:
            index_reference = index_now
        views = []
        for spec in self.candidates:
            price = self._price(spec.id, t)
            if not self._over(spec.id, price):
                views.append(CandidateView(spec, price, *window_stats(self.traces[spec.id], t, window)))
        return tuple(views), index_now, index_reference


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
