"""The simulator's one-second loop, kept as the reference that the
next-event engine must reproduce report for report.

`PerSecondEngine` runs every simulated second through the same steps as
`spotindex.simulator._Engine`, shares its state transitions, and differs only
in how time advances and how a context reads the market: it never skips a
second, it re-derives the BSP lockstep rule from scratch for every task in
every second, and it computes every context's market by the scalar path,
never from the epoch table.
"""

from spotindex.errors import SimulationError
from spotindex.policies import PolicyDecision, build_policy
from spotindex.simulator import (
    DONE,
    MIGRATING,
    RESTARTING,
    WORKING,
    RunParams,
    _Engine,
    log,
)


class PerSecondEngine(_Engine):
    def _market(self, t):
        return self._scalar_market(t)

    def _unfinished(self):
        return [task for task in self.tasks if task.state != DONE]

    def _works_this_second(self, task) -> bool:
        if task.state != WORKING:
            return False
        if self.bsp:
            unfinished = self._unfinished()
            if any(peer.state in (MIGRATING, RESTARTING) for peer in unfinished):
                return False
            min_work = min(peer.work for peer in unfinished)
            if task.work > min_work:
                return False
        return True

    def run(self):
        job = self.job
        total_work = job.total_work
        limit = self.params.max_wallclock or (10 * total_work + 86400)
        forced_queue = list(self.forced)

        for task in self.tasks:
            vm = self._acquire(task, 0, reason="initial")
            self._open_hold(task, vm, 0, True)

        t = 0
        while any(task.state != DONE for task in self.tasks):
            if t > limit:
                raise SimulationError(f"no convergence after {limit} simulated seconds")

            # stall completions scheduled for this instant
            for task in self.tasks:
                if task.state == MIGRATING and task.stall_until == t:
                    self._finish_migration(task, t)
                elif task.state == RESTARTING and task.stall_until == t:
                    task.state = WORKING

            # revocation checks against the prices now in force
            for task in self.tasks:
                if task.state == DONE:
                    continue
                if task.state == MIGRATING:
                    if self._crossed(task.vm, t):
                        self._abort_migration(task, t, cause="src_price")
                        self._revoke(task, t)
                    elif self._crossed(task.mig_dst, t):
                        self._abort_migration(task, t, cause="dst_price")
                elif self._crossed(task.vm, t):
                    self._revoke(task, t)

            # externally scripted migrations
            while forced_queue and forced_queue[0][0] == t:
                _, idx, target = forced_queue.pop(0)
                task = self.tasks[idx]
                if task.state != WORKING:
                    raise SimulationError(
                        f"forced migration at t={t}: task {idx} is {task.state}"
                    )
                if target not in self.candidate_ids:
                    raise SimulationError(f"forced migration target {target!r} not a candidate")
                if self._crossed(target, t):
                    raise SimulationError(
                        f"forced migration target {target!r} is above max price "
                        f"or on the cap at t={t}"
                    )
                if target == task.vm:
                    log.warning("forced migration at t=%d targets the held vm, skipped", t)
                    continue
                self._start_migration(task, t, target, reason="forced", forced=True)

            # policy decision tick
            if t > 0 and t % self.params.epoch == 0:
                decisions = []
                for task in self.tasks:
                    if task.state != WORKING or not self._works_this_second(task):
                        continue
                    decision = self._ask(self.policy.decide, t, task, task.vm)
                    decisions.append((task, decision))
                for task, decision in decisions:
                    if decision.action != PolicyDecision.MIGRATE:
                        continue
                    if decision.target == task.vm:
                        continue
                    if decision.target not in self.candidate_ids:
                        raise SimulationError(
                            f"policy chose non-candidate {decision.target!r} at t={t}"
                        )
                    self._start_migration(
                        task, t, decision.target, reason=decision.reason, forced=False
                    )

            # advance one second; every task sees the gang's work as the
            # second started
            any_down = False
            live = self._unfinished()
            flags = [self._works_this_second(task) for task in live]
            for task, works in zip(live, flags):
                self._set_flags(task, t, works)
                if works:
                    task.work += 1
                else:
                    any_down = True
            if any_down:
                self.downtime += 1

            t += 1
            for task in self.tasks:
                if task.state != DONE and task.work >= total_work:
                    for vm in list(task.holds):
                        self._close_hold(task, vm, t)
                    task.state = DONE
                    task.done_at = t
                    self.events.append({"event": "finish", "t": t, "task": task.idx})

        return self._report(max(task.done_at for task in self.tasks))


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
