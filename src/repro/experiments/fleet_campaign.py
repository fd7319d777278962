"""Fleet campaign: the batching planner as a first-class experiment.

The paper's fleet framing (many small devices under one harvesting
environment) maps onto the campaign planner directly: one
:class:`~repro.experiments.plan.CampaignJob` per (power scale, system)
grid point, planned into cohorts and executed through
:func:`~repro.experiments.plan.execute_plan`.  The figure of merit is
duty-cycle availability — Fixed's hardwired union bank starves at low
harvest while the reactive small (sense) mode degrades gracefully.

The plan's cohorts share one ``dt`` and no replay trace, so they run
as one launch.  A
batch splits out per-job payloads bit-identical to batches of one
(``shard_size=1``), which ``tests/test_plan.py`` pins.
"""

from __future__ import annotations

from typing import List

from repro.experiments.runner import ExperimentResult, print_result

#: Simulated seconds per campaign job (enough for every grid point to
#: reach its steady duty cycle; see the probe in docs/performance.md).
HORIZON = 300.0
#: Fixed timestep shared by every job — the cohort contract.
DT = 0.05
#: Harvest scale ladder endpoints (geometric, like the power sweep).
SCALE_MIN = 0.25
SCALE_MAX = 4.0


def _power_scales(scale: float) -> List[float]:
    """A geometric harvest-scale ladder, densified by *scale*."""
    count = max(2, int(round(5 * scale)))
    ratio = SCALE_MAX / SCALE_MIN
    return [
        round(SCALE_MIN * ratio ** (i / (count - 1)), 6) for i in range(count)
    ]


def declared_scenarios(seed: int, scale: float):
    """The declarative scenarios behind the campaign (registry hook:
    their canonical hash joins the experiment's cache key)."""
    from repro.apps import temp_alarm

    return [temp_alarm.scenario(seed=seed)]


def build_jobs(seed: int = 0, scale: float = 1.0):
    """The campaign: one vec job per (harvest scale, system) grid point."""
    from repro.apps.temp_alarm import MODE_SENSE, scenario
    from repro.experiments.plan import CampaignJob
    from repro.spec import canonical_json
    from repro.vec import FIXED_BANK_MODE

    scenario_json = canonical_json(scenario(seed=seed))
    jobs = []
    for power_scale in _power_scales(scale):
        for system, mode in (("Fixed", FIXED_BANK_MODE), ("CB-P", MODE_SENSE)):
            jobs.append(
                CampaignJob(
                    label=f"{power_scale:g}x/{system}",
                    scenario_json=scenario_json,
                    system=system,
                    horizon=HORIZON,
                    backend="vec",
                    dt=DT,
                    mode=mode,
                    power_scale=power_scale,
                )
            )
    return jobs


def main(seed: int = 0, scale: float = 1.0) -> None:
    """Plan and execute the fleet campaign; print the availability table."""
    from repro.experiments.plan import execute_plan, plan_campaign

    jobs = build_jobs(seed=seed, scale=scale)
    plan = plan_campaign(jobs)
    executed = execute_plan(plan, jobs=1, collect=False)

    result = ExperimentResult(
        experiment="fleet",
        columns=["HarvestScale", "System", "OnFraction", "Brownouts"],
    )
    for job, payload in zip(jobs, executed.results):
        fleet = payload["fleet"]
        result.rows.append(
            [
                f"{job.power_scale:g}x",
                job.system,
                f"{fleet['on_seconds'] / HORIZON:.3f}",
                str(fleet["brownouts"]),
            ]
        )
    stats = plan.stats()
    result.notes.append(
        f"campaign: {stats['jobs']} jobs, {stats['cohorts']} cohort(s), "
        f"batched fraction {stats['batched_fraction']:.2f} over "
        f"{HORIZON:.0f}s at dt={DT}s"
    )
    print_result(result)
