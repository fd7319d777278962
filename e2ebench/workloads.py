"""The four workloads: inputs from a seed, set-up, timed rounds, checks.

Every input comes from the workload's seed, so one seed gives the same
jobs.  Sizes are chosen so that no job fails and the cost of a round
depends on the seed as little as the workload allows.

* ``fleet-long`` — 512 vec jobs (256 harvest scales x {Fixed, CB-P}) over
  900 s at dt 0.05: the paper's grid-sweep shape, dominated by
  ``FleetKernel`` stepping.
* ``sweep-short`` — 4,096 vec jobs in 8 cohorts ({static, 3 inline
  hold-replay irradiance traces} x {10 s, 20 s} x 256 scales x 2
  systems): the same entry point, but the kernel is a small share and
  keying, planning, payload formatting and cache writes dominate.
* ``scalar-apps`` — 12 scalar jobs per round ({GRC, CorrSense,
  TempAlarm} x {Pwr, Fixed, CB-R, CB-P}, 3 events each, a fresh seed per
  job every round): the event engine, with ~1 MB payloads pickled across
  the pool.
* ``service-mixed`` — 2 closed-loop HTTP clients against ``repro serve
  --jobs 2``: 50% repeats of 4 hot specs (hits or coalesced), 30% fresh
  scalar specs, 20% fresh vec specs at a 120 s horizon.

Scalar jobs run for a fixed simulated horizon rather than the default
(event schedule + 60 s), so a job's cost depends on its seed less.

Campaign workloads run ``plan_campaign`` + ``execute_plan`` on a
persistent ``WorkerPool(jobs=2)``, each round into a fresh
``ResultCache`` directory so every round is cold.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import itertools
import json
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import serve
from repro.apps import csr, grc, temp_alarm
from repro.experiments import plan as planner
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import WorkerPool
from repro.experiments.plan import CampaignJob
from repro.service.jobs import JobRequest
from repro.service.runner import run_scenario_job
from repro.spec import canonical_json, load_scenario
from repro.vec import FIXED_BANK_MODE

#: Pool workers and server workers: the reference host has 2 cores.
JOBS = 2
DT = 0.05
SCALAR_SYSTEMS = ("Pwr", "Fixed", "CB-R", "CB-P")
VEC_SYSTEMS = (("Fixed", FIXED_BANK_MODE), ("CB-P", temp_alarm.MODE_SENSE))
#: Jobs re-run one per kernel launch to check batched payloads.
SAMPLE_JOBS = 8


def canonical(payload: Any) -> bytes:
    """The bytes a payload is compared and digested by."""
    if not isinstance(payload, dict):
        payload = repr(payload)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def digest_bytes(blobs: Iterable[bytes]) -> str:
    """sha256 over the sha256 of each blob, in order."""
    combined = hashlib.sha256()
    for blob in blobs:
        combined.update(hashlib.sha256(blob).digest())
    return combined.hexdigest()


def digest(payloads: Sequence[Any]) -> str:
    """Digest of the canonical per-job payloads, in job order."""
    return digest_bytes(canonical(payload) for payload in payloads)


def tree_bytes(root: Path) -> int:
    """Total size of the regular files under *root*."""
    return sum(path.stat().st_size for path in Path(root).rglob("*") if path.is_file())


def _span(tracer, name: str, request: Optional[str] = None):
    return tracer.span(name, request) if tracer is not None else contextlib.nullcontext()


@dataclass
class Measurement:
    """What one pass of a workload did, round by round."""

    walls: List[float] = field(default_factory=list)
    #: Completed jobs per round.
    jobs: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Digest of the payloads the correctness gate pins.
    digest: str = ""
    #: Per-layer values the workload measures itself (not from spans).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Wall of the part of this pass the traced pass repeats.
    reference_wall: float = 0.0


def _scenario_doc(seed: int) -> Dict[str, Any]:
    return json.loads(canonical_json(temp_alarm.scenario(seed=seed, event_count=3)))


def _vec_jobs(
    scenario_jsons: Sequence[str], horizons: Sequence[float], scales: Sequence[float]
) -> List[CampaignJob]:
    return [
        CampaignJob(
            label=f"e{env}/h{horizon:g}/x{scale:g}/{system}",
            scenario_json=scenario_json,
            system=system,
            horizon=horizon,
            backend="vec",
            dt=DT,
            mode=mode,
            power_scale=scale,
        )
        for env, scenario_json in enumerate(scenario_jsons)
        for horizon in horizons
        for scale in scales
        for system, mode in VEC_SYSTEMS
    ]


def _scales(rng: random.Random, count: int) -> List[float]:
    return sorted(round(rng.uniform(0.25, 4.0), 6) for _ in range(count))


# ---------------------------------------------------------------------------
# Campaign workloads
# ---------------------------------------------------------------------------


class CampaignWorkload:
    """Rounds of ``plan_campaign`` + ``execute_plan`` on a persistent pool."""

    name = ""
    #: Whether each round has new inputs (else every round repeats one).
    fresh_rounds = False
    collect = False
    #: Set-up starts a fresh interpreter to time the simulator's import.
    probe_imports = True

    def __init__(self, seed: int, workdir: Path, env: Dict[str, str]) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.pool: Optional[WorkerPool] = None
        self._caches = itertools.count()
        #: Round 0's jobs, digest, and the payloads :meth:`check` needs.
        self.round0_jobs: List[CampaignJob] = []
        self.round0_digest = ""
        self.round0_kept: Dict[int, Any] = {}
        self.traced: Dict[str, Any] = {}

    def round_jobs(self, index: int) -> List[CampaignJob]:
        raise NotImplementedError

    def warmup_jobs(self) -> List[CampaignJob]:
        raise NotImplementedError

    def check_indices(self, count: int) -> List[int]:
        """Which of round 0's *count* payloads :meth:`check` re-derives."""
        raise NotImplementedError

    def start(self, tracer=None) -> None:
        """Start the pool and run the warm-up round (part of set-up)."""
        self.pool = WorkerPool(jobs=JOBS)
        self._round(self.warmup_jobs())

    def stop(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def _round(self, jobs, tracer=None, request: str = ""):
        cache_dir = self.workdir / f"cache-{next(self._caches)}"
        started = time.perf_counter()
        with _span(tracer, "round", request):
            # Called through the module, so the traced pass sees the calls.
            plan = planner.plan_campaign(jobs)
            results = planner.execute_plan(
                plan,
                cache=ResultCache(root=cache_dir),
                pool=self.pool,
                collect=self.collect,
            ).results
        wall = time.perf_counter() - started
        written = tree_bytes(cache_dir) if cache_dir.exists() else 0
        shutil.rmtree(cache_dir, ignore_errors=True)
        return wall, plan, results, written

    def measure(self, seconds: float, detail: bool = False) -> Measurement:
        """Run rounds for about *seconds* (at least one round).

        A round is started only if, judged by the last round's wall, at
        least half of it falls within *seconds*, so the measured time
        averages *seconds* instead of overshooting by half a round.
        """
        measurement = Measurement()
        started = time.perf_counter()
        for index in itertools.count():
            if index and time.perf_counter() - started + measurement.walls[-1] / 2 > seconds:
                break
            jobs = self.round_jobs(index)
            wall, _, results, _ = self._round(jobs)
            done = [payload for payload in results if isinstance(payload, dict)]
            measurement.walls.append(wall)
            measurement.jobs.append(len(done))
            measurement.attempted += len(jobs)
            measurement.failed += len(jobs) - len(done)
            if index == 0:
                self.round0_jobs = jobs
                self.round0_digest = measurement.digest = digest(results)
                self.round0_kept = {
                    i: results[i] for i in self.check_indices(len(jobs))
                }
        walls = measurement.walls
        measurement.reference_wall = (
            walls[0] if self.fresh_rounds else statistics.median(walls)
        )
        return measurement

    def measure_traced(self, tracer) -> Tuple[float, List[str]]:
        """Repeat round 0 with the tracer installed."""
        wall, plan, results, written = self._round(self.round0_jobs, tracer, "round-0")
        stats = plan.stats()
        self.traced = {
            "plan.cohorts": stats["cohorts"],
            "plan.batched_fraction": stats["batched_fraction"],
            "cache.bytes_written": written,
        }
        problems = []
        if digest(results) != self.round0_digest:
            problems.append(f"{self.name}: traced round-0 payloads differ from untraced")
        return wall, problems

    def check(self) -> List[str]:
        raise NotImplementedError


class VecCampaign(CampaignWorkload):
    """A vec campaign whose every round runs the same jobs."""

    def check_indices(self, count: int) -> List[int]:
        # Spread over the job list, so every cohort of sweep-short is hit,
        # and alternating between the two systems (adjacent jobs).
        return sorted({
            min(count - 1, (2 * k + 1) * count // (2 * SAMPLE_JOBS) + k % 2)
            for k in range(SAMPLE_JOBS)
        })

    def check(self) -> List[str]:
        """Sampled jobs, one per kernel launch, equal their batched payloads."""
        picks = sorted(self.round0_kept)
        sample = [self.round0_jobs[index] for index in picks]
        solo = planner.execute_plan(
            planner.plan_campaign(sample), pool=self.pool, shard_size=1
        ).results
        return [
            f"{self.name}: job {job.label} differs batched vs shard_size=1"
            for job, index, payload in zip(sample, picks, solo)
            if payload != self.round0_kept[index]
        ]


class FleetLong(VecCampaign):
    name = "fleet-long"

    def __init__(
        self,
        seed: int,
        workdir: Path,
        env: Dict[str, str],
        scales: int = 256,
        horizon: float = 900.0,
    ) -> None:
        super().__init__(seed, workdir, env)
        rng = random.Random(f"{self.name}:{seed}")
        scenario_json = canonical_json(
            temp_alarm.scenario(seed=rng.randrange(10**6), event_count=3)
        )
        self.jobs = _vec_jobs([scenario_json], [horizon], _scales(rng, scales))
        self.warmup = _vec_jobs([scenario_json], [5.0], _scales(rng, 2))

    def round_jobs(self, index: int) -> List[CampaignJob]:
        return self.jobs

    def warmup_jobs(self) -> List[CampaignJob]:
        return self.warmup


class SweepShort(VecCampaign):
    name = "sweep-short"
    #: Start times of the inline irradiance samples (hold replay).
    TRACE_TIMES = (0.0, 2.5, 5.0, 7.5, 12.5, 15.0)

    def __init__(
        self, seed: int, workdir: Path, env: Dict[str, str], scales: int = 256
    ) -> None:
        super().__init__(seed, workdir, env)
        rng = random.Random(f"{self.name}:{seed}")
        static = _scenario_doc(rng.randrange(10**6))
        docs = [static]
        for _ in range(3):
            doc = copy.deepcopy(static)
            doc["platform"]["harvester"]["irradiance"] = {
                "kind": "replay",
                "samples": [
                    [at, round(rng.uniform(2.0, 30.0), 3)] for at in self.TRACE_TIMES
                ],
            }
            docs.append(doc)
        envs = [canonical_json(load_scenario(json.dumps(doc))) for doc in docs]
        self.jobs = _vec_jobs(envs, [10.0, 20.0], _scales(rng, scales))
        # One job per cohort: every cohort's segment schedule compiles.
        self.warmup = _vec_jobs(envs, [10.0, 20.0], _scales(rng, 1))[::2]

    def round_jobs(self, index: int) -> List[CampaignJob]:
        return self.jobs

    def warmup_jobs(self) -> List[CampaignJob]:
        return self.warmup


class ScalarApps(CampaignWorkload):
    name = "scalar-apps"
    fresh_rounds = True
    collect = True
    #: Scenario factory and simulated horizon per app, costliest first so
    #: a round does not end on one long job while the other worker idles.
    APPS = {
        "grc": (grc.scenario, 450.0),
        "csr": (csr.scenario, 450.0),
        "temp_alarm": (temp_alarm.scenario, 700.0),
    }

    def __init__(
        self,
        seed: int,
        workdir: Path,
        env: Dict[str, str],
        apps: Sequence[str] = ("grc", "csr", "temp_alarm"),
    ) -> None:
        super().__init__(seed, workdir, env)
        self.apps = [(app, *self.APPS[app]) for app in apps]

    def round_jobs(self, index: int) -> List[CampaignJob]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        return [
            CampaignJob(
                label=f"r{index}/{app}/{system}",
                scenario_json=canonical_json(
                    make(seed=rng.randrange(10**6), event_count=3)
                ),
                system=system,
                horizon=horizon,
            )
            for app, make, horizon in self.apps
            for system in SCALAR_SYSTEMS
        ]

    def warmup_jobs(self) -> List[CampaignJob]:
        scenario_json = canonical_json(temp_alarm.scenario(seed=self.seed, event_count=1))
        return [
            CampaignJob(
                label=f"warmup/{system}",
                scenario_json=scenario_json,
                system=system,
                horizon=60.0,
            )
            for system in SCALAR_SYSTEMS[:JOBS]
        ]

    def check_indices(self, count: int) -> List[int]:
        # The last two jobs are the cheapest to re-run in-process.
        return [count - 2, count - 1]

    def check(self) -> List[str]:
        """Two pool payloads equal the same jobs run in this process."""
        problems = []
        for index, pooled in sorted(self.round0_kept.items()):
            job = self.round0_jobs[index]
            local = run_scenario_job(
                job.scenario_json,
                system=job.system,
                horizon=job.horizon,
                faults_json=job.faults_json,
                backend="scalar",
                collect=True,
            )
            if local != pooled:
                problems.append(f"{self.name}: job {job.label} differs pool vs in-process")
        return problems


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------

@dataclass
class _Request:
    index: int
    sample: str
    kind: str
    ok: bool = False
    cls: str = ""
    coalesced: bool = False
    latency: float = 0.0
    finished: float = 0.0
    submit_s: float = 0.0
    fetch_s: float = 0.0
    result_bytes: int = 0
    worker_s: Optional[float] = None
    queue_wait_s: Optional[float] = None


class ServiceMixed:
    """Two closed-loop clients against ``repro serve --jobs 2``."""

    name = "service-mixed"
    fresh_rounds = False
    #: The server start already includes the import.
    probe_imports = False
    CLIENTS = 2
    #: The load is reported in this many equal windows, so a run carries
    #: its own spread like the campaign workloads' rounds do.
    WINDOWS = 4
    HOT = 4
    SCALAR_HORIZON = 700.0
    VEC_HORIZON = 120.0
    #: Each block of ten requests, shuffled per block.
    PATTERN = ("hot",) * 5 + ("scalar",) * 3 + ("vec",) * 2

    def __init__(
        self,
        seed: int,
        workdir: Path,
        env: Dict[str, str],
        traced_requests: int = 100,
    ) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.env = env
        self.server: Optional[serve.ServerProcess] = None
        self._servers = itertools.count()
        rng = random.Random(f"{self.name}:{seed}")
        self.hot_seeds = [rng.randrange(10**6) for _ in range(self.HOT)]
        self._base = _scenario_doc(0)
        self.samples, sample_requests = self._sample_ids()
        #: Every pass sends at least the requests that carry the samples.
        self.min_requests = sample_requests
        self.traced_requests = max(traced_requests, sample_requests)
        #: First answer body per (sample id, hit|miss|coalesced).
        self.bodies: Dict[Tuple[str, str], bytes] = {}
        self._expected_payloads: Optional[Dict[str, bytes]] = None
        self.traced: Dict[str, Any] = {}

    # -- inputs ---------------------------------------------------------

    def _doc(self, seed: int) -> Dict[str, Any]:
        doc = copy.deepcopy(self._base)
        doc["name"] = f"temp-alarm-seed{seed}"
        doc["workload"]["seed"] = seed
        return doc

    def request_body(self, index: int) -> Tuple[str, str, Dict[str, Any]]:
        """(kind, sample id, submit body) of request *index*."""
        block, slot = divmod(index, len(self.PATTERN))
        order = list(self.PATTERN)
        random.Random(f"{self.name}:{self.seed}:{block}").shuffle(order)
        kind = order[slot]
        if kind == "hot":
            hot = (block * 5 + order[:slot].count("hot")) % self.HOT
            body = {
                "scenario": self._doc(self.hot_seeds[hot]),
                "system": SCALAR_SYSTEMS[hot],
                "horizon": self.SCALAR_HORIZON,
            }
            return kind, f"hot{hot}", body
        fresh = 10**7 + (self.seed % 1000) * 10**5 + index
        if kind == "scalar":
            body = {
                "scenario": self._doc(fresh),
                "system": SCALAR_SYSTEMS[index % 4],
                "horizon": self.SCALAR_HORIZON,
            }
        else:
            body = {
                "scenario": self._doc(fresh),
                "system": VEC_SYSTEMS[index % 2][0],
                "backend": "vec",
                "horizon": self.VEC_HORIZON,
            }
        return kind, f"{kind}@{index}", body

    def _sample_ids(self) -> Tuple[Dict[str, Dict[str, Any]], int]:
        """The hot specs and the first two fresh scalar and vec requests,
        and how many requests it takes to send them all."""
        samples: Dict[str, Dict[str, Any]] = {}
        fresh = {"scalar": 0, "vec": 0}
        for index in itertools.count():
            kind, sample, body = self.request_body(index)
            if kind == "hot":
                samples.setdefault(sample, body)
            elif fresh[kind] < 2:
                fresh[kind] += 1
                samples[sample] = body
            if len(samples) == self.HOT + 4:
                return samples, index + 1
        raise AssertionError("unreachable")

    # -- lifecycle ------------------------------------------------------

    def start(self, tracer=None) -> None:
        """Start the server and run one warm-up job (part of set-up).

        The warm-up waits by polling, not ``/stream``: the pool forks on
        the first job, and a worker forked while a client socket is open
        holds that socket until shutdown.
        """
        workdir = self.workdir / f"server-{next(self._servers)}"
        workdir.mkdir(parents=True)
        self.server = serve.ServerProcess(
            workdir,
            self.env,
            spans_dir=tracer.out_dir if tracer is not None else None,
            jobs=JOBS,
        )
        body = json.dumps({"scenario": self._doc(self.seed), "system": "Fixed"}).encode()
        status, raw = serve.request(self.server.port, "POST", "/v1/jobs", body)
        if status not in (200, 202):
            raise RuntimeError(f"warm-up submit answered {status}: {raw[:200]!r}")
        job_id = json.loads(raw)["job_id"]
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            _, raw = serve.request(self.server.port, "GET", f"/v1/jobs/{job_id}")
            state = json.loads(raw)["state"]
            if state in ("done", "failed"):
                if state == "failed":
                    raise RuntimeError(f"warm-up job failed: {raw[:200]!r}")
                return
            time.sleep(0.01)
        raise RuntimeError("warm-up job did not finish")

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- load -----------------------------------------------------------

    def _one(self, index: int, client: int, tracer, detail: bool) -> _Request:
        kind, sample, body = self.request_body(index)
        record = _Request(index=index, sample=sample, kind=kind)
        port = self.server.port
        headers = {
            "content-type": "application/json",
            "x-request-id": f"q{index}",
            "x-client-id": f"client-{client}",
        }
        started = time.perf_counter()
        with _span(tracer, "http.submit"):
            status, raw = serve.request(
                port, "POST", "/v1/jobs", json.dumps(body).encode(), headers
            )
        submitted = time.perf_counter()
        if status not in (200, 202):
            return record
        info = json.loads(raw)
        job_id = info["job_id"]
        events: List[Dict[str, Any]] = []
        if info["state"] not in ("done", "failed"):
            with _span(tracer, "http.stream"):
                _, stream = serve.request(
                    port, "GET", f"/v1/jobs/{job_id}/stream", headers=headers
                )
            events = [json.loads(line) for line in stream.splitlines() if line.strip()]
        waited = time.perf_counter()
        with _span(tracer, "http.result"):
            status, result = serve.request(
                port, "GET", f"/v1/jobs/{job_id}/result", headers=headers
            )
        finished = time.perf_counter()
        if status != 200:
            return record
        done = next((e for e in events if e.get("event") == "done"), {})
        record.ok = True
        record.cls = "hit" if info.get("cached") else kind if kind == "vec" else "scalar"
        record.coalesced = any(e.get("event") == "coalesced" for e in events)
        record.latency = finished - started
        record.finished = finished
        record.submit_s = submitted - started
        record.fetch_s = finished - waited
        record.result_bytes = len(result)
        record.worker_s = done.get("seconds")
        if detail and record.worker_s is not None:
            _, raw = serve.request(port, "GET", f"/v1/jobs/{job_id}", headers=headers)
            status_doc = json.loads(raw)
            record.queue_wait_s = (
                status_doc["finished_at"] - status_doc["submitted_at"] - record.worker_s
            )
        if sample in self.samples:
            bucket = "hit" if record.cls == "hit" else "coalesced" if record.coalesced else "miss"
            self.bodies.setdefault((sample, bucket), result)
        return record

    def _drive(
        self, seconds: Optional[float], count: Optional[int], tracer, detail: bool
    ) -> Tuple[List[_Request], float, float]:
        records: List[_Request] = []
        lock = threading.Lock()
        indices = itertools.count()
        started = time.perf_counter()
        errors: List[BaseException] = []

        def client(number: int) -> None:
            try:
                with _span(tracer, "round", f"client-{number}"):
                    while True:
                        with lock:
                            index = next(indices)
                        if count is not None and index >= count:
                            return
                        if (
                            seconds is not None
                            and index >= self.min_requests
                            and time.perf_counter() - started >= seconds
                        ):
                            return
                        record = self._one(index, number, tracer, detail)
                        with lock:
                            records.append(record)
            except BaseException as error:  # reported after the join
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(number,)) for number in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return sorted(records, key=lambda r: r.index), started, time.perf_counter() - started

    def measure(self, seconds: float, detail: bool = False) -> Measurement:
        """Closed-loop load for *seconds*, then the per-request summary."""
        self.bodies = {}
        records, started, wall = self._drive(seconds, None, None, detail)
        done = [record for record in records if record.ok]
        per_window = [0] * self.WINDOWS
        for record in done:
            window = int((record.finished - started) / wall * self.WINDOWS)
            per_window[min(window, self.WINDOWS - 1)] += 1
        measurement = Measurement(
            walls=[wall / self.WINDOWS] * self.WINDOWS,
            jobs=per_window,
            attempted=len(records),
            failed=len(records) - len(done),
            digest=self.sample_digest(),
        )
        prefix = [r for r in records if r.index < self.traced_requests]
        if len(prefix) == self.traced_requests:
            measurement.reference_wall = max(r.finished for r in prefix) - started
        else:
            # Too few requests to compare prefixes: scale by throughput.
            measurement.reference_wall = wall * self.traced_requests / max(1, len(records))
        measurement.layers = self._client_layers(done)
        return measurement

    def _client_layers(self, done: List[_Request]) -> Dict[str, float]:
        def p50(cls: str) -> float:
            values = [r.latency for r in done if r.cls == cls]
            return statistics.median(values) if values else 0.0

        def mean(values: List[float]) -> float:
            return statistics.fmean(values) if values else 0.0

        latencies = sorted(r.latency for r in done)
        executed = [r for r in done if r.worker_s is not None]
        return {
            "service.hit_latency_p50_s": p50("hit"),
            "service.vec_latency_p50_s": p50("vec"),
            "service.scalar_latency_p50_s": p50("scalar"),
            "service.latency_p95_s": latencies[int(0.95 * (len(latencies) - 1))] if latencies else 0.0,
            "service.submit_s": mean([r.submit_s for r in done]),
            "service.queue_wait_s": mean([r.queue_wait_s for r in executed if r.queue_wait_s is not None]),
            "service.worker_s": mean([r.worker_s for r in executed]),
            "service.result_fetch_s": mean([r.fetch_s for r in done]),
            "service.result_bytes": mean([r.result_bytes for r in done]),
            "service.coalesced": sum(r.coalesced for r in done),
        }

    def measure_traced(self, tracer) -> Tuple[float, List[str]]:
        """The first ``traced_requests`` requests, traced end to end."""
        self.bodies = {}
        records, _, wall = self._drive(None, self.traced_requests, tracer, detail=True)
        problems = [f"{self.name}: traced request q{r.index} failed" for r in records if not r.ok]
        problems += self.check()
        self.traced = {"cache.bytes_written": tree_bytes(self.server.cache_dir)}
        return wall, problems

    # -- correctness ----------------------------------------------------

    def _expected(self) -> Dict[str, bytes]:
        """Canonical in-process payload of each sampled spec."""
        if self._expected_payloads is None:
            self._expected_payloads = {}
            for sample, body in self.samples.items():
                request = JobRequest.from_payload(body)
                payload = run_scenario_job(
                    request.scenario_json,
                    request.system,
                    request.horizon,
                    request.faults_json,
                    request.backend,
                    True,
                )
                self._expected_payloads[sample] = canonical(payload)
        return self._expected_payloads

    def sample_digest(self) -> str:
        """Digest of the sampled specs' payloads, computed in-process."""
        expected = self._expected()
        return digest_bytes(expected[sample] for sample in sorted(expected))

    def check(self) -> List[str]:
        """Every hit, miss and coalesced answer equals the in-process run."""
        expected = self._expected()
        problems = []
        for (sample, bucket), body in sorted(self.bodies.items()):
            if canonical(json.loads(body)["result"]) != expected[sample]:
                problems.append(f"{self.name}: {bucket} answer for {sample} differs from run_scenario_job")
        missing = sorted(set(self.samples) - {sample for sample, _ in self.bodies})
        if missing:
            problems.append(f"{self.name}: no answer captured for {missing}")
        return problems


WORKLOADS = {
    workload.name: workload for workload in (FleetLong, SweepShort, ScalarApps, ServiceMixed)
}
