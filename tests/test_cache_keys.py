"""Literal cache keys: the bytes a key-path change must not move.

A cache key is a content address shared by every writer (``run_all``,
the planner, the job service) and every earlier run's packs on disk.
Any edit to how keys are encoded must leave them byte for byte as they
were, or every existing cache silently goes cold.  The keys below were
captured from the key code before its encoding was reworked, under a
fixed code fingerprint so that source edits do not move them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.cache as cache_mod
from repro.experiments.plan import CampaignJob, job_result_key
from repro.experiments.registry import get_experiment
from repro.vec import FIXED_BANK_MODE

GOLDEN = Path(__file__).parent / "golden"
FINGERPRINT = "f" * 64


@pytest.fixture
def fixed_fingerprint(monkeypatch):
    monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: FINGERPRINT)


def _spec() -> str:
    return (GOLDEN / "specs" / "temp_alarm_pwr.json").read_text()


def _replay_spec() -> str:
    doc = json.loads(_spec())
    doc["platform"]["harvester"]["irradiance"] = {
        "kind": "replay",
        "samples": [[0.0, 4.5], [2.5, 12.25], [7.5, 3.0]],
    }
    return json.dumps(doc)


SCALAR = CampaignJob(label="scalar", scenario_json="", system="CB-P", horizon=120.0)
VEC = CampaignJob(
    label="vec",
    scenario_json="",
    system="Fixed",
    horizon=30.0,
    backend="vec",
    dt=0.1,
    mode=FIXED_BANK_MODE,
    power_scale=2.5,
)


def _jobs():
    spec = _spec()
    return {
        "scalar": dataclasses.replace(SCALAR, scenario_json=spec),
        "vec": dataclasses.replace(VEC, scenario_json=spec),
        "faulted": dataclasses.replace(
            SCALAR,
            scenario_json=spec,
            faults_json=(GOLDEN / "faults" / "blackout.json").read_text(),
        ),
        "replay": dataclasses.replace(VEC, scenario_json=_replay_spec()),
    }


PINNED_JOB_KEYS = {
    "scalar": "34bdb47806785d0461d1dd29db30e3a9c8611b31cb31e6b941b2bb09a42cb4d7",
    "vec": "8382c48281d9dd3142f3605626089ec7eae8d5cff71916bf6b7deaf3ca1da52f",
    "faulted": "fd6ee144d6a2a6766bf6f06432b5cddc60eb422d1b0a678407c58484a6040856",
    "replay": "0f1a2d04cc4ea8f0c5006a650ee2c59a0ab5b96a141ed7d4ffc7cae5e2322eaf",
}


@pytest.mark.parametrize("name", sorted(PINNED_JOB_KEYS))
def test_job_keys_are_pinned(fixed_fingerprint, name):
    assert job_result_key(_jobs()[name]) == PINNED_JOB_KEYS[name]


PINNED_RUN_ALL_KEY = "63abbd0a379cf4c8f2c7d61250491fd1fa747fc77a9025607a900e9a9f986d71"


def test_run_all_experiment_key_is_pinned(fixed_fingerprint):
    """The key ``run_all`` files ``fig08`` under at seed 2, scale 0.12."""
    experiment = get_experiment("fig08")
    key = cache_mod.result_key(
        experiment.job_id,
        experiment.params(2, 0.12),
        spec_hash=experiment.spec_hash(2, 0.12),
    )
    assert key == PINNED_RUN_ALL_KEY


def test_explicit_result_key_is_pinned():
    assert cache_mod.result_key(
        "exp", {"seed": 1, "scale": 0.5, "nested": {"b": [1, 2.5], "a": None}},
        fingerprint="code", spec_hash="spec", fault_hash="faults", trace_hash="trace",
    ) == "b1b849b1a1ba0d7e2523327a18b3958b459b77a6a1abf2640cb6d66e94946e92"


def _reference_key(experiment_id, params, code, spec, faults, trace):
    """The key definition before keys were encoded from a frame."""
    body = {
        "version": cache_mod.CACHE_FORMAT_VERSION,
        "experiment": experiment_id,
        "params": params,
        "code": code,
    }
    if spec is not None:
        body["spec"] = spec
    if faults is not None:
        body["faults"] = faults
    if trace is not None:
        body["trace"] = trace
    payload = json.dumps(body, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


#: Text that stresses the frame split: quotes, escapes, non-ASCII, and
#: the literal text the frame is cut at.
_texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"params": null', '", "params": null, "', "\\", "é☃"]),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    _texts,
    # Not JSON: encoded through ``default=str``.
    st.frozensets(st.integers(0, 3), max_size=2),
)
_params = st.dictionaries(
    _texts,
    st.recursive(
        _scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(_texts, inner, max_size=3),
        max_leaves=8,
    ),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(
    experiment_id=_texts,
    params=_params,
    code=_texts,
    spec=st.none() | _texts,
    faults=st.none() | _texts,
    trace=st.none() | _texts,
)
def test_framed_key_equals_the_whole_body_hash(
    experiment_id, params, code, spec, faults, trace
):
    assert cache_mod.result_key(
        experiment_id, params, fingerprint=code, spec_hash=spec,
        fault_hash=faults, trace_hash=trace,
    ) == _reference_key(experiment_id, params, code, spec, faults, trace)
