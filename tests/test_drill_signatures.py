"""Seeded serving drills pinned to recorded signatures.

The same-seed tests in ``test_faults_chaos.py`` and ``test_loadgen.py``
run one tree twice in one process, so they cannot see a change between
commits.  These tests compare each drill's ``deterministic_signature()``
with the value recorded in ``drill_signatures.json``: refit outcomes,
publish and answer counts, failpoint hits and counter deltas must all
stay the same.  Each run gets a fresh ``DesignMatrixCache`` so the
``cache.lookup`` failpoint and the serving counters do not depend on how
warm the global cache is.  Signatures are compared after a JSON round
trip, which turns tuples into lists.

If a change is *intentional*, regenerate the file and say why in the
change's notes::

    PYTHONPATH=src python tests/test_drill_signatures.py --regenerate
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.linalg import SolverError
from repro.loadgen import run_load
from repro.runtime.cache import DesignMatrixCache, set_design_cache

from test_faults_chaos import _run, _run_crash, _run_drill
from test_loadgen import small_config

EXPECTED_PATH = Path(__file__).with_name("drill_signatures.json")


def _acceptance_mix():
    return (
        FaultPlan.fail_every("solver.cholesky", 2, error=SolverError("chaos")),
        FaultPlan.fail_once("cache.lookup"),
    )


#: Drill name -> runner taking (testbench, store directory); seed 0 unless
#: the configuration says otherwise.
DRILLS = {
    "chaos-publish-every-2": lambda tb, root: _run(
        tb, fault_plans=(FaultPlan.fail_every("registry.publish", 2),)
    ),
    "chaos-acceptance-mix": lambda tb, root: _run(
        tb, fault_plans=_acceptance_mix()
    ),
    "crash-store-fsync": lambda tb, root: _run_crash(
        tb, root, crash_failpoint="store.fsync"
    ),
    "crash-store-write": lambda tb, root: _run_crash(
        tb, root, crash_failpoint="store.write"
    ),
    "rolling-restart": lambda tb, root: _run_drill(root),
    "loadgen-kill-quota-burst": lambda tb, root: run_load(
        small_config(seed=13, kill_shard_after=20, tenant_quota=8, overload_burst=1),
        root,
    ),
}


def _signature(name, testbench, store_root):
    previous = set_design_cache(DesignMatrixCache(min_result_cells=1))
    try:
        report = DRILLS[name](testbench, store_root)
    finally:
        set_design_cache(previous)
    return json.loads(json.dumps(report.deterministic_signature()))


@pytest.mark.parametrize("name", sorted(DRILLS))
def test_signature_matches_recording(name, tiny_ro, tmp_path):
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    assert _signature(name, tiny_ro, tmp_path / "store") == expected[name]


def test_recording_covers_every_drill():
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(DRILLS)


if __name__ == "__main__" and "--regenerate" in sys.argv:
    from repro.circuits import RingOscillator
    from repro.process import ProcessKit

    # Mirrors the ``tiny_ro`` fixture in conftest.py.
    tiny_ro = RingOscillator(
        n_ring=5, n_buffer=2, kit=ProcessKit(params_per_device=4, interdie_params=4)
    )
    recorded = {}
    for drill in sorted(DRILLS):
        with tempfile.TemporaryDirectory() as tmp:
            recorded[drill] = _signature(drill, tiny_ro, Path(tmp) / "store")
    EXPECTED_PATH.write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(recorded)} signatures to {EXPECTED_PATH}")
