"""Record the reference outcome of every fit the fit workloads can run.

    python3 perfbench/record_reference.py

For each (circuit, K, data seed) of ``FIT_WORKLOADS`` over both data-seed
pools, stores the selected prior, eta (and its grid index) and the
held-out relative error in ``perfbench/reference.json``.  Re-record only
when a change is meant to alter fit results, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads, exactly as a benchmark run does

sys.path.insert(0, str(run.SRC))

from repro.regression import relative_error  # noqa: E402
from repro.regression.base import FittedModel  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DATA_SEEDS,
    FIT_WORKLOADS,
    HELD_OUT_DATA_SEEDS,
    REFERENCE_PATH,
    build_circuit,
    fit_once,
    reference_key,
)


def main() -> int:
    combos = sorted({fit[:2] for spec in FIT_WORKLOADS.values() for fit in spec["fits"]})
    circuits = {key: build_circuit(key) for key in sorted({c for c, _ in combos})}
    tracer = Tracer(enabled=False)
    fits = {}
    for data_seed in DATA_SEEDS + HELD_OUT_DATA_SEEDS:
        for circuit_key, num_samples in combos:
            circuit = circuits[circuit_key]
            key = reference_key(circuit_key, num_samples, data_seed)
            outcome = fit_once(circuit, num_samples, data_seed, tracer, key)
            model = FittedModel(circuit.basis, outcome.coefficients)
            fits[key] = {
                "prior": outcome.prior,
                "eta": outcome.eta,
                "eta_index": outcome.eta_index,
                "test_error": relative_error(model.predict(circuit.test_x), circuit.test_f),
            }
            print(f"{key}: {fits[key]}", flush=True)
    payload = {"environment": run.fingerprint(), "fits": fits}
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
