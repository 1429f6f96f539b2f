"""Run one benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload fit-paper-k --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

One workload prints a human-readable report and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` metrics, and the
traced run also writes its spans to ``.perfbench_out/``.  ``--workload
all`` runs every workload untraced and traced, each in its own process,
and prints every metric plus the tracing overhead (traced minus untraced
end-to-end numbers).

BLAS threads are pinned to ``BLAS_THREADS``, numpy's huge-page advice is
turned off and glibc malloc gets one arena and a fixed mmap threshold on
every run, before numpy loads, and a workload process pins itself to one
CPU, so both sides of a comparison use the same pins.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# numpy asks for transparent huge pages on large arrays; where the kernel
# then compacts memory on the page fault (THP defrag "madvise"), those
# stalls made fit_s drift 20% between runs.  Plain pages cost the same
# every run.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def _pin_malloc():
    """Give glibc malloc one arena and a fixed mmap threshold.

    By default each serving thread gets its own heap, and glibc raises its
    mmap threshold to the size of each large block freed, so whether a
    256-row design matrix lands in a heap or in its own mapping depends on
    what was freed before.  How those heaps then fragment depends on how
    the threads interleave: over five 40 s runs serve-stream's peak RSS
    spread 7%.  With one arena and the threshold fixed at its 32 MiB
    maximum (every array of a run stays below it) it read the same to
    0.1 MB.  Returns the threshold, or None where the C library has no
    ``mallopt`` or refuses either setting.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_mmap_threshold, m_arena_max = -3, -8
    if mallopt(m_arena_max, 1) != 1 or mallopt(m_mmap_threshold, MMAP_THRESHOLD) != 1:
        return None
    return MMAP_THRESHOLD


MMAP_THRESHOLD = 32 << 20
MALLOC_PIN = _pin_malloc()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _read_first_line(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.readline().strip()
    except OSError:
        return None


def pin_to_one_cpu() -> None:
    """Run the whole process, serving threads included, on one CPU.

    On a shared 2-vCPU VM, waking a thread on the other vCPU waits until
    the host schedules that vCPU; serve-stream's point p90 then swung
    between 2.6 and 8 ms from run to run.  On one CPU it stayed near 2.6 ms.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


def fingerprint() -> dict:
    import numpy
    import scipy

    from repro.backends import describe_selection

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_pin": BLAS_THREADS,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "malloc_one_arena_mmap_threshold": MALLOC_PIN,
        "thp": _read_first_line("/sys/kernel/mm/transparent_hugepage/enabled"),
        "thp_defrag": _read_first_line("/sys/kernel/mm/transparent_hugepage/defrag"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "backend": describe_selection(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(args, spec) -> int:
    from tracing import Tracer
    from workloads import run_workload

    pin_to_one_cpu()
    env = fingerprint()
    tracer = Tracer(enabled=bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, tracer, OUT_DIR)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e = dict(result.e2e)
    e2e["setup_s"] = statistics.median(result.setup_s)
    e2e["peak_rss_mb"] = peak_rss_mb
    failed = len(result.failures)
    attempted = max(result.attempted, 1)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(result.counts, sort_keys=True))
    print(f"setup_s runs {[round(s, 4) for s in result.setup_s]}")
    for metric in spec["end_to_end"]:
        print(f"  {metric['name']:<20} {e2e[metric['name']]:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<20} {failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
    for problem in result.failures[:20]:
        print(f"  FAILED {problem}")

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result.layers if args.trace else e2e
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in chosen
    }
    if args.trace:
        # Every layer metric the run measured, including the layer timings
        # BENCHMARK.json leaves out because one gated workload never
        # touches that layer.
        for name in sorted(result.layers):
            print(f"  {name:<36} {result.layers[name]:>14.6g}")
        tracer.write(
            OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "environment": env,
                "samples": result.counts,
                "end_to_end": e2e,
                "per_layer": result.layers,
                "failures": result.failures,
            },
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args, spec, workloads) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    ok = True
    for workload in workloads:
        outputs = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            if completed.returncode != 0:
                return completed.returncode
            outputs[trace] = json.loads(completed.stdout.strip().splitlines()[-1])
            ok = ok and outputs[trace]["correct"]
        traced = json.loads(
            (OUT_DIR / f"trace-{workload}-seed{args.seed}.json").read_text(encoding="utf-8")
        )["end_to_end"]
        print(f"tracing overhead on {workload} (traced minus untraced):")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            diff = traced[name] - outputs[0]["metrics"][name]["value"]
            print(f"  {name:<20} {diff:>+14.6g} {metric['unit']}")
        print()
    print(json.dumps({"correct": ok}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(
            f"perfbench: expected the repro sources under {SRC} and BENCHMARK.json "
            f"under {ROOT}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS + ("all",):
        parser.error(f"--workload must be one of {WORKLOADS + ('all',)}")
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec, WORKLOADS)
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
