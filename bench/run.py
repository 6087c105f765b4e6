"""dcsvec benchmark: one command per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the ``src/dcsvec`` package
of the checkout that holds this file, and worldgen inputs come from its
``tests/worldgen.py``.  Short passes over the seeded inputs repeat until
they have run ``--seconds``; five timed set-ups are spread over the same
run.  Gated timings are scaled to a reference host speed measured next to
each pass (``_host_scale``) and report the fast end of the passes and of
the set-ups (``workloads.fast_end``).  ``--trace 0`` reports the
end-to-end metrics,
``--trace 1`` runs half the time untraced and half traced and reports
the per-layer metrics plus ``trace.overhead_ratio``.  Human-readable
lines come first; the last line of stdout is the JSON result.  Full
records (environment, every metric, checks) and the span file go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: the numbers measure dcsvec, not the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5
# A fixed pure-Python loop times the host next to every pass and set-up;
# PROBE_REF_S is its time in the fast phase of the 2-core VM the bounds
# were measured on.  See _host_scale.
PROBE_ITERS = 30_000
PROBE_REF_S = 0.0024
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dcsvec.cli, dcsvec.evaluate; "
    "print(time.perf_counter() - t)"
)
ITEMS = {
    "pipeline-d25": "train steps/s",
    "train-d250": "train steps/s",
    "long-trees": "sentences/s through parse + convert + build_vocab",
    "query": "requests/s",
}


def _import_program() -> None:
    """Import dcsvec and worldgen from this checkout."""
    for sub in ("src", "tests"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import importlib

    importlib.import_module("dcsvec.cli")
    where = Path(sys.modules["dcsvec"].__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"dcsvec resolved to {where}, outside {ROOT / 'src'}")
    importlib.import_module("worldgen")


def _fresh_import_seconds() -> float:
    """Import time of the package in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def _environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _host_scale() -> float:
    """PROBE_REF_S over the probe loop's current time (best of three).

    On a shared VM identical work was measured running up to 1.8x slower
    for tens of seconds, and ~30% slower for minutes, in phases unrelated
    to the program.  Multiplying a time by this factor (dividing a rate)
    expresses it at the reference host speed, so that runs made in
    different phases can be compared; the raw values are printed too.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return PROBE_REF_S / best


def _timed_setup(wl) -> tuple[float, float]:
    """(set-up seconds, host scale next to them)."""
    scale = _host_scale()
    import_s = _fresh_import_seconds()
    t0 = time.perf_counter()
    wl.setup()
    return import_s + time.perf_counter() - t0, scale


def _passes(wl, seconds: float, tracer=None, setup_times=None) -> list[dict]:
    """Passes until they have run ``seconds`` (at least two, so that the
    checks can compare passes).  With ``setup_times``, SETUP_REPEATS timed
    set-ups are spread evenly over the run, off the pass clock, so that
    they meet the same host phases as the passes do."""
    out = []
    elapsed = 0.0
    while len(out) < 2 or elapsed < seconds:
        if (setup_times is not None and len(setup_times) < SETUP_REPEATS
                and elapsed >= len(setup_times) * seconds / SETUP_REPEATS):
            setup_times.append(_timed_setup(wl))
        if tracer is not None:
            tracer.run = f"pass{len(out)}"
        scale = _host_scale()
        t0 = time.perf_counter()
        out.append(wl.run_pass())
        elapsed += time.perf_counter() - t0
        out[-1]["scale"] = scale
    return out


def _line(name, value, unit, note=""):
    print(f"  {name:<42} {value:>14.6g} {unit:<12} {note}".rstrip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(ITEMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = ap.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program under test from {ROOT}: {exc}", file=sys.stderr)
        return 2

    import checks
    import spans
    from workloads import WORKLOADS, fast_end

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "env": _environment(args.seed), "checks": []}
    try:
        setup_times = []
        if args.trace:
            wl.setup()
            passes = _passes(wl, args.seconds / 2)
        else:
            passes = _passes(wl, args.seconds, setup_times=setup_times)
        peak_rss = _peak_rss_mb()
        traced = []
        if args.trace:
            tracer = spans.Tracer()
            with tracer:
                wl.tracer = tracer
                wl.setup()
                traced = _passes(wl, args.seconds / 2, tracer)
                wl.tracer = None
        all_passes = passes + traced
        correct = True
        try:
            record["checks"] += wl.check(all_passes)
        except checks.CheckFailed as exc:
            correct = False
            record["checks"].append(f"FAILED: {exc}")
            print(f"CHECK FAILED [{args.workload}]: {exc}", file=sys.stderr)
        record["inputs"] = wl.sizes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    record["errors"] = [e for p in all_passes for e in p["errors"]][:20]
    wall = fast_end([p["wall"] * p["scale"] for p in passes], False)

    env = record["env"]
    print(f"dcsvec benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("  inputs " + " ".join(f"{k}={v}" for k, v in record["inputs"].items()))
    print(f"  passes={len(passes)} attempted={attempted} failed={failed}")

    if args.trace:
        metrics = spans.layer_metrics(tracer, len(traced))
        metrics["trace.overhead_ratio"] = (
            fast_end([p["wall"] * p["scale"] for p in traced], False) / wall)
        units = _units("per_layer")
        print("per-layer (traced run; counts are per pass, times per call):")
        for name in units:
            note = "absent" if any(name.startswith(a + ".") for a in tracer.absent) else ""
            _line(name, metrics[name], units[name], note)
        spans_path = out_dir / f"{tag}.spans.jsonl"
        tracer.write(spans_path)
        print(f"  spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        record["absent"] = tracer.absent
    else:
        metrics = {
            "setup_s": fast_end([t * scale for t, scale in setup_times], False),
            "wall_s": wall,
            "items_per_s": fast_end([p["rate"] / p["scale"] for p in passes], True),
            "peak_rss_mb": peak_rss,
        }
        units = _units("end_to_end")
        print("end-to-end:")
        raw_setup = [t for t, _ in setup_times]
        raw_wall = [p["wall"] for p in passes]
        _line("setup_s", metrics["setup_s"], "s",
              f"fast end of {len(setup_times)} set-ups at reference host speed; raw fast end "
              f"{fast_end(raw_setup, False):.4g} s, median {statistics.median(raw_setup):.4g} s")
        _line("wall_s", wall, "s", f"fast end of {len(passes)} passes at reference host speed; "
              f"raw fast end {fast_end(raw_wall, False):.4g} s, median {statistics.median(raw_wall):.4g} s")
        _line("items_per_s", metrics["items_per_s"], "1/s",
              f"{ITEMS[args.workload]} at reference host speed")
        _line("host_scale", statistics.median(p["scale"] for p in passes), "ratio",
              "median over passes; 1 = reference speed, lower = slower host")
        _line("peak_rss_mb", peak_rss, "MB", "ru_maxrss after the timed passes")
        _line("error_rate", failed / attempted, "fraction", f"{failed} of {attempted} operations")
        for name, value, unit, note in wl.report(passes):
            _line(name, value, unit, note)
            record.setdefault("named", {})[name] = {"value": value, "unit": unit, "note": note}
    for line in record["checks"]:
        print(f"  check: {line}")
    for err in record["errors"]:
        print(f"  error: {err}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["result"] = result
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def _units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
