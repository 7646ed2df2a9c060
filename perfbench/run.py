"""declab benchmark runner: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

Set-up (importing declab, generating the inputs from the seed, building the
models and one untimed warm-up item) is timed in this process and in a few
fresh child processes; ``setup_s`` is the median.  References are computed
after set-up and outside every timed region.  Then whole passes over the
workload's items run until ``--seconds`` have elapsed; every pass is checked
against the references.  With ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics come from the traced ones.

The last line of standard output is the result object; the line before it
records the seed, versions, BLAS library and thread count.  Spans of the
last traced pass are written under ``.perfbench_out/`` in the checkout.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

# BLAS threads are pinned before numpy is imported.  One thread keeps the
# arithmetic order, and so every output, identical from run to run, and
# leaves the second core of a small machine to the rest of the system.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 6
# max_err is reported as correct decimal digits, -log10(max_err); an exact
# match is capped at the 17 significant digits the CSV files carry.
ERR_FLOOR = 1e-17

# End-to-end metrics: (name, unit).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("err_digits", "digits"), ("ok_frac", "ratio"))


def _import_declab():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "declab", "__init__.py")):
        raise SystemExit(f"perfbench: no declab sources under {src}")
    sys.path.insert(0, src)
    import declab
    import declab.cli

    if not os.path.abspath(declab.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported declab from {declab.__file__}, not {src}")
    return declab


def set_up(args, workdir):
    """Everything ``setup_s`` covers; returns (declab, workload, seconds)."""
    started = time.perf_counter()
    dl = _import_declab()
    import workloads

    workload = workloads.build(dl, args.workload, args.seed, workdir, args.small)
    workload.warmup.run(dl)
    return dl, workload, time.perf_counter() - started


def probe_setup(args):
    """Set-up times of fresh interpreters (an import cannot be repeated in-process)."""
    samples = []
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--probe-setup"] + (["--small"] if args.small else [])
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_pass(dl, workload, tracer=None):
    for item in workload.items:
        item.reset()
    gc.collect()
    failures = []
    cpu = time.process_time()
    started = time.perf_counter()
    for index, item in enumerate(workload.items):
        if tracer is not None:
            tracer.item = index
        try:
            item.run(dl)
        except Exception as exc:  # an item that raises is a failed item; keep going
            failures.append(f"{type(exc).__name__}: {exc}")
        else:
            failures.append(None)
    wall = time.perf_counter() - started
    return {"wall": wall, "cpu": time.process_time() - cpu, "failures": failures}


def check_pass(workload, result):
    """Compare each item that ran against its reference.

    Returns (failed item names, wrong item names, outputs checked, max deviation).
    """
    failed, wrong, checked, worst = [], [], 0, 0.0
    for index, item in enumerate(workload.items):
        if result["failures"][index] is not None:
            failed.append(item.name)
            continue
        try:
            errors = item.errors()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = {"output": (math.inf, 0.0)}
            result["failures"][index] = f"unreadable output: {exc}"
        checked += 1
        worst = max([worst] + [err for err, _ in errors.values()])
        if not all(err <= tol for err, tol in errors.values()):
            failed.append(item.name)
            wrong.append(item.name)
    return failed, wrong, checked, worst


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "declab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args):
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "small": args.small,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def run_passes(dl, workload, seconds, tracer=None):
    """Whole passes until ``seconds`` have elapsed, each checked after it ends.

    With a tracer, untraced and traced passes alternate, starting untraced.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                result = run_pass(dl, workload, tracer)
            finally:
                tracer.uninstall()
            result["layers"] = tracer.summarize()
            result["csv_bytes"] = sum(item.output_bytes() for item in workload.items)
        else:
            result = run_pass(dl, workload)
        result["traced"] = traced
        result["failed"], result["wrong"], result["checked"], result["max_err"] = check_pass(
            workload, result)
        passes.append(result)
        if time.perf_counter() >= deadline and len(passes) >= (2 if tracer else 1):
            return passes


def measure(args):
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        dl, workload, setup_here = set_up(args, workdir)
        if args.probe_setup:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        setup_samples = [setup_here] + ([] if args.trace else probe_setup(args))
        workload.prepare_references()

        import tracing

        tracer = tracing.Tracer() if args.trace else None
        passes = run_passes(dl, workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import workloads

    untraced = [p for p in passes if not p["traced"]]
    attempted = len(workload.items) * len(passes)
    failed = sum(len(p["failed"]) for p in passes)
    max_err = max(p["max_err"] for p in passes)
    notes = {}
    for p in passes:
        for item, note in zip(workload.items, p["failures"]):
            if note is not None:
                notes[item.name] = note
        for name in p["wrong"]:
            notes.setdefault(name, "output outside tolerance")
    known = sorted(item.name for item in workload.items if item.known_failure)
    unexpected = sorted(set(notes) - set(known))
    if tracer is not None:
        metrics = per_layer(tracer, passes)
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(p["wall"] for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # A failed item has no output and so no deviation; ok_frac counts it.
            "err_digits": (-math.log10(max(max_err, ERR_FLOOR))
                           if any(p["checked"] for p in passes) else 0.0),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    info = environment(args)
    info.update({
        "items": [item.name for item in workload.items],
        "known_failures": known,
        "failures": notes,
        "unexpected_failures": unexpected,
        "max_err": max_err,
        "tolerances": workloads.TOL,
        "setup_samples_s": setup_samples,
        "pass_wall_s": [p["wall"] for p in untraced],
        "traced_pass_wall_s": [p["wall"] for p in passes if p["traced"]],
    })
    outcome = {
        "correct": not any(p["wrong"] for p in passes) and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump({"info": info, "result": outcome}, handle, indent=1)
    if tracer is not None:
        with open(stem + ".spans.jsonl", "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "item", "work"), span))) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(outcome), flush=True)
    return 0


def per_layer(tracer, passes):
    """Medians over the traced passes of every metric in ``tracing.METRICS``."""
    import tracing

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = {}
    for p in traced:
        extra = {"cli.csv_bytes": p["csv_bytes"], "trace.pass_s": p["wall"]}
        for name, value in tracing.layer_metrics(p["layers"], tracer.absent, extra).items():
            values.setdefault(name, []).append(value)
    values["process.cpu_s"] = [p["cpu"] for p in untraced]
    overhead = (statistics.median(p["wall"] for p in traced)
                - statistics.median(p["wall"] for p in untraced))
    values["trace.overhead_s"] = [overhead]
    metrics = {}
    for name, unit in tracing.METRICS:
        if values[name][0] is None:
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        else:
            # Counts repeat exactly from pass to pass; keep them whole numbers.
            median = statistics.median if unit == "s" else statistics.median_low
            metrics[name] = {"value": median(values[name]), "unit": unit}
    return metrics


def selfcheck():
    """Run every workload once at reduced size and check what it reports."""
    from tracing import LAYERS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
                1: [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace_flag in (0, 1):
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                       "--seed", "1", "--seconds", "1", "--trace", str(trace_flag), "--small"]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            label = f"{workload} trace={trace_flag}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            lines = done.stdout.strip().splitlines()
            info = json.loads(lines[-2])["info"]
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
            if got != expected[trace_flag]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected[trace_flag]))}")
            for name, m in result["metrics"].items():
                ok_number = isinstance(m.get("value"), (int, float)) and not isinstance(
                    m.get("value"), bool)
                if not ok_number and not (trace_flag and m.get("absent")):
                    problems.append(f"{label}: {name} has no value")
            # Only registered known failures may fail; a fix may remove them.
            if not result["correct"] or not set(info["failures"]) <= set(info["known_failures"]):
                problems.append(f"{label}: unexpected failures {info['failures']}")
            if trace_flag == 0:
                still = sorted(set(info["failures"]) & set(info["known_failures"]))
                values = ", ".join(f"{name} {m['value']:.6g} {m['unit']}"
                                   for name, m in result["metrics"].items())
                print(f"{label}: {values} (known failures still failing: {still or 'none'})")
            else:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                shares = ", ".join(f"{layer} {m[layer + '.s'] / m['trace.pass_s']:.2f}"
                                   for layer in LAYERS if m[layer + ".s"])
                print(f"{label}: share of traced pass by layer: {shares}")
    for problem in problems:
        print("SELFCHECK FAIL", problem)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("scenarios", "chi_long_t", "oracle_check",
                                               "az_sectors"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes (self-check)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload once at reduced size and check the output")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
