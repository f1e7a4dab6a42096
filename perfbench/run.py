"""The peptaste benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload toxtrain --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  Inputs are generated from --seed (cached under .perfbench/cache);
the program only sees the generated files.  Each workload is a closed
loop with one client: the next job starts when the previous one ends,
until --seconds have passed.  Everything runs in this process through
the package's command-line entry point, with its defaults (--workers 1)
and the BLAS thread count the environment gives; nothing here sets it.

With --trace 0 the last line of standard output is a JSON object with
every end-to-end metric; with --trace 1, every per-layer metric, from
layer spans installed by perfbench/spans.py.  The lines before it give
each metric with its unit and sample count, the run context, the output
checks and known defects.  The full result, and the spans of a traced
run, are written to the run's own directory under .perfbench/out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORKLOADS = ("toxtrain", "design", "screen")
CACHE = os.path.join(".perfbench", "cache")
OUT = os.path.join(".perfbench", "out")

SETUP_REPEATS = 5  # set-up is measured this many times; the median counts
MCC_MODELS = 5  # toxtrain models scored on the held-out set; the median counts

# toxtrain: the paper's RF selector, the five default members, 10 folds,
# with reduced tree counts and a two-descriptor universe (see gen.py)
TOXTRAIN_ARGS = (
    "--selector", "rf", "--selector-trees", "6", "--member-trees", "6",
    "--descriptors", "AAC,GAAC",
)
# design: standard mode at the paper widths (latent 2000, hidden 128).
# With three epochs and no extension the phase controller always stops
# at epoch 3 (phase I is epochs 1-2, phase II is epoch 3), so the epoch
# count, and with it the job's cost, is the same on every seed.
DESIGN_ARGS = (
    "--pattern", "x1xxx", "--mode", "multiple", "--epochs", "3",
    "--extension-epochs", "0", "--latent-dim", "2000", "--hidden-units", "128",
    "--batch-size", "4", "--l1-lambda", "0",
)
ENCODE_DESCRIPTORS = "AAC,DPC,CTDD"
TREE_MEMBERS = ("rf", "gbt-l", "gbt-x")

SCREEN_COMMANDS = ("toxpredict", "physchem", "encode", "cluster", "latent_screen")
# Per-command wall times of the screen workload.  They are per-layer
# metrics, not end-to-end ones: every workload must report every
# end-to-end metric, and across ten seeds on a 2-core Xeon VM their
# spread reached 0.20-0.26, at the largest bound allowed.
COMMAND_METRICS = ("cluster_s", "toxpredict_s", "physchem_s", "latent_screen_s")


def _median(values) -> float:
    return float(statistics.median(values))


class Run:
    """One benchmark run: counts operations and records checks."""

    def __init__(self, cli, out: str):
        self.cli = cli
        self.out = out  # this run's output directory
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, dict] = {}
        self.findings: dict[str, dict] = {}

    def call(self, argv) -> bool:
        """One CLI invocation; a non-zero exit or an exception is a failure."""
        self.attempted += 1
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = self.cli.main([str(a) for a in argv])
        except Exception as exc:  # the benchmark keeps going and reports it
            code, detail = -1, f"{type(exc).__name__}: {exc}"
        else:
            detail = err.getvalue().strip()
        if code != 0:
            self.failed += 1
            self.errors.append(f"{argv[0]} exited {code}: {detail}")
        return code == 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record an output check; a failed check counts as a failed operation."""
        self.attempted += 1
        entry = self.checks.setdefault(name, {"passed": 0, "failed": 0, "detail": ""})
        if ok:
            entry["passed"] += 1
        else:
            self.failed += 1
            entry["failed"] += 1
            entry["detail"] = detail


# --- inputs and set-up ----------------------------------------------------------


def generate(workload: str, seed: int) -> dict:
    """Build inputs in a child process, so generation (which trains the
    screen model once per checkout) never touches this process's memory
    peak; return the loaded manifests: the workload's own inputs and, for
    design and screen, the screen model."""

    def build(name: str, s: int) -> dict:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--root", CACHE,
             "--workload", name, "--seed", str(s)],
            capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            raise RuntimeError(f"generating {name} inputs failed:\n{out.stderr}")
        return gen.load(out.stdout.strip().splitlines()[-1])

    inputs = {"own": build(workload, seed)}
    if workload != "toxtrain":
        inputs["model"] = build("model", gen.MODEL_SEED)
    return inputs


def measure_setup(model_path) -> tuple[float, dict]:
    """Median time to import peptaste.cli in a fresh interpreter, plus the
    median time to load the program's input model (design and screen)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import time; t = time.perf_counter(); import peptaste.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    imports = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        imports.append(float(out.stdout.strip()))
    loads = []
    if model_path is not None:
        from peptaste.toxicity import ensemble

        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            ensemble.load_model(model_path)
            loads.append(time.perf_counter() - t)
    total = _median(imports) + (_median(loads) if loads else 0.0)
    return total, {"import_s": imports, "model_load_s": loads}


# --- jobs --------------------------------------------------------------------------


def toxtrain_job(run: Run, inputs: dict, j: int) -> None:
    data = inputs["own"]["datasets"][j % gen.TOXTRAIN_DATASETS]
    run.call(["toxtrain", "--pos", data["pos"], "--neg", data["neg"],
              "--model-out", _toxtrain_model(run, j), "--seed", j % gen.TOXTRAIN_DATASETS,
              *TOXTRAIN_ARGS])


def _toxtrain_model(run: Run, j: int) -> str:
    return os.path.join(run.out, f"model{j % gen.TOXTRAIN_DATASETS}.json")


def design_job(run: Run, inputs: dict, j: int) -> None:
    k = j % gen.DESIGN_DATASETS
    run.call(["design", "--corpus", inputs["own"]["corpora"][k],
              "--tox-model", inputs["model"]["model"], "--out", _design_out(run, j),
              "--seed", k, *DESIGN_ARGS])


def _design_out(run: Run, j: int) -> str:
    return os.path.join(run.out, f"design{j % gen.DESIGN_DATASETS}")


def screen_pass(run: Run, inputs: dict, clouds: dict, times: dict) -> None:
    """The fast screens, as separate commands, each timed on its own."""
    from peptaste import latent

    s = inputs["own"]
    model = inputs["model"]["model"]
    out = run.out
    commands = {
        "toxpredict": ["toxpredict", "--model", model, "--input", s["library"],
                       "--out", os.path.join(out, "toxpredict.tsv")],
        "physchem": ["physchem", "--input", s["physchem_input"],
                     "--out", os.path.join(out, "physchem.tsv")],
        "encode": ["encode", "--input", s["library_valid"], "--descriptors",
                   ENCODE_DESCRIPTORS, "--out", os.path.join(out, "encode.tsv")],
        "cluster": ["cluster", "--input", s["cluster_input"],
                    "--out", os.path.join(out, "clusters.tsv")],
    }
    for name, argv in commands.items():
        t = time.perf_counter()
        run.call(argv)
        times[name].append(time.perf_counter() - t)
    t = time.perf_counter()
    run.attempted += 1
    try:
        clouds["avoidance"] = latent.select_avoidance(
            clouds["candidates"], clouds["positives"], clouds["negatives"]
        )
        clouds["standard"] = latent.select_standard(clouds["candidates"], clouds["positives"])
    except Exception as exc:  # counted as a failed operation, like a CLI exit
        run.failed += 1
        run.errors.append(f"latent screen raised {type(exc).__name__}: {exc}")
    times["latent_screen"].append(time.perf_counter() - t)


# --- output checks ----------------------------------------------------------------


def _read_tsv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh][1:]


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def toxbench(run: Run, model: str, s: dict, tag: str) -> float | None:
    """Held-out MCC of a model; checks that it reloads and scores every row."""
    out = os.path.join(run.out, f"toxbench-{tag}.tsv")
    if not run.call(["toxbench", "--model", model, "--pos", s["heldout_pos"],
                     "--neg", s["heldout_neg"], "--out", out]):
        return None
    metrics = {k: v for k, v in _read_tsv(out)}
    scored = sum(int(metrics[k]) for k in ("TP", "FP", "TN", "FN"))
    expected = 2 * gen.HELDOUT_PER_CLASS
    run.check("model_reloads_and_scores", scored == expected,
              f"{tag}: scored {scored} of {expected} held-out rows")
    return float(metrics["MCC"])


def check_screen_outputs(run: Run, inputs: dict, clouds: dict) -> None:
    s = inputs["own"]
    out = run.out
    rows = _read_tsv(os.path.join(out, "toxpredict.tsv"))
    library = _read_lines(s["library"])
    errors = [i for i, r in enumerate(rows) if r[3]]
    run.check(
        "toxpredict_errors_are_injected_rows",
        len(rows) == len(library) and errors == s["bad_rows"]
        and all(r[0] == seq for r, seq in zip(rows, library)),
        f"{len(rows)} rows for {len(library)} inputs; error rows {errors[:10]} "
        f"vs injected {s['bad_rows'][:10]}",
    )
    phys_in = _read_lines(s["physchem_input"])
    phys = _read_tsv(os.path.join(out, "physchem.tsv"))
    run.check("physchem_row_per_input", [r[0] for r in phys] == phys_in,
              f"{len(phys)} rows for {len(phys_in)} inputs")
    valid = _read_lines(s["library_valid"])
    from peptaste import descriptors

    enc = _read_tsv(os.path.join(out, "encode.tsv"))
    width = 1 + len(descriptors.column_names(ENCODE_DESCRIPTORS.split(",")))
    run.check("encode_row_per_input",
              [r[0] for r in enc] == valid and all(len(r) == width for r in enc),
              f"{len(enc)} rows for {len(valid)} inputs")
    seqs = _read_lines(s["cluster_input"])
    clusters: dict[str, list] = {}
    for cid, member, is_rep in _read_tsv(os.path.join(out, "clusters.tsv")):
        clusters.setdefault(cid, []).append((member, is_rep == "True"))
    members = sorted(m for c in clusters.values() for m, _ in c)
    run.check(
        "cluster_partitions_input",
        members == sorted(seqs) and all(sum(r for _, r in c) == 1 for c in clusters.values()),
        f"{len(members)} members in {len(clusters)} clusters for {len(seqs)} inputs",
    )
    n = len(clouds["candidates"])
    ranked, scores = clouds["avoidance"]
    kept, dists = clouds["standard"]
    accepted = sorted(sc.index for sc in scores if sc.accepted)
    run.check(
        "latent_screen_consistent",
        sorted(ranked) == accepted and len(scores) == n and len(dists) == n
        and len(kept) == math.ceil(0.25 * n),
        f"{len(ranked)} accepted of {n}; {len(kept)} kept by the standard screen",
    )


def check_design_output(run: Run, out_dir: str) -> None:
    with open(os.path.join(out_dir, "run_manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    bad = []
    for name, digest in manifest["outputs"].items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                bad.append(name)
    run.check("design_manifest_digests_match", not bad, f"mismatched: {bad}")
    candidates = _read_tsv(os.path.join(out_dir, "candidates.tsv"))
    run.check("design_candidates_nonempty", len(candidates) > 0, "no candidates")

    # Known defects, reported with counts; they are neither accepted as
    # correct nor counted as failed operations.
    with open(os.path.join(out_dir, "filter_scores.tsv"), encoding="utf-8") as fh:
        cells = fh.read().count("np.float64(")
    run.findings["filter_scores_numpy_repr"] = {
        "present": cells > 0,
        "cells": cells,
        "what": "filter_scores.tsv writes np.float64(...) for numbers: "
                "pipeline._fmt calls repr on numpy scalars",
    }
    coords = [(float(r[2]), float(r[3])) for r in _read_tsv(os.path.join(out_dir, "latent_coords.tsv"))]
    largest = max(max(abs(x) for x, _ in coords), max(abs(y) for _, y in coords))
    distinct = len({(round(x, 9), round(y, 9)) for x, y in coords})
    run.findings["latent_coords_collapsed"] = {
        "present": distinct == 1,
        "rows": len(coords),
        "distinct_points_at_1e-9": distinct,
        "max_abs_coordinate": largest,
        "what": "the encoder maps every input to the same latent mean, so "
                "latent_coords.tsv holds one point",
    }


# --- the run ----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="peptaste benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "peptaste", "cli.py")):
        print("error: run from the root of a peptaste checkout (src/peptaste missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(CACHE, exist_ok=True)
    out = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out, ignore_errors=True)  # checks never read a stale output
    os.makedirs(out)

    import numpy as np

    inputs = generate(args.workload, args.seed)
    model_path = inputs["model"]["model"] if args.workload != "toxtrain" else None
    setup_s, setup_samples = measure_setup(model_path)

    from peptaste import cli

    import context
    import spans

    run = Run(cli, out)
    clouds = {}
    if args.workload == "screen":
        with np.load(inputs["own"]["points"]) as npz:
            clouds = {k: npz[k] for k in ("positives", "negatives", "candidates")}
    times = {name: [] for name in SCREEN_COMMANDS}  # untraced jobs only
    untimed = {name: [] for name in SCREEN_COMMANDS}

    def job(j: int, times: dict):
        if args.workload == "toxtrain":
            return lambda: toxtrain_job(run, inputs, j)
        if args.workload == "design":
            return lambda: design_job(run, inputs, j)
        return lambda: screen_pass(run, inputs, clouds, times)

    def after_job(j: int) -> None:
        if args.workload == "design":
            check_design_output(run, _design_out(run, j))

    job_times: list[float] = []
    overheads: list[float] = []
    tracer = spans.Tracer()
    deadline = time.perf_counter() + args.seconds
    # The first job of a process pays one-off costs (lazy imports, caches
    # filling) that a user's later jobs do not; it runs inside the run's
    # time but untimed, so it lands neither in job_s nor on the untraced
    # side of the first overhead pair.
    job(0, untimed)()
    j = 0
    while True:
        t = time.perf_counter()
        job(j, times)()
        job_times.append(time.perf_counter() - t)
        after_job(j)
        if args.trace:
            restore = spans.install(tracer)
            try:
                tracer.run_job(job(j, untimed))
            finally:
                restore()
            root = [s for s in tracer.spans if s.parent == -1][-1]
            overheads.append((root.end - root.start) - job_times[-1])
            after_job(j)
        j += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    mccs: list[float] = []
    if args.workload == "toxtrain":
        for k in range(min(j, MCC_MODELS)):
            mcc = toxbench(run, _toxtrain_model(run, k), inputs["own"], f"toxtrain{k}")
            if mcc is not None:
                mccs.append(mcc)
    else:
        mcc = toxbench(run, inputs["model"]["model"], inputs["own"], args.workload)
        if mcc is not None:
            mccs.append(mcc)

    if args.workload == "screen":
        check_screen_outputs(run, inputs, clouds)

    samples: dict[str, list[float]] = {
        "setup_s": [setup_s],
        "job_s": job_times,
        "peak_rss_mb": [peak_rss_mb],
        "tox_heldout_mcc": mccs,
        **{m: times[m.removesuffix("_s")] for m in COMMAND_METRICS},
    }
    # BENCHMARK.json names every metric a run reports, with its unit
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {}
    counts = {}
    if args.trace:
        layers = spans.layer_metrics(tracer)
        layers["trace.overhead_s"] = _median(overheads)
        for m in COMMAND_METRICS:  # 0 where the workload runs no screen command
            layers[m] = _median(samples[m]) if samples[m] else 0.0
        tracer.write(os.path.join(out, "spans.json"))
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
            counts[m["name"]] = len(samples[m["name"]]) if m["name"] in COMMAND_METRICS else tracer.jobs
    else:
        for m in spec["end_to_end"]:
            values = samples[m["name"]]
            if not values:
                run.failed += 1
                run.errors.append(f"no samples for {m['name']}")
                continue
            # job_s is the mean over the timed jobs, the loop's wall time
            # per job: on a shared host the machine's speed switches between
            # levels some 30% apart for tens of seconds at a time.  The
            # median job then jumps to whichever level held most of a run,
            # while the mean weighs each level by the time it held (see
            # README.md for the spreads).  Other metrics take the median.
            value = statistics.fmean(values) if m["name"] == "job_s" else _median(values)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            counts[m["name"]] = len(values) if m["name"] != "setup_s" else SETUP_REPEATS

    ctx = context.run_context(os.getcwd())
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": ctx, "samples": samples,
        "setup_samples": setup_samples, "sample_counts": counts,
        "checks": run.checks, "findings": run.findings, "errors": run.errors,
        "screen_model_weights": inputs.get("model", {}).get("weights"), "result": result,
    }
    if args.trace:
        traced = [s.end - s.start for s in tracer.spans if s.parent == -1]
        detail["trace_jobs_s"] = traced
        accounted = sum(v["value"] for k, v in metrics.items() if k.endswith("_s")
                        and k != "trace.overhead_s" and k not in COMMAND_METRICS)
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} n={counts[name]}")
    if not args.trace:
        print(f"  job_s is the mean of the timed jobs; their median is {_median(job_times):.6g} s")
    if args.workload == "screen" and not args.trace:
        print("screen commands (per-layer metrics, reported here too):")
        for name in COMMAND_METRICS:
            print(f"  {name:<44} {_median(samples[name]):>14.6g} s      n={len(samples[name])}")
    blas = ctx["blas"]
    print(f"context: {ctx['cpu']}, nproc {ctx['nproc']}, python {ctx['python']}, "
          f"numpy {ctx['numpy']}, BLAS {blas['library']} {blas['version']} "
          f"threads={blas['threads']} env={blas['env']}, commit {ctx['git_commit']}, "
          f"src {ctx['src_lines']} lines")
    if args.workload != "toxtrain":
        weights = inputs["model"]["weights"]
        print(f"screen model weights: {weights}")
        if not any(weights[m] > 0 for m in TREE_MEMBERS):
            print("warning: no tree member of the screen model carries weight, "
                  "so tree predict goes unmeasured")
    if args.trace:
        print(f"trace accounting: layer self times plus pipeline.self_s = {accounted:.6f} s "
              f"per job; mean traced job = {statistics.fmean(traced):.6f} s")
    for name, c in run.checks.items():
        status = "ok" if not c["failed"] else f"FAILED {c['failed']}: {c['detail']}"
        print(f"check {name}: {c['passed']} passed, {status}")
    for name, f in run.findings.items():
        if f["present"]:
            print(f"known defect {name}: {json.dumps({k: v for k, v in f.items() if k != 'present'})}")
    for e in run.errors[:10]:
        print(f"error: {e}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
