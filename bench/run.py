"""claimtails benchmark: one closed-loop workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One client runs jobs back to back, each
an in-process `claimtails.cli.main` call on inputs made from the seed, and
checks every job's outputs. `--trace 0` prints the end-to-end metrics;
`--trace 1` runs every job twice, untraced and then traced, and prints the
per-layer metrics. The last line of standard output is one JSON object;
the lines before it repeat every metric with its unit, plus the run's
machine record and output digest. Details, the workloads' rationale and the
coverage of each layer are in bench/README.md.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

T_START = perf_counter()

# one BLAS/OpenMP thread, for this process and the set-up probes it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

MIN_JOBS = 11  # job_s.tail needs at least 10 jobs beyond its percentile
MIN_PAIRS = 3  # traced runs: exact counts come from the first 3 jobs
STOP_STARTING_S = 150.0  # start no job after this much process time
SETUP_PROBES = 2  # extra set-ups in fresh processes, for a median of 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    return p.parse_args(argv)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def git_commit(root: Path):
    """Commit of a git checkout, read from its .git directory; None otherwise."""
    git = root / ".git"
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
    return None


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "seed": seed,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_job(wl, index: int, tracer=None) -> dict:
    """Make job `index`'s inputs, run its commands (timed), then check and
    digest the outputs (untimed)."""
    # imported here: claimtails loads inside the timed set-up, not before it
    from workloads import CheckFailed, digest, run_cli

    ops = wl.prepare(index)
    rec = {"index": index, "ops": len(ops), "failed": 0, "units": 0.0, "seconds": 0.0,
           "cpu_s": 0.0, "op_seconds": {}, "est": None, "replicates_failed": 0, "errors": []}
    outcomes = []
    with tracer.tracing(index) if tracer else nullcontext():
        for op in ops:
            c0, t0 = cpu_seconds(), perf_counter()
            try:
                outcome = run_cli(op.argv)
            except Exception as exc:  # a traceback from the CLI is a failed operation
                outcome = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            rec["seconds"] += dt
            rec["cpu_s"] += cpu_seconds() - c0
            rec["op_seconds"][op.label] = dt
            outcomes.append(outcome)
    for op, outcome in zip(ops, outcomes):
        try:
            if outcome != 0:
                raise CheckFailed(f"the CLI returned {outcome!r}")
            facts = op.check()
        except Exception as exc:  # a missing, unreadable or wrong output
            rec["failed"] += 1
            rec["errors"].append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        rec["units"] += facts["units"]
        rec["replicates_failed"] += facts.get("replicates_failed", 0)
        if facts.get("est") is not None:
            rec["est"] = facts["est"]
    rec["digest"] = digest(wl.job_dir(index))
    wl.cleanup(index)
    return rec


def set_up(args, workdir: Path):
    """Import claimtails, write the shared inputs and run one warm-up job.
    Returns (workload, warm-up record)."""
    src = ROOT / "src"
    if not (src / "claimtails" / "__init__.py").is_file():
        raise SystemExit(f"error: no claimtails sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()
    return wl, run_job(wl, 0)


def probe_setup(args) -> float:
    """Set up again in a fresh process and return its set-up time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def measure(wl, seconds: float, tracer=None) -> tuple:
    """Closed loop: run jobs 1, 2, ... back to back until `seconds` have
    passed and enough jobs are done. With a tracer, each job runs untraced
    and then traced. Returns (untraced records, traced records)."""
    plain, traced = [], []
    need = MIN_PAIRS if tracer else MIN_JOBS
    start = perf_counter()
    index = 1
    while len(plain) < need or perf_counter() - start < seconds:
        if perf_counter() - T_START > STOP_STARTING_S:
            if len(plain) < need:
                raise SystemExit(f"error: only {len(plain)} jobs finished in {STOP_STARTING_S:.0f} s")
            break
        plain.append(run_job(wl, index))
        if tracer:
            traced.append(run_job(wl, index, tracer))
        index += 1
    return plain, traced


def tally(jobs: list) -> tuple:
    """(operations attempted, operations failed) over job records."""
    return sum(j["ops"] for j in jobs), sum(j["failed"] for j in jobs)


def ratio(num, den) -> float:
    return num / den if den else 0.0


def end_to_end(jobs: list, setup_samples: list) -> tuple:
    """End-to-end metrics and the facts printed beside them."""
    times = sorted(j["seconds"] for j in jobs)
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (times[n - MIN_JOBS], "s"),  # MIN_JOBS - 1 jobs beyond it
        "work_per_s": (ratio(sum(j["units"] for j in jobs), sum(times)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "job_s.tail.percentile": 100.0 * (n - MIN_JOBS + 1) / n,
        "jobs": n,
        "setup_samples_s": setup_samples,
    }
    return metrics, notes


def per_layer(wl, tracer, plain: list, traced: list) -> dict:
    """Per-layer metrics from the traced jobs. Exact counts are per job over
    the first MIN_PAIRS jobs, so two traced runs of one seed repeat them;
    times use every traced job. A layer the workload never calls reads 0."""
    t = tracer.total
    first = {j["index"] for j in traced[:MIN_PAIRS]}
    n_first = len(first)
    traced_s = sum(j["seconds"] for j in traced)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    put("core_dist.survival.calls", t("core_dist.survival", 0, first) / n_first, "count")
    for fn in ("core_dist.survival", "core_dist.quantile", "tail_model.adjusted_cdf"):
        put(f"{fn}.ns_per_elem", 1e9 * ratio(t(fn, 1), t(fn, 3)), "ns")
    put("tail_model.adjusted_cdf.calls", t("tail_model.adjusted_cdf", 0, first) / n_first, "count")
    q_calls = t("tail_model.adjusted_quantile", 0, first)
    put("tail_model.adjusted_quantile.calls", q_calls / n_first, "count")
    put("tail_model.adjusted_quantile.us_per_call",
        1e6 * ratio(t("tail_model.adjusted_quantile", 1), t("tail_model.adjusted_quantile", 0)), "us")
    put("tail_model.cdf_per_quantile",
        ratio(t("tail_model.adjusted_cdf", 0, first, parent="tail_model.adjusted_quantile"), q_calls),
        "ratio")
    draws = wl.sizes.get("n_thin", 0) * n_first  # one thinned sample per job
    put("claim_process.thinned_cdf_closed.calls_per_draw",
        ratio(t("claim_process.thinned_cdf_closed", 0, first), draws), "ratio")

    obj = "estimation.mad_objective"
    for stage in ("base", "upper", "lower"):
        put(f"{obj}.calls.{stage}", t(obj, 0, first, tag=stage) / n_first, "count")
        put(f"{obj}.us_per_call.{stage}", 1e6 * ratio(t(obj, 1, tag=stage), t(obj, 0, tag=stage)), "us")
    put("estimation.penalty_frac", ratio(t(obj, 4), t(obj, 0)), "ratio")
    # the objective including the kernels it calls, so the remainder of the
    # pipeline's time is optimizer and model-builder overhead
    put("estimation.objective_share", ratio(t(obj, 1), t("estimation.fit_pipeline", 1)), "ratio")
    put("estimation.fit_pipeline.ms",
        1e3 * ratio(t("estimation.fit_pipeline", 1), t("estimation.fit_pipeline", 0)), "ms")

    tail = "gof.pareto_tail_test"
    for k in (500, 50):
        put(f"{tail}.ms.k{k}", 1e3 * ratio(t(tail, 1, tag=f"k{k}"), t(tail, 0, tag=f"k{k}")), "ms")
    # computed, not measured: bytes of one reps x (k+1) float64 matrix
    put(f"{tail}.bytes_computed.k500",
        8 * wl.sizes.get("reps", 0) * (500 + 1) if t(tail, 0, first, tag="k500") else 0, "bytes")
    put("gof.qq_coordinates.ms",
        1e3 * ratio(t("gof.qq_coordinates", 1), t("gof.qq_coordinates", 0)), "ms")

    boot = "resampling.bootstrap_fit"
    put(f"{boot}.ms_per_replicate",
        1e3 * ratio(t(boot, 1), t(boot, 0) * wl.sizes.get("B", 0)), "ms")
    put("resampling.closure_share",
        ratio(t("estimation.fit_pipeline", 1, parent=boot), t(boot, 1)), "ratio")
    put("resampling.replicates_failed",
        sum(j["replicates_failed"] for j in traced[:MIN_PAIRS]) / n_first, "count")

    read_s = t("cli.read_loss_csv", 1)
    write_s = t("cli.write_json", 1) + t("cli.write_csv", 1)
    put("cli.read_loss_csv.ms", 1e3 * ratio(read_s, t("cli.read_loss_csv", 0)), "ms")
    put("cli.write.ms", 1e3 * write_s / len(traced), "ms")
    put("cli.io_share", ratio(read_s + write_s, traced_s), "ratio")

    put("proc.cpu_s_per_work",
        ratio(sum(j["cpu_s"] for j in plain), sum(j["units"] for j in plain)), "s")
    put("trace.overhead_frac", ratio(traced_s, sum(j["seconds"] for j in plain)) - 1.0, "ratio")
    ests = [j["est"] for j in traced if j["est"] is not None]
    put("est_err", statistics.median(ests) if ests else 0.0, "abs")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir = ROOT / ".bench_work" / tag
    if args.setup_probe:
        try:
            set_up(args, workdir)
            print(json.dumps({"setup_s": perf_counter() - T_START}))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    # probes first, so the warm-up job directly precedes the measured loop
    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    t0 = perf_counter()
    wl, warm = set_up(args, workdir)
    setup_samples.append(perf_counter() - t0)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced = measure(wl, args.seconds, tracer)
    for a, b in zip(plain, traced):
        if a["digest"] != b["digest"]:  # tracing must not change any output
            b["failed"] += 1
            b["errors"].append(f"job {b['index']}: traced outputs differ from untraced")

    jobs = [warm] + plain + traced
    attempted, failed = tally(jobs)
    machine = machine_record(args.seed)
    run_digest = hashlib.sha256("".join(j["digest"] for j in plain).encode()).hexdigest()
    if tracer:
        metrics = per_layer(wl, tracer, plain, traced)
        tracer.write(workdir / "trace.json")
        notes = {"pairs": len(traced)}
    else:
        metrics, notes = end_to_end(plain, setup_samples)
    ests = [j["est"] for j in plain if j["est"] is not None]
    notes.update({
        "failed_frac": failed / attempted,
        "est_err": statistics.median(ests) if ests else None,
        "unit_of_work": wl.unit,
        "output_digest": run_digest,
        "errors": [e for j in jobs for e in j["errors"]][:20],
    })
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "notes": notes, "metrics": metrics_json,
              "jobs": [{k: j[k] for k in ("index", "seconds", "op_seconds", "units", "failed", "digest")}
                       for j in jobs]}
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    for key, value in notes.items():
        print(f"# {key} {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_json,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
