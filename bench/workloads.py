"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed, runs one job as
in-process `claimtails.cli.main` calls, and checks every output of the job
against references computed here, independently of claimtails where the
formula is short. Why each workload exists is recorded in `README.md`
beside this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtr

from claimtails import cli, claim_process, core_dist, tail_model

# The known composite law every composite input is drawn from: a GPD base,
# a shifted-Weibull upper adjuster mixed in with p_upper above x_upper, and
# an endpoint-pinned GPD lower adjuster below x_lower.
GAMMA = 0.6
BASE_SIGMA = 1.0
SHIFT, W_SIGMA, W_BETA, P_UPPER = 20.0, 30.0, 2.0, 0.5
X_LOWER, GAMMA_ADJ_L = 0.2, -0.5
TRUE_MODEL = tail_model.AdjustedModel(
    core_dist.gpd(GAMMA, BASE_SIGMA, loc=0.0),
    tail_model.UpperAdjustment(core_dist.shifted_weibull(SHIFT, W_SIGMA, W_BETA), P_UPPER, SHIFT),
    tail_model.LowerAdjustment(tail_model.lower_gpd_adjuster(GAMMA_ADJ_L, X_LOWER), X_LOWER),
)
PARETO_ALPHA = 1.2  # law of the tail-test input: Pareto(alpha, sigma=1)
FIT_FLAGS = ["--base-family", "gpd", "--threshold", "0",
             "--x-lower", str(X_LOWER), "--x-upper", str(SHIFT)]
# Kolmogorov-Smirnov critical value c/sqrt(n) with c = 2.7: a false alarm
# rate near 1e-6 per check, so thousands of checks stay quiet on a correct
# program.
KS_C = 2.7
# |gamma_hat - 0.6| tolerance of the fit check, c/sqrt(n): the base-stage
# standard error measured at n = 50 000 is about 1.7/sqrt(n), so this is
# about seven standard errors.
GAMMA_TOL_C = 12.0


class CheckFailed(Exception):
    """An output of a job is missing or wrong."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One CLI command of a job and the check of its outputs.

    `check()` raises (CheckFailed for a wrong value, any other exception for
    a missing or unreadable output) or returns facts about the outputs:
    "units" of work completed, and optionally "est", the error of the
    command's tail-index estimate, and "replicates_failed".
    """

    label: str
    argv: list
    out: Path
    check: Callable


def run_cli(argv) -> int:
    """One in-process CLI call with its console output discarded."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return cli.main(argv)


def write_loss_csv(path: Path, values) -> None:
    """Headered one-column CSV; `repr` round-trips every float exactly."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("loss\n" + "\n".join(map(repr, np.asarray(values).tolist())) + "\n")


def read_csv(path: Path) -> tuple:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float)
    return header, rows.reshape(len(lines) - 1, len(header))


def digest(directory: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file in a tree."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def job_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def job_seed(seed: int, index: int) -> int:
    """CLI --seed of a job, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# references, written from the formulas rather than through claimtails

def true_cdf(x: np.ndarray) -> np.ndarray:
    """CDF of TRUE_MODEL."""
    x = np.asarray(x, dtype=float)
    s_base = np.power(1.0 + GAMMA * x / BASE_SIGMA, -1.0 / GAMMA)
    s_adj_u = np.exp(-np.power(np.maximum(x - SHIFT, 0.0) / W_SIGMA, W_BETA))
    s = np.where(x >= SHIFT, s_base * (P_UPPER * s_adj_u + 1.0 - P_UPPER), s_base)
    sigma_l = -GAMMA_ADJ_L * X_LOWER
    z = np.maximum(1.0 + GAMMA_ADJ_L * np.minimum(x, X_LOWER) / sigma_l, 0.0)
    f_adj_l = 1.0 - np.power(z, -1.0 / GAMMA_ADJ_L)
    return np.where(x <= X_LOWER, (1.0 - s_base) * f_adj_l, 1.0 - s)


def thinned_cdf(x: np.ndarray, sigma: float = 1.0, sigma_t: float = 1.0) -> np.ndarray:
    """Exponential losses thinned with probability exp(-x/sigma_t)."""
    rate2 = (sigma + sigma_t) / (sigma * sigma_t)
    return 1.0 - ((sigma + sigma_t) * np.exp(-x / sigma) - sigma_t * np.exp(-x * rate2)) / sigma


def longest_run(tail: np.ndarray, sigma: float) -> int:
    """Longest run of EDF positions above the Hill-fitted Pareto CDF, by a
    plain scan of the ordered tail."""
    k = tail.size
    gamma = sum(math.log(v / sigma) for v in tail) / k
    best = run = 0
    for i, v in enumerate(tail, start=1):
        above = i / (k + 1) > 1.0 - (sigma / v) ** (1.0 / gamma)
        run = run + 1 if above else 0
        best = max(best, run)
    return best


def ks_distance(sorted_values: np.ndarray, cdf_values: np.ndarray) -> float:
    n = sorted_values.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf_values), np.max(cdf_values - (i - 1) / n)))


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """A workload: sizes, fixed inputs, and the operations of job i."""

    name = ""
    unit = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.sizes = self.TINY if tiny else self.SIZES

    def setup(self) -> None:
        """Write the inputs shared by every job."""

    def job_dir(self, index: int) -> Path:
        return self.workdir / f"job{index:04d}"

    def prepare(self, index: int) -> list:
        raise NotImplementedError

    def cleanup(self, index: int) -> None:
        shutil.rmtree(self.job_dir(index), ignore_errors=True)


class PipelineFit(Workload):
    """One `fit` of the composite law on a large sample of its own."""

    name = "pipeline_fit"
    unit = "fitted dataset"
    SIZES = {"n": 50_000}
    TINY = {"n": 3_000}

    def prepare(self, index):
        d = self.job_dir(index)
        n = self.sizes["n"]
        data = claim_process.sample_mechanism(TRUE_MODEL, n, job_rng(self.seed, index))
        write_loss_csv(d / "losses.csv", data.values)
        out = d / "fit"
        argv = ["fit", "--input", str(d / "losses.csv"), *FIT_FLAGS,
                "--seed", str(job_seed(self.seed, index)), "--out", str(out)]
        return [Op("fit", argv, out, lambda: self.check_fit(out, n))]

    @staticmethod
    def check_fit(out: Path, n: int):
        report = json.loads((out / "fit_report.json").read_text())
        gamma_hat = float(report["base_fit"]["theta"]["gamma"])
        tol = GAMMA_TOL_C / math.sqrt(n)
        check(abs(gamma_hat - GAMMA) <= tol,
              f"gamma_hat {gamma_hat} is more than {tol:.3g} from {GAMMA}")
        for stage in (report["base_fit"], report["upper_fit"], report["lower_fit"]):
            check(isinstance(stage, dict) and isinstance(stage.get("evaluations"), int)
                  and stage["evaluations"] > 0, "a stage's evaluation count is missing")
        check(report.get("n") == n, "report n differs from the input size")
        return {"units": 1, "est": abs(gamma_hat - GAMMA)}


class BootstrapCI(Workload):
    """One `bootstrap` of the composite fit: many small fits."""

    name = "bootstrap_ci"
    unit = "bootstrap replicate"
    SIZES = {"n": 2_000, "B": 4}
    TINY = {"n": 2_000, "B": 2}

    def prepare(self, index):
        d = self.job_dir(index)
        data = claim_process.sample_mechanism(TRUE_MODEL, self.sizes["n"], job_rng(self.seed, index))
        write_loss_csv(d / "losses.csv", data.values)
        out = d / "bootstrap"
        argv = ["bootstrap", "--input", str(d / "losses.csv"), *FIT_FLAGS,
                "--boot-reps", str(self.sizes["B"]),
                "--seed", str(job_seed(self.seed, index)), "--out", str(out)]
        return [Op("bootstrap", argv, out, lambda: self.check_bootstrap(out, self.sizes["B"]))]

    @staticmethod
    def check_bootstrap(out: Path, B: int):
        summary = json.loads((out / "bootstrap.json").read_text())
        header, rows = read_csv(out / "bootstrap_replicates.csv")
        se, failed = summary["standard_errors"], summary["failed"]
        check(summary.get("B") == B, "bootstrap B differs from --boot-reps")
        check(bool(se) and all(math.isfinite(float(v)) for v in se.values()),
              "a bootstrap standard error is missing or not finite")
        check(isinstance(failed, int) and failed >= 0, "failed replicates are not counted")
        check(rows.shape[0] == B - failed, "replicate rows do not match B - failed")
        gammas = rows[:, header.index("gamma")]
        return {"units": B - failed, "est": float(np.median(np.abs(gammas - GAMMA))),
                "replicates_failed": failed}


class Diagnostics(Workload):
    """One diagnostic pass: two tail tests, a Q-Q plot and a thinned sample."""

    name = "diagnostics"
    unit = "diagnostic pass"
    SIZES = {"n_tail": 5_000, "ks": (500, 50), "reps": 10_000, "n_qq": 2_000, "n_thin": 10_000}
    TINY = {"n_tail": 600, "ks": (500, 50), "reps": 100, "n_qq": 300, "n_thin": 500}

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        (self.workdir / "model.json").write_text(tail_model.model_to_json(TRUE_MODEL))

    def prepare(self, index):
        s = self.sizes
        d = self.job_dir(index)
        rng = job_rng(self.seed, index)
        pareto_sample = core_dist.sample(core_dist.pareto(PARETO_ALPHA, 1.0), s["n_tail"], rng)
        qq_sample = claim_process.sample_mechanism(TRUE_MODEL, s["n_qq"], rng)
        write_loss_csv(d / "pareto.csv", pareto_sample.values)
        write_loss_csv(d / "composite.csv", qq_sample.values)
        cli_seed = str(job_seed(self.seed, index))
        ops = []
        for k in s["ks"]:
            out = d / f"tail_k{k}"
            argv = ["tail-test", "--input", str(d / "pareto.csv"), "--test-k", str(k),
                    "--test-reps", str(s["reps"]), "--seed", cli_seed, "--out", str(out)]
            ops.append(Op(f"tail_test_k{k}", argv, out,
                          lambda out=out, k=k: self.check_tail(
                              out, pareto_sample.values, k, s["reps"], k == s["ks"][0])))
        out = d / "qq"
        argv = ["qq", "--input", str(d / "composite.csv"), "--model", str(self.workdir / "model.json"),
                "--margins", "normal", "--out", str(out)]
        ops.append(Op("qq", argv, out, lambda out=out: self.check_qq(out, qq_sample.values)))
        out = d / "thinning"
        argv = ["simulate", "--mode", "thinning", "-n", str(s["n_thin"]),
                "--seed", cli_seed, "--out", str(out)]
        ops.append(Op("thinning", argv, out, lambda out=out: self.check_thinning(out, s["n_thin"])))
        return ops

    @staticmethod
    def check_tail(out: Path, values: np.ndarray, k: int, reps: int, report_est: bool):
        result = json.loads((out / "tail_test.json").read_text())
        m, alpha_hat, p = int(result["m"]), float(result["alpha_hat"]), float(result["p_value"])
        n = values.size
        check(result.get("k") == k and result.get("reps") == reps, "k or reps differ")
        m_ref = longest_run(values[n - k:], float(values[n - 2 - k]))
        check(m == m_ref, f"tail test m={m}, direct scan gives {m_ref}")
        check(0.0 <= p <= 1.0, f"p-value {p} outside [0, 1]")
        facts = {"units": 0.25}  # a pass is four commands
        if report_est:
            facts["est"] = abs(1.0 / alpha_hat - 1.0 / PARETO_ALPHA)
        return facts

    @staticmethod
    def check_qq(out: Path, values: np.ndarray):
        header, rows = read_csv(out / "qq_normal.csv")
        n = values.size
        check(header == ["theoretical", "empirical"] and rows.shape[0] == n,
              "Q-Q output has the wrong columns or dropped points")
        pos = np.arange(1, n + 1) / (n + 1)
        f_true = true_cdf(values)
        # normal margins: theoretical = Phi^-1(i/(n+1)), empirical = Phi^-1(F(x_i))
        check(np.max(np.abs(ndtr(rows[:, 0]) - pos)) <= 1e-9,
              "theoretical coordinates do not map back to the EDF positions")
        check(np.max(np.abs(ndtr(rows[:, 1]) - f_true)) <= 1e-9,
              "empirical coordinates disagree with the composite CDF")
        check(np.max(np.abs(f_true - pos)) <= KS_C / math.sqrt(n) + 1.0 / n,
              "sample is too far from the composite law")
        return {"units": 0.25}

    @staticmethod
    def check_thinning(out: Path, n: int):
        _, rows = read_csv(out / "thinned_sample.csv")
        x = rows[:, 0]
        check(x.size == n and np.all(np.diff(x) >= 0) and np.all(x > 0),
              "thinned sample has the wrong size or order")
        ks = ks_distance(x, thinned_cdf(x))
        check(ks <= KS_C / math.sqrt(n), f"thinned sample KS distance {ks:.4f} too large")
        return {"units": 0.25}


WORKLOADS = {w.name: w for w in (PipelineFit, BootstrapCI, Diagnostics)}
