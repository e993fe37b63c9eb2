"""Command-line interface: CSV ingestion, configuration, and subcommands
driving the library with report and plot-coordinate output files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import replace
from itertools import cycle
from pathlib import Path

import numpy as np

from . import claim_process, estimation, gof, resampling
from .core_dist import Family, OrderedSample, edf_positions
from .estimation import MadConfig, PipelinePlan, Weighting
from .tail_model import (
    AdjustedModel,
    adjusted_cdf,
    adjusted_survival,
    model_from_json,
    model_to_dict,
)


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# i/o helpers

def _format_floats(obj):
    """Round-trip floats through 17 significant digits for byte-stable JSON."""
    if isinstance(obj, float):
        return float(f"{obj:.17g}")
    if isinstance(obj, dict):
        return {k: _format_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_format_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(_format_floats(obj), sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header: list, rows) -> None:
    """Rows as wide as the header; floats (numpy's too) in 17 significant
    digits, any other cell as `str`.  One %-format writes every cell."""
    cells = []
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"every row of {path.name} must have {len(header)} cells")
        cells.extend(row)
    ends = [","] * (len(header) - 1) + ["\n"]
    # one template piece per (cell type, separator), shared by all its cells
    piece = {(t, end): ("%.17g" if issubclass(t, float) else "%s") + end
             for t in set(map(type, cells)) for end in ends}
    template = "".join(map(piece.__getitem__, zip(map(type, cells), cycle(ends))))
    _atomic_write(path, ("%s\n" + template) % (",".join(header), *cells))


def read_loss_csv(path: str, column: str = "loss") -> OrderedSample:
    """Read one positive numeric loss column from a headered CSV.

    Blank lines are skipped and data rows numbered from 2, as by
    `csv.DictReader`; a short row reads as an empty value.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read input file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or column not in header:
            raise InputError(f"column '{column}' not found in {path}")
        col = len(header) - 1 - header[::-1].index(column)  # last one wins, as in a dict
        raw = [row[col].strip() if col < len(row) else "" for row in reader if row]
    try:
        values = np.array([float(text) for text in raw])
    except ValueError:
        values = None
    if values is None or not np.all(np.isfinite(values) & (values > 0)):
        # row by row only to name the first bad row
        for row_no, text in enumerate(raw, start=2):
            try:
                value = float(text)
            except ValueError:
                raise InputError(f"non-numeric value '{text}' at row {row_no}") from None
            if not np.isfinite(value) or value <= 0:
                raise InputError(f"non-positive loss {value} at row {row_no}")
    if not raw:
        raise InputError(f"no loss values found in {path}")
    return OrderedSample.from_values(values, label=os.path.basename(path))


# ---------------------------------------------------------------------------
# configuration

def read_config_file(path: str) -> dict:
    """Flat key=value config; '#' starts a comment."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {line_no} is not key=value: '{line}'")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_WEIGHTINGS = {
    "unweighted": Weighting.UNWEIGHTED,
    "normalized": Weighting.NORMALIZED,
    "sqrt": Weighting.SQRT_PREFERENCE,
}
_BASE_FAMILIES = ("pareto", "gpd")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--input", help="input CSV path")
    p.add_argument("--column", default=None, help="loss column name (default: loss)")
    p.add_argument("--threshold", type=float, default=None,
                   help="excess threshold / base scale")
    p.add_argument("--x-lower", type=float, default=None)
    p.add_argument("--x-upper", type=float, default=None)
    p.add_argument("--base-family", choices=_BASE_FAMILIES, default=None)
    p.add_argument("--weighting", choices=sorted(_WEIGHTINGS), default=None)
    p.add_argument("--rank-range", default=None, metavar="LO:HI")
    p.add_argument("--boot-reps", type=int, default=None, metavar="B")
    p.add_argument("--test-k", type=int, default=None, metavar="K")
    p.add_argument("--test-reps", type=int, default=None, metavar="R")
    p.add_argument("--seed", type=int, default=None, metavar="S")
    p.add_argument("--out", default=None, metavar="DIR")
    p.add_argument("--margins", choices=["original", "normal", "frechet"],
                   default=None)
    p.add_argument("--model", default=None, help="model JSON file")


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {}
    if args.config:
        cfg.update(read_config_file(args.config))
    for key, value in vars(args).items():
        if key in ("config", "command", "func") or value is None:
            continue
        cfg[key] = value
    cfg.setdefault("column", "loss")
    cfg.setdefault("seed", 0)
    cfg.setdefault("out", "claimtails-out")
    return cfg


def _cfg_float(cfg, key, default=None):
    if key not in cfg:
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise InputError(f"{key} must be a number, got '{cfg[key]}'") from None


def _cfg_int(cfg, key, default=None, minimum=None):
    if key not in cfg:
        return default
    try:
        value = int(cfg[key])
    except ValueError:
        raise InputError(f"{key} must be an integer, got '{cfg[key]}'") from None
    if minimum is not None and value < minimum:
        raise InputError(f"{key} must be >= {minimum}, got {value}")
    return value


def _cfg_choice(cfg, key, choices, default):
    """A config file bypasses argparse, so check the flag's choices here."""
    value = cfg.get(key, default)
    if value not in choices:
        raise InputError(f"{key} must be one of {', '.join(sorted(choices))}, got '{value}'")
    return value


def _read_model(cfg: dict, command: str) -> AdjustedModel:
    if "model" not in cfg:
        raise InputError(f"{command} needs --model with a fitted model JSON")
    try:
        return model_from_json(Path(cfg["model"]).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read model file {cfg['model']}: {exc}") from None


def _mad_config(cfg: dict) -> MadConfig:
    weighting = _WEIGHTINGS[_cfg_choice(cfg, "weighting", _WEIGHTINGS, "normalized")]
    rank_range = None
    if cfg.get("rank_range"):
        try:
            lo, hi = (int(part) for part in str(cfg["rank_range"]).split(":"))
        except ValueError:
            raise InputError(
                f"--rank-range must be LO:HI with integer ranks, got '{cfg['rank_range']}'"
            ) from None
        rank_range = (lo, hi)
    return MadConfig(weighting=weighting, rank_range=rank_range)


def _build_plan(cfg: dict, sample: OrderedSample) -> PipelinePlan:
    family = Family(_cfg_choice(cfg, "base_family", _BASE_FAMILIES, "gpd"))
    threshold = _cfg_float(cfg, "threshold")
    if family == Family.PARETO:
        # just below the smallest loss; from 2**24 (~1.7e7) up, x1 - 1e-9 rounds back to x1
        x1 = float(sample.values[0])
        default = min(x1 - 1e-9, float(np.nextafter(x1, 0.0)))
        fixed = {"sigma": threshold if threshold is not None else default}
    else:
        fixed = {"loc": threshold if threshold is not None else 0.0}
    base_cfg = _mad_config(cfg)
    return PipelinePlan(
        base_family=family,
        base_fixed=fixed,
        x_lower=_cfg_float(cfg, "x_lower"),
        x_upper=_cfg_float(cfg, "x_upper"),
        base_config=base_cfg,
        upper_config=replace(PipelinePlan.upper_config, weighting=base_cfg.weighting),
        lower_config=replace(PipelinePlan.lower_config, weighting=base_cfg.weighting),
    )


# ---------------------------------------------------------------------------
# subcommands

def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    seed = _cfg_int(cfg, "seed", minimum=0)
    sample = read_loss_csv(cfg["input"], cfg["column"])
    plan = _build_plan(cfg, sample)
    result = estimation.fit_pipeline(sample, plan)
    out = Path(cfg["out"])
    report = {
        "model": model_to_dict(result.model),
        "base_fit": result.base_fit.as_dict(),
        "upper_fit": result.upper_fit.as_dict() if result.upper_fit else None,
        "lower_fit": result.lower_fit.as_dict() if result.lower_fit else None,
        "warnings": list(result.warnings),
        "n": sample.n,
        "seed": seed,
    }
    write_json(out / "fit_report.json", report)
    # standalone model file, consumable by the qq and simulate subcommands
    write_json(out / "model.json", model_to_dict(result.model))
    pos = edf_positions(sample.n)
    write_csv(out / "edf.csv", ["x", "prob"],
              zip(sample.values.tolist(), pos.tolist()))
    grid = np.geomspace(float(sample.values[0]), float(sample.values[-1]), 500)
    write_csv(
        out / "model_curve.csv",
        ["x", "cdf", "survival"],
        zip(
            grid.tolist(),
            np.asarray(adjusted_cdf(result.model, grid)).tolist(),
            np.asarray(adjusted_survival(result.model, grid)).tolist(),
        ),
    )
    print(f"wrote fit report to {out}")
    return 0


def cmd_tail_test(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    sample = read_loss_csv(cfg["input"], cfg["column"])
    k = _cfg_int(cfg, "test_k", minimum=3)
    if k is None:
        raise InputError("tail test needs --test-k")
    reps = _cfg_int(cfg, "test_reps", 10_000, minimum=1)
    result = gof.pareto_tail_test(sample, k, reps=reps, seed=_cfg_int(cfg, "seed", minimum=0))
    out = Path(cfg["out"])
    write_json(out / "tail_test.json", result.as_dict())
    print(f"m={result.m} k={result.k} p_value={result.p_value:.4f}")
    return 0


def cmd_bootstrap(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    sample = read_loss_csv(cfg["input"], cfg["column"])
    plan = _build_plan(cfg, sample)
    B = _cfg_int(cfg, "boot_reps", 200, minimum=1)
    # replicates on every CPU
    summary = resampling.bootstrap_fit(
        sample, lambda resample: estimation.fit_pipeline(resample, plan).theta,
        B, _cfg_int(cfg, "seed", minimum=0), keep_replicates=True, workers=_cpu_count(),
    )
    out = Path(cfg["out"])
    write_json(out / "bootstrap.json", summary.as_dict())
    names = sorted({k for rep in summary.replicates for k in rep})
    rows = [[rep.get(name, float("nan")) for name in names] for rep in summary.replicates]
    write_csv(out / "bootstrap_replicates.csv", names, rows)
    print(f"bootstrap B={B}, failed={summary.failed}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    out = Path(cfg["out"])
    seed = _cfg_int(cfg, "seed", minimum=0)
    mode = cfg.get("mode", "inflation")
    if mode == "inflation":
        sc = claim_process.InflationScenario(
            alpha=_cfg_float(cfg, "alpha", 1.0),
            inflation_factor=_cfg_float(cfg, "inflation_factor", 1.05),
            years=_cfg_int(cfg, "years", 10, minimum=1),
            threshold=_cfg_float(cfg, "threshold", 0.01),
            base_rate=_cfg_float(cfg, "base_rate", 100.0),
        )
        sim = claim_process.simulate_inflation_scenario(sc, seed)
        for kind in ("raw", "inflated"):
            for year, s in enumerate(sim[kind], start=1):
                write_csv(out / f"{kind}_year{year:02d}.csv", ["loss"],
                          ((v,) for v in s.values.tolist()))
        print(f"wrote {sc.years} years of raw/inflated samples to {out}")
    elif mode == "mechanism":
        model = _read_model(cfg, "mechanism simulation")
        n = _cfg_int(cfg, "n", 10_000, minimum=1)
        s = claim_process.sample_mechanism(model, n, seed)
        write_csv(out / "mechanism_sample.csv", ["loss"],
                  ((v,) for v in s.values.tolist()))
        print(f"wrote {n} mechanism draws to {out}")
    elif mode == "thinning":
        sigma = _cfg_float(cfg, "sigma", 1.0)
        sigma_t = _cfg_float(cfg, "sigma_t", 1.0)
        n = _cfg_int(cfg, "n", 10_000, minimum=1)
        s = claim_process.sample_thinned(sigma, sigma_t, n, seed)
        write_csv(out / "thinned_sample.csv", ["loss"], ((v,) for v in s.values.tolist()))
        print(f"wrote {n} thinned draws to {out}")
    else:
        raise InputError(f"unknown simulation mode '{mode}'")
    return 0


def cmd_qq(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    sample = read_loss_csv(cfg["input"], cfg["column"])
    model = _read_model(cfg, "qq")
    margins = cfg.get("margins", "original")
    coords = gof.qq_coordinates(sample, model, gof.Margins(margins))
    out = Path(cfg["out"])
    write_csv(
        out / f"qq_{margins}.csv",
        ["theoretical", "empirical"],
        zip(coords["theoretical"].tolist(), coords["empirical"].tolist()),
    )
    print(f"wrote Q-Q coordinates ({margins}); dropped {coords['dropped']} points")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimtails",
        description="Heavy-tail claim size modeling and inference toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("fit", cmd_fit, "fit the composite tail-adjusted model to a loss CSV"),
        ("tail-test", cmd_tail_test, "Monte-Carlo longest-run test for a Pareto tail"),
        ("bootstrap", cmd_bootstrap, "bootstrap the configured fit"),
        ("simulate", cmd_simulate, "simulate mechanism/thinning/inflation samples"),
        ("qq", cmd_qq, "emit Q-Q plot coordinates"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if name == "simulate":
            p.add_argument("--mode", choices=["inflation", "mechanism", "thinning"],
                           default=None)
            p.add_argument("--alpha", type=float, default=None)
            p.add_argument("--inflation-factor", type=float, default=None)
            p.add_argument("--years", type=int, default=None)
            p.add_argument("--base-rate", type=float, default=None)
            p.add_argument("--sigma", type=float, default=None)
            p.add_argument("--sigma-t", type=float, default=None)
            p.add_argument("-n", type=int, default=None)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
