"""Command-line interface: CSV ingestion, configuration, and subcommands
driving the library with report and plot-coordinate output files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from itertools import cycle
from pathlib import Path

import numpy as np

from . import claim_process, estimation, gof, resampling
from .core_dist import Family, OrderedSample
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
    """Floats by their round-tripping repr (np.float64 is a float); other
    numpy scalars as the Python ones they hold."""
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2, default=np.generic.item) + "\n")


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


def _plain_column(body: str, col: int):
    """Column `col` of the data rows `body`, parsed by `np.loadtxt`, or None
    where it might read otherwise than `csv.reader` and `float`.

    In text with no quote, no non-ASCII character and no carriage return
    outside a CRLF line end, both readers take each line as a row of the
    cells between its commas, skip only empty lines, strip the same
    whitespace and parse a cell with the same C function.  `loadtxt` refuses
    the cells only `float` takes (with underscores), so its ValueError means
    doubt too; text without a data row, on which it warns, goes to `csv`."""
    if (not body or body.isspace() or not body.isascii() or '"' in body
            or "\r" in body and body.count("\r") != body.count("\r\n")):
        return None
    try:
        # a list of lines, not a StringIO: its 4-byte-per-character copy of
        # the text, once freed, would lift glibc's mmap threshold and with it
        # the heap the process keeps
        return np.loadtxt(body.split("\n"), delimiter=",", usecols=col, comments=None,
                          ndmin=1)
    except ValueError:
        return None


def read_loss_csv(path: str, column: str = "loss") -> OrderedSample:
    """Read one positive numeric loss column from a headered CSV.

    Blank lines are skipped and data rows numbered from 2, as by
    `csv.DictReader`; a short row reads as an empty value.  Plain text is
    parsed by `np.loadtxt` (see `_plain_column`); other text, and text with
    a bad value, by `csv`, which names the first bad row.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read input file {path}: {exc}") from exc
    with fh:
        header = next(csv.reader(fh), None)
        if header is None or column not in header:
            raise InputError(f"column '{column}' not found in {path}")
        col = len(header) - 1 - header[::-1].index(column)  # last one wins, as in a dict
        body = fh.read()
    values = _plain_column(body, col)
    if values is not None and np.all(np.isfinite(values) & (values > 0)):
        return OrderedSample.from_values(values, label=os.path.basename(path))
    rows = csv.reader(io.StringIO(body, newline=""))
    raw = [row[col].strip() if col < len(row) else "" for row in rows if row]
    try:
        values = np.array(raw, dtype=float)  # parses each text as float() does
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


def _read_sample(cfg: dict, command: str) -> OrderedSample:
    if cfg["input"] is None:
        raise InputError(f"{command} needs --input with a loss CSV")
    return read_loss_csv(cfg["input"], cfg["column"])


def _read_model(cfg: dict, command: str) -> AdjustedModel:
    if cfg["model"] is None:
        raise InputError(f"{command} needs --model with a fitted model JSON")
    try:
        return model_from_json(Path(cfg["model"]).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read model file {cfg['model']}: {exc}") from None


# ---------------------------------------------------------------------------
# settings: one parser each, for a flag and a config entry alike

def _text(key, value):
    return value


def _number(key, value):
    try:
        number = float(value)
    except ValueError:
        raise InputError(f"{key} must be a number, got '{value}'") from None
    if not math.isfinite(number):
        raise InputError(f"{key} must be a finite number, got '{value}'")
    return number


def _integer(minimum):
    def parse(key, value):
        try:
            number = int(value)
        except ValueError:
            raise InputError(f"{key} must be an integer, got '{value}'") from None
        if number < minimum:
            raise InputError(f"{key} must be >= {minimum}, got {number}")
        return number
    return parse


def _one_of(*choices):
    def parse(key, value):
        if value not in choices:
            raise InputError(f"{key} must be one of {', '.join(sorted(choices))}, got '{value}'")
        return value
    return parse


def _rank_range(key, value):
    """LO:HI as a pair of ints; MadConfig checks that 1 <= LO <= HI."""
    try:
        lo, hi = (int(part) for part in value.split(":"))
    except ValueError:
        raise InputError(f"--rank-range must be LO:HI with integer ranks, got '{value}'") from None
    return lo, hi


# name: (parser, default, metavar)
_SETTINGS = {
    "input": (_text, None, "CSV"),
    "column": (_text, "loss", "NAME"),
    "base_family": (_one_of("pareto", "gpd"), "gpd", "{pareto,gpd}"),
    # fit's default is the family's (see _build_plan), simulate's 0.01
    "threshold": (_number, None, "X"),
    "x_lower": (_number, None, "X"),
    "x_upper": (_number, None, "X"),
    "weighting": (_one_of(*(w.value for w in Weighting)), "normalized",
                  "{unweighted,normalized,sqrt}"),
    "rank_range": (_rank_range, None, "LO:HI"),
    "boot_reps": (_integer(1), 200, "B"),
    "test_k": (_integer(3), None, "K"),
    "test_reps": (_integer(1), 10_000, "R"),
    "model": (_text, None, "JSON"),
    "margins": (_one_of(*(m.value for m in gof.Margins)), "original",
                "{original,normal,frechet}"),
    "mode": (_one_of("inflation", "mechanism", "thinning"), "inflation",
             "{inflation,mechanism,thinning}"),
    "alpha": (_number, 1.0, "A"),
    "inflation_factor": (_number, 1.05, "F"),
    "years": (_integer(1), 10, "Y"),
    "base_rate": (_number, 100.0, "RATE"),
    "sigma": (_number, 1.0, "S"),
    "sigma_t": (_number, 1.0, "S"),
    "n": (_integer(1), 10_000, "N"),
    "seed": (_integer(0), 0, "S"),
    "out": (_text, "claimtails-out", "DIR"),
}


def _settings(args: argparse.Namespace) -> dict:
    """The command's settings, typed: config entries, each overridden by its
    flag, go through their setting's parser; an unset one takes its default.
    A config file may hold any command's settings, and nothing else."""
    given = read_config_file(args.config) if args.config else {}
    for key in given:
        if key not in _SETTINGS:
            raise InputError(f"unknown config key '{key}' in {args.config}")
    given.update((key, value) for key, value in vars(args).items()
                 if key in _SETTINGS and value is not None)
    settings = {}
    for key in _COMMANDS[args.command][2]:
        parse, default, _ = _SETTINGS[key]
        settings[key] = parse(key, given[key]) if key in given else default
    return settings


def _build_plan(cfg: dict, sample: OrderedSample) -> PipelinePlan:
    family = Family(cfg["base_family"])
    threshold = cfg["threshold"]
    if family == Family.PARETO:
        # just below the smallest loss; from 2**24 (~1.7e7) up, x1 - 1e-9 rounds back to x1
        x1 = float(sample.values[0])
        default = min(x1 - 1e-9, float(np.nextafter(x1, 0.0)))
        fixed = {"sigma": threshold if threshold is not None else default}
    else:
        fixed = {"loc": threshold if threshold is not None else 0.0}
    return PipelinePlan(
        base_family=family,
        base_fixed=fixed,
        x_lower=cfg["x_lower"],
        x_upper=cfg["x_upper"],
        config=MadConfig(Weighting(cfg["weighting"]), cfg["rank_range"]),
    )


# ---------------------------------------------------------------------------
# subcommands

def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def cmd_fit(cfg: dict) -> int:
    sample = _read_sample(cfg, "fit")
    result = estimation.fit_pipeline(sample, _build_plan(cfg, sample))
    out = Path(cfg["out"])
    report = {
        "model": model_to_dict(result.model),
        "base_fit": result.base_fit.as_dict(),
        "upper_fit": result.upper_fit.as_dict() if result.upper_fit else None,
        "lower_fit": result.lower_fit.as_dict() if result.lower_fit else None,
        "warnings": list(result.warnings),
        "n": sample.n,
        "seed": cfg["seed"],
    }
    write_json(out / "fit_report.json", report)
    # standalone model file, consumable by the qq and simulate subcommands
    write_json(out / "model.json", model_to_dict(result.model))
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


def cmd_tail_test(cfg: dict) -> int:
    sample = _read_sample(cfg, "tail-test")
    if cfg["test_k"] is None:
        raise InputError("tail test needs --test-k")
    result = gof.pareto_tail_test(sample, cfg["test_k"], reps=cfg["test_reps"], seed=cfg["seed"])
    out = Path(cfg["out"])
    write_json(out / "tail_test.json", result.as_dict())
    print(f"m={result.m} k={result.k} p_value={result.p_value:.4f}")
    return 0


def cmd_bootstrap(cfg: dict) -> int:
    sample = _read_sample(cfg, "bootstrap")
    plan = _build_plan(cfg, sample)
    B = cfg["boot_reps"]
    # replicates on every CPU
    summary = resampling.bootstrap_fit(
        sample, lambda resample: estimation.fit_pipeline(resample, plan).theta,
        B, cfg["seed"], workers=_cpu_count(),
    )
    out = Path(cfg["out"])
    write_json(out / "bootstrap.json", summary.as_dict())
    names = sorted({k for rep in summary.replicates for k in rep})
    rows = [[rep.get(name, float("nan")) for name in names] for rep in summary.replicates]
    write_csv(out / "bootstrap_replicates.csv", names, rows)
    print(f"bootstrap B={B}, failed={summary.failed}")
    return 0


def cmd_simulate(cfg: dict) -> int:
    out, seed, n = Path(cfg["out"]), cfg["seed"], cfg["n"]
    if cfg["mode"] == "inflation":
        sc = claim_process.InflationScenario(
            alpha=cfg["alpha"],
            inflation_factor=cfg["inflation_factor"],
            years=cfg["years"],
            threshold=0.01 if cfg["threshold"] is None else cfg["threshold"],
            base_rate=cfg["base_rate"],
        )
        sim = claim_process.simulate_inflation_scenario(sc, seed)
        for kind in ("raw", "inflated"):
            for year, s in enumerate(sim[kind], start=1):
                write_csv(out / f"{kind}_year{year:02d}.csv", ["loss"],
                          ((v,) for v in s.values.tolist()))
        print(f"wrote {sc.years} years of raw/inflated samples to {out}")
    elif cfg["mode"] == "mechanism":
        model = _read_model(cfg, "mechanism simulation")
        s = claim_process.sample_mechanism(model, n, seed)
        write_csv(out / "mechanism_sample.csv", ["loss"],
                  ((v,) for v in s.values.tolist()))
        print(f"wrote {n} mechanism draws to {out}")
    else:
        s = claim_process.sample_thinned(cfg["sigma"], cfg["sigma_t"], n, seed)
        write_csv(out / "thinned_sample.csv", ["loss"], ((v,) for v in s.values.tolist()))
        print(f"wrote {n} thinned draws to {out}")
    return 0


def cmd_qq(cfg: dict) -> int:
    sample = _read_sample(cfg, "qq")
    model = _read_model(cfg, "qq")
    margins = cfg["margins"]
    coords = gof.qq_coordinates(sample, model, gof.Margins(margins))
    out = Path(cfg["out"])
    write_csv(
        out / f"qq_{margins}.csv",
        ["theoretical", "empirical"],
        zip(coords["theoretical"].tolist(), coords["empirical"].tolist()),
    )
    print(f"wrote Q-Q coordinates ({margins}); dropped {coords['dropped']} points")
    return 0


_SAMPLE = ("input", "column")
_PLAN = ("base_family", "threshold", "x_lower", "x_upper", "weighting", "rank_range")

# name: (function, help, the settings it reads)
_COMMANDS = {
    "fit": (cmd_fit, "fit the composite tail-adjusted model to a loss CSV",
            (*_SAMPLE, *_PLAN, "seed", "out")),
    "tail-test": (cmd_tail_test, "Monte-Carlo longest-run test for a Pareto tail",
                  (*_SAMPLE, "test_k", "test_reps", "seed", "out")),
    "bootstrap": (cmd_bootstrap, "bootstrap the configured fit",
                  (*_SAMPLE, *_PLAN, "boot_reps", "seed", "out")),
    "simulate": (cmd_simulate, "simulate mechanism/thinning/inflation samples",
                 ("mode", "alpha", "inflation_factor", "years", "threshold", "base_rate",
                  "model", "sigma", "sigma_t", "n", "seed", "out")),
    "qq": (cmd_qq, "emit Q-Q plot coordinates", (*_SAMPLE, "model", "margins", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes --config and its own settings, as strings."""
    parser = argparse.ArgumentParser(
        prog="claimtails",
        description="Heavy-tail claim size modeling and inference toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, doc, keys) in _COMMANDS.items():
        # no abbreviations: qq would read --mode as --model
        p = sub.add_parser(name, help=doc, allow_abbrev=False)
        p.add_argument("--config", metavar="FILE",
                       help="key=value config file; flags override it")
        for key in keys:
            _, default, metavar = _SETTINGS[key]
            p.add_argument(f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-"),
                           dest=key, metavar=metavar,
                           help=None if default is None else f"default: {default}")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_settings(args))
    except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
