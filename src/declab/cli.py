"""Batch front door: scenario configs in, CSV time series and a JSON report out.

Configs are flat ``key = value`` lines with dotted key paths (no nesting, no
quoting), chosen so diffs stay reviewable and parsing needs nothing beyond
the standard library.  Each experiment writes one CSV (comma separated, LF
endings, 17 significant digits so doubles round-trip losslessly) plus a
report echoing the scenario and summarizing every numeric series.  Identical
config and seed produce byte-identical CSV.
"""

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .errors import DeclabError, InsufficientData, NonDecaying, ParseError, ValidationError
from .models import (
    MAX_DENSE_DIM,
    ArakiZurekModel,
    SpectralDensity,
    SpinModel,
    az_coherence,
    chi_trajectory,
    spin_asymptotics,
    spin_trajectory,
)
from .operators import hs_norm, unit_scale
from .states import (
    BALL_TOL,
    DensityOperator,
    alternate_decomposition,
    bloch_to_density,
    haar_unitary,
    random_density,
    spectral_decomposition,
)
from .superselection import (
    MIN_ENVELOPE_POINTS,
    block_diagonal_sectors,
    default_fit_window,
    fit_power_law_decay,
    sector_probabilities,
)

# Largest t_grid.count a config may ask for; the checked-in scenarios use at most 601.
MAX_TIME_POINTS = 10**6


@dataclass
class ScenarioConfig:
    """Validated scenario: experiment kind plus the inputs its runner takes."""

    experiment: str
    raw: dict
    out_csv: str
    out_report: str
    seed: Optional[int] = None
    inputs: dict = field(default_factory=dict)


@dataclass
class RunReport:
    """Everything a run produced, reproducible from the emitted CSV."""

    scenario: dict
    csv_path: str
    report_path: str
    series: dict
    decay_fit: Optional[dict]
    wall_time_s: float
    version: str = __version__

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "csv": self.csv_path,
            "series": self.series,
            "decay_fit": self.decay_fit,
            "wall_time_s": self.wall_time_s,
            "version": self.version,
        }


def _parse_lines(text: str) -> dict:
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(lineno, f"expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(lineno, "empty key")
        if key in entries:
            raise ParseError(lineno, f"duplicate key {key!r}")
        entries[key] = value
    return entries


_NOT_FINITE = "expected finite numbers, not inf or nan"


def _finite(key, values):
    if not all(abs(v) < math.inf for v in values):
        raise ValidationError(key, _NOT_FINITE)
    return values


class _Entries:
    """Typed, consumed-key-tracking view of the raw key/value map."""

    def __init__(self, raw):
        self.raw = raw
        self.used = set()

    def get(self, key, default=None):
        self.used.add(key)
        return self.raw.get(key, default)

    def require(self, key):
        if key not in self.raw:
            raise ValidationError(key, "missing required key")
        return self.get(key)

    def floats(self, key, count=None):
        text = self.require(key)
        try:
            values = [float(x) for x in text.split(",")]
        except ValueError:
            raise ValidationError(key, f"expected comma-separated numbers, got {text!r}")
        if count is not None and len(values) != count:
            raise ValidationError(key, f"expected {count} values, got {len(values)}")
        return _finite(key, values)

    def number(self, key, kind=float, default=None):
        if key not in self.raw and default is not None:
            return default
        text = self.require(key)
        try:
            return _finite(key, [kind(text)])[0]
        except ValueError:
            raise ValidationError(key, f"expected a {kind.__name__}, got {text!r}")

    def unknown(self):
        return sorted(set(self.raw) - self.used)


def _parse_env(e: _Entries) -> SpectralDensity:
    kind = e.require("env.kind")
    try:
        if kind == "gaussian":
            return SpectralDensity.gaussian(e.number("env.s"))
        if kind in ("uniform", "bump"):
            a = e.number("env.a")
            b = e.number("env.b")
            ctor = SpectralDensity.uniform if kind == "uniform" else SpectralDensity.bump
            return ctor(a, b)
        if kind == "discrete":
            text = e.require("env.points")
            pairs = []
            for chunk in text.split(","):
                v, _, w = chunk.partition(":")
                pairs.append(_finite("env.points", [float(v), float(w)]))
            return SpectralDensity.discrete(np.asarray(pairs))
    except ValidationError:
        raise
    except (ValueError, DeclabError) as exc:
        raise ValidationError("env", str(exc))
    raise ValidationError("env.kind", f"unknown kind {kind!r}")


def _parse_complex_matrix(e: _Entries, key: str, dim: int) -> np.ndarray:
    text = e.require(key)
    try:
        entries = np.array([complex(x) for x in text.split(",")])  # complex() strips blanks
    except ValueError:
        raise ValidationError(key, f"expected comma-separated complex numbers, got {text!r}")
    if entries.size != dim * dim:
        raise ValidationError(key, f"expected {dim * dim} entries for a {dim}x{dim} matrix")
    if not np.isfinite(entries).all():  # not abs(), which overflows for 1e308+1e308j
        raise ValidationError(key, _NOT_FINITE)
    return entries.reshape(dim, dim)


def _parse_t_grid(e: _Entries) -> np.ndarray:
    start = e.number("t_grid.start")
    stop = e.number("t_grid.stop")
    count = e.number("t_grid.count", kind=int)
    if count < 2:
        raise ValidationError("t_grid.count", "need at least 2 grid points")
    if count > MAX_TIME_POINTS:
        raise ValidationError("t_grid.count", f"{count} grid points exceed {MAX_TIME_POINTS}")
    if start < 0:
        raise ValidationError("t_grid.start", "start must be nonnegative")
    if not stop > start:
        raise ValidationError("t_grid.stop", "stop must exceed start")
    return np.linspace(start, stop, count)


def _check_chi_phases(t_grid, env, gap):
    # chi is taken at gap * t; its phases v gap t over the support, and their
    # spread (hi - lo) gap t, must stay finite doubles.
    lo, hi = env.support()
    reach = max(hi - lo, abs(lo), abs(hi))
    if not math.isfinite(float(t_grid[-1]) * gap * reach):
        raise ValidationError("t_grid.stop", f"stop {t_grid[-1]:g} times the coupling gap {gap:g} "
                              f"times the support's width or reach {reach:g} is not finite")


def _check_hamiltonian_phases(t_grid, h_s):
    # exp(-i h_s t) takes the phases e t of h_s's eigenvalues e, |e| <= its HS
    # norm, which must stay finite doubles.  The norm is taken of h_s scaled to
    # entries below 1, so it overflows only where it exceeds the double range.
    scale = unit_scale(h_s)
    norm = hs_norm(scale * h_s) / scale
    if not math.isfinite(float(t_grid[-1]) * norm):
        raise ValidationError("t_grid.stop", f"stop {t_grid[-1]:g} times the system Hamiltonian's "
                              f"norm {norm:g} is not finite")


def _check_spin_phases(t_grid, model):
    # The rotation angle 2 |(a_1, a_2, a_3 + lam x)| t is largest at an end of
    # the support, and must stay a finite double there.
    a1, a2, a3 = model.a
    field = max(math.hypot(a1, a2, a3 + model.lam * x) for x in model.env_diag.support())
    if not math.isfinite(2.0 * field * float(t_grid[-1])):
        raise ValidationError("t_grid.stop", f"stop {t_grid[-1]:g} times twice the largest field "
                              f"{field:g} on the environment's support is not finite")


def _parse_bloch(e: _Entries) -> np.ndarray:
    p = np.asarray(e.floats("initial.bloch", 3))
    if np.linalg.norm(p) > 1 + BALL_TOL:
        raise ValidationError("initial.bloch", "polarization vector outside the unit ball")
    return p


def _parse_initial(e: _Entries, dim: int) -> DensityOperator:
    if "initial.bloch" in e.raw and "initial.matrix" not in e.raw:
        if dim != 2:
            raise ValidationError(
                "initial.bloch", f"a polarization vector needs a 2-dimensional system, not {dim}"
            )
        return bloch_to_density(_parse_bloch(e))
    mat = _parse_complex_matrix(e, "initial.matrix", dim)
    try:
        return DensityOperator(mat)
    except DeclabError as exc:
        raise ValidationError("initial.matrix", str(exc))


def _parse_araki_zurek(e: _Entries, t_grid, env) -> dict:
    dims = e.floats("model.sector_dims")
    if not all(d >= 1 and d.is_integer() for d in dims):
        raise ValidationError("model.sector_dims", "sector dimensions must be positive integers")
    dims = [int(d) for d in dims]
    dim = sum(dims)
    if dim > MAX_DENSE_DIM:
        raise ValidationError("model.sector_dims", f"system dimension {dim} exceeds {MAX_DENSE_DIM}")
    lambdas = e.floats("model.lambdas")
    if len(lambdas) != len(dims):
        raise ValidationError("model.lambdas", "need one eigenvalue per sector")
    delta = e.number("model.delta")
    if "model.h_s" in e.raw:
        h_s = _parse_complex_matrix(e, "model.h_s", dim)
        _check_hamiltonian_phases(t_grid, h_s)
    else:
        h_s = np.zeros((dim, dim))
    try:
        model = ArakiZurekModel(block_diagonal_sectors(dims), lambdas, h_s, env, delta)
    except (DeclabError, ValueError) as exc:
        raise ValidationError("model", str(exc))
    _check_chi_phases(t_grid, env, max(lambdas) - min(lambdas))
    return {"t_grid": t_grid, "model": model, "initial_state": _parse_initial(e, dim)}


def _parse_spin(e: _Entries, t_grid, env) -> dict:
    a = e.floats("model.a", 3)
    b = e.number("model.b")
    lam = e.number("model.lam")
    try:
        model = SpinModel(a=np.asarray(a), b=b, lam=lam, env_diag=env)
    except ValueError as exc:
        raise ValidationError("model.b", str(exc))
    _check_spin_phases(t_grid, model)
    return {"t_grid": t_grid, "model": model, "initial_bloch": _parse_bloch(e)}


def _parse_spin_asymptotics(e: _Entries, t_grid, env) -> dict:
    inputs = _parse_spin(e, t_grid, env)
    inputs["fit_delta"] = e.number("fit.delta", default=1.0)
    if inputs["fit_delta"] <= 0:
        raise ValidationError("fit.delta", "delta must be positive")
    inputs["fit_window"] = tuple(e.floats("fit.window", 2)) if "fit.window" in e.raw else None
    lo, hi = inputs["fit_window"] or default_fit_window(t_grid)
    inside = np.count_nonzero((t_grid >= lo) & (t_grid <= hi))
    if inside < MIN_ENVELOPE_POINTS:
        raise ValidationError("fit.window" if inputs["fit_window"] else "t_grid.count",
                              f"{inside} grid points in the fit window [{lo:g}, {hi:g}], "
                              f"the fit needs {MIN_ENVELOPE_POINTS}")
    return inputs


def _parse_chi_scan(e: _Entries, t_grid, env) -> dict:
    _check_chi_phases(t_grid, env, 1.0)
    return {"t_grid": t_grid, "env": env}


def _parse_decompose_demo(e: _Entries) -> dict:
    dim = e.number("demo.dim", kind=int, default=4)
    if dim < 2:
        raise ValidationError("demo.dim", "dimension must be at least 2")
    if dim > MAX_DENSE_DIM:
        raise ValidationError("demo.dim", f"dimension {dim} exceeds {MAX_DENSE_DIM}")
    if "seed" not in e.raw:
        raise ValidationError("seed", "decompose_demo draws random states; a seed is required")
    return {"seed": e.number("seed", kind=int), "dim": dim}


def parse_config(text) -> ScenarioConfig:
    """Parse and validate scenario text (bytes or str) into a ScenarioConfig.

    Raises ParseError with the offending line, or ValidationError with the
    offending dotted key path.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    raw = _parse_lines(text)
    e = _Entries(raw)

    experiment = e.require("experiment")
    if experiment not in EXPERIMENTS:
        raise ValidationError("experiment", f"unknown experiment {experiment!r}")
    spec = EXPERIMENTS[experiment]

    cfg = ScenarioConfig(
        experiment=experiment,
        raw=dict(raw),
        out_csv=e.get("out.csv", f"{experiment}.csv"),
        out_report=e.get("out.report", f"{experiment}_report.json"),
        seed=e.number("seed", kind=int) if "seed" in raw else None,
    )
    timed = (_parse_t_grid(e), _parse_env(e)) if spec.timed else ()
    cfg.inputs = spec.parse(e, *timed)

    leftover = e.unknown()
    if leftover:
        raise ValidationError(leftover[0], "unknown key")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header, cells):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in cells)
    _atomic_write(path, "\n".join(lines) + "\n")


def _columns(rows):
    """(cells, values) per column of ``rows``: its CSV cells, and its values as
    floats, None for a column holding strings.  A column of floats (numpy's
    too) is formatted from Python floats in one pass; other cells by ``_fmt``."""
    columns = []
    for column in zip(*rows):
        if all(isinstance(v, float) for v in column):
            values = np.array(column, dtype=float).tolist()
            columns.append((["%.17g" % v for v in values], values))
        else:
            numeric = not any(isinstance(v, str) for v in column)
            values = [float(v) for v in column] if numeric else None
            columns.append(([_fmt(v) for v in column], values))
    return columns


def _series_summary(header, columns) -> dict:
    """min, max and final value of every numeric column.  ``.17g`` round-trips
    every double, so these are the values that land in the file."""
    return {name: {"min": min(values), "max": max(values), "final": values[-1]}
            for name, (_, values) in zip(header, columns) if values is not None}


def _run_araki_zurek(t_grid, model, initial_state):
    norms, chis = az_coherence(model, initial_state, t_grid)
    probs = sector_probabilities(initial_state, model.sectors)
    header = ["t", "offdiag_hs", "offdiag_tr", *(f"prob_{i}" for i in range(probs.size)),
              "chi_re", "chi_im"]
    rows = [[t, hs, tr, *probs, chi.real, chi.imag] for t, hs, tr, chi in zip(t_grid, *norms, chis)]
    return header, rows, None


def _run_spin(t_grid, model, initial_bloch):
    rows = [[t, *pol] for t, pol in zip(t_grid, spin_trajectory(model, initial_bloch, t_grid))]
    return ["t", "p_x", "p_y", "p_z"], rows, None


def _run_spin_asymptotics(t_grid, model, initial_bloch, fit_delta, fit_window):
    samples = spin_asymptotics(model, initial_bloch, t_grid)
    rows = [[t, d] for t, d in samples]
    try:
        fit = fit_power_law_decay(samples, fit_delta, fit_window)
    except (InsufficientData, NonDecaying) as exc:
        # Whether the series decays and fits is known only once it is computed.
        return ["t", "trace_dist"], rows, {"error": str(exc)}
    return ["t", "trace_dist"], rows, {**asdict(fit), "window": list(fit.window)}


def _run_chi_scan(t_grid, env):
    chis = chi_trajectory(env, t_grid)
    rows = [[t, chi.real, chi.imag, abs(chi)] for t, chi in zip(t_grid, chis)]
    return ["t", "chi_re", "chi_im", "chi_abs"], rows, None


def _run_decompose_demo(seed, dim):
    rng = np.random.default_rng(seed)
    w = random_density(dim, rng)
    unitary = haar_unitary(dim, rng)
    spectral = spectral_decomposition(w)
    alternate = alternate_decomposition(w, unitary)
    rows = [["spectral", i, weight, 0.0] for i, weight in enumerate(spectral.weights)]
    for i, (weight, proj) in enumerate(zip(alternate.weights, alternate.projectors)):
        dist = min(float(np.linalg.norm(proj.matrix - sp.matrix)) for sp in spectral.projectors)
        rows.append(["alternate", i, weight, dist])
    return ["kind", "index", "weight", "min_dist_to_spectral"], rows, None


class Experiment(NamedTuple):
    """parse(entries[, t_grid, env if timed]) -> inputs; run(**inputs) -> header, rows, fit."""

    timed: bool
    parse: Callable[..., dict]
    run: Callable[..., tuple]


EXPERIMENTS = {
    "araki_zurek": Experiment(True, _parse_araki_zurek, _run_araki_zurek),
    "spin": Experiment(True, _parse_spin, _run_spin),
    "spin_asymptotics": Experiment(True, _parse_spin_asymptotics, _run_spin_asymptotics),
    "chi_scan": Experiment(True, _parse_chi_scan, _run_chi_scan),
    "decompose_demo": Experiment(False, _parse_decompose_demo, _run_decompose_demo),
}


def run_scenario(cfg: ScenarioConfig, out_dir: Optional[str] = None) -> RunReport:
    """Run the configured experiment; write its CSV and JSON report."""
    started = time.perf_counter()
    header, rows, fit_dict = EXPERIMENTS[cfg.experiment].run(**cfg.inputs)

    if out_dir is not None:
        csv_path = os.path.join(out_dir, os.path.basename(cfg.out_csv))
        report_path = os.path.join(out_dir, os.path.basename(cfg.out_report))
    else:
        csv_path = cfg.out_csv
        report_path = cfg.out_report
    columns = _columns(rows)
    _write_csv(csv_path, header, zip(*(cells for cells, _ in columns)))

    report = RunReport(
        scenario=cfg.raw,
        csv_path=csv_path,
        report_path=report_path,
        series=_series_summary(header, columns),
        decay_fit=fit_dict,
        wall_time_s=time.perf_counter() - started,
    )
    _atomic_write(report_path, json.dumps(report.as_dict(), indent=2) + "\n")
    return report


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls.
    parser = argparse.ArgumentParser(
        prog="declab", description="Decoherence and induced-superselection laboratory."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and write CSV + report")
    run_p.add_argument("--config", required=True, help="scenario config file")
    run_p.add_argument("--out", default=None, help="directory overriding the output paths")
    val_p = sub.add_parser("validate", help="check a scenario config and exit")
    val_p.add_argument("--config", required=True, help="scenario config file")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config, "rb") as handle:
            cfg = parse_config(handle.read())
    except (ParseError, ValidationError) as exc:
        print(f"declab: invalid config: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"declab: cannot read config: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"{args.config}: OK ({cfg.experiment})")
        return 0

    try:
        report = run_scenario(cfg, out_dir=args.out)
    except (DeclabError, OSError) as exc:
        print(f"declab: run failed: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {report.csv_path} and {report.report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
