"""Batch front door: scenario configs in, CSV time series and a JSON report out.

Configs are flat ``key = value`` lines with dotted key paths (no nesting, no
quoting), chosen so diffs stay reviewable and parsing needs nothing beyond
the standard library.  Each experiment's runner returns a header, its columns
(1-d float arrays; a list for a column of strings) and a fit or None.  The
columns are streamed into one CSV (comma separated, LF endings, 17
significant digits so doubles round-trip losslessly), in chunks of rows
whose cells stay within the one table budget (``operators.chunks``), beside
a report echoing the scenario and summarizing every numeric series.  Both
files are created 0666 under the umask.  Identical config and seed produce
byte-identical CSV.
"""

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .errors import (DeclabError, InsufficientData, NonDecaying, OutOfDomain, ParseError,
                     ValidationError)
from .models import (
    DENSITY_KINDS,
    MAX_DENSE_DIM,
    ArakiZurekModel,
    SpectralDensity,
    SpinModel,
    az_coherence,
    chi_trajectory,
    require_chi_phases,
    require_dephasing_phases,
    require_spin_phases,
    spin_asymptotics,
    spin_trajectory,
)
from .operators import chunks
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
    if kind == "discrete":
        pairs = []
        for pair in e.require("env.points").split(","):
            try:  # unpacking other than two values raises ValueError as well
                v, w = (float(x) for x in pair.split(":"))
            except ValueError:
                raise ValidationError("env.points",
                                      f"expected a v:w pair of numbers, got {pair.strip()!r}")
            pairs.append(_finite("env.points", [v, w]))
        params, key = {"points": np.asarray(pairs)}, "env.points"
    elif kind in DENSITY_KINDS:
        names = DENSITY_KINDS[kind].params
        params, key = {name: e.number(f"env.{name}") for name in names}, f"env.{names[-1]}"
    else:
        raise ValidationError("env.kind", f"unknown kind {kind!r}")
    try:
        return SpectralDensity(kind, **params)
    except (ValueError, DeclabError) as exc:
        raise ValidationError(key, str(exc))


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


def _phases(check, *args):
    """check(*args), the phase check beside a model's evaluator, with the
    OutOfDomain it raises, its message unchanged, keyed ``t_grid.stop``."""
    try:
        check(*args)
    except OutOfDomain as exc:
        raise ValidationError("t_grid.stop", str(exc))


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
    h_s = (_parse_complex_matrix(e, "model.h_s", dim) if "model.h_s" in e.raw
           else np.zeros((dim, dim)))
    try:
        model = ArakiZurekModel(block_diagonal_sectors(dims), lambdas, h_s, env, delta)
    except (DeclabError, ValueError) as exc:
        raise ValidationError("model", str(exc))
    _phases(require_dephasing_phases, model.lambdas, env, t_grid)
    return {"t_grid": t_grid, "model": model, "initial_state": _parse_initial(e, dim)}


def _parse_spin(e: _Entries, t_grid, env) -> dict:
    a = e.floats("model.a", 3)
    b = e.number("model.b")
    lam = e.number("model.lam")
    try:
        model = SpinModel(a=np.asarray(a), b=b, lam=lam, env_diag=env)
    except ValueError as exc:
        raise ValidationError("model.b", str(exc))
    _phases(require_spin_phases, model, t_grid)
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
    _phases(require_chi_phases, env, t_grid)
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
    )
    e.number("seed", kind=int, default=0)  # any experiment takes a seed; decompose_demo uses it
    timed = (_parse_t_grid(e), _parse_env(e)) if spec.timed else ()
    cfg.inputs = spec.parse(e, *timed)

    leftover = e.unknown()
    if leftover:
        raise ValidationError(leftover[0], "unknown key")
    return cfg


def _atomic_write(path: str, parts):
    """Write the strings ``parts`` to a temporary file beside ``path``, created
    0666 under the umask, and move it onto ``path`` once it is whole."""
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    while True:
        tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_lines(header, columns):
    """The CSV text of ``columns`` under ``header``, in chunks of rows whose
    cells stay within the one table budget (``operators.chunks``): ``%.17g``
    for each float of a float array, ``%s`` for each string of a list."""
    row = ",".join("%s" if isinstance(column, list) else "%.17g" for column in columns) + "\n"
    yield ",".join(header) + "\n"
    for chunk in chunks(len(columns[0]), len(columns)):
        cells = (np.asarray(column[chunk]).tolist() for column in columns)
        yield "".join(row % values for values in zip(*cells))


def _series_summary(header, columns) -> dict:
    """min, max and final value of every float column, as Python floats.
    ``.17g`` round-trips every double, so these are the values that land in
    the file."""
    floats = ((name, column.tolist()) for name, column in zip(header, columns)
              if not isinstance(column, list))
    return {name: {"min": min(v), "max": max(v), "final": v[-1]} for name, v in floats}


def _run_araki_zurek(t_grid, model, initial_state):
    (hs, trace), chis = az_coherence(model, initial_state, t_grid)
    probs = sector_probabilities(initial_state, model.sectors)
    header = ["t", "offdiag_hs", "offdiag_tr", *(f"prob_{i}" for i in range(probs.size)),
              "chi_re", "chi_im"]
    columns = [t_grid, hs, trace, *(np.broadcast_to(p, t_grid.shape) for p in probs),
               chis.real, chis.imag]
    return header, columns, None


def _run_spin(t_grid, model, initial_bloch):
    pols = spin_trajectory(model, initial_bloch, t_grid)
    return ["t", "p_x", "p_y", "p_z"], [t_grid, *pols.T], None


def _run_spin_asymptotics(t_grid, model, initial_bloch, fit_delta, fit_window):
    samples = spin_asymptotics(model, initial_bloch, t_grid)
    columns = list(samples.T)
    try:
        fit = fit_power_law_decay(samples, fit_delta, fit_window)
    except (InsufficientData, NonDecaying) as exc:
        # Whether the series decays and fits is known only once it is computed.
        return ["t", "trace_dist"], columns, {"error": str(exc)}
    return ["t", "trace_dist"], columns, {**asdict(fit), "window": list(fit.window)}


def _run_chi_scan(t_grid, env):
    chis = chi_trajectory(env, t_grid)
    return ["t", "chi_re", "chi_im", "chi_abs"], [t_grid, chis.real, chis.imag, np.abs(chis)], None


def _run_decompose_demo(seed, dim):
    rng = np.random.default_rng(seed)
    w = random_density(dim, rng)
    unitary = haar_unitary(dim, rng)
    spectral = spectral_decomposition(w)
    alternate = alternate_decomposition(w, unitary)
    dists = [min(float(np.linalg.norm(proj.matrix - sp.matrix)) for sp in spectral.projectors)
             for proj in alternate.projectors]
    n, m = len(spectral.weights), len(dists)
    columns = [["spectral"] * n + ["alternate"] * m,
               np.concatenate([np.arange(float(n)), np.arange(float(m))]),
               np.concatenate([spectral.weights, alternate.weights]),
               np.concatenate([np.zeros(n), dists])]
    return ["kind", "index", "weight", "min_dist_to_spectral"], columns, None


class Experiment(NamedTuple):
    """parse(entries[, t_grid, env if timed]) -> inputs; run(**inputs) -> header,
    columns, fit: a 1-d float array per column (a list of strings for text)."""

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
    header, columns, fit_dict = EXPERIMENTS[cfg.experiment].run(**cfg.inputs)

    if out_dir is not None:
        csv_path = os.path.join(out_dir, os.path.basename(cfg.out_csv))
        report_path = os.path.join(out_dir, os.path.basename(cfg.out_report))
    else:
        csv_path = cfg.out_csv
        report_path = cfg.out_report
    _atomic_write(csv_path, _csv_lines(header, columns))

    report = RunReport(
        scenario=cfg.raw,
        csv_path=csv_path,
        report_path=report_path,
        series=_series_summary(header, columns),
        decay_fit=fit_dict,
        wall_time_s=time.perf_counter() - started,
    )
    _atomic_write(report_path, [json.dumps(report.as_dict(), indent=2) + "\n"])
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
