"""The benchmark's workloads, generated from a seed.

The seed draws initial states, field directions, random matrices and grid
offsets.  It never changes what sets the cost (coupling strengths, density
widths, grid lengths, dimensions), so every seed does the same amount of
work.  Each workload is a list of items; one pass runs every item once.
Items either go through ``declab.cli.main`` with a generated config file or
call declab's public functions directly.  Every output is later compared
with a value from ``reference``, which shares no code with declab.
"""

import contextlib
import io
import os

import numpy as np

import reference as ref

# Pre-registered before the first benchmark run and never re-tuned to make a
# change pass.  An output further than this from its reference is a failed
# item and makes the run incorrect.  Every result records this table.
TOL = {
    # chi of continuous densities and continuous-environment spin
    # polarizations: declab integrates to a requested 1e-9 absolute, and the
    # factor 10 allows for its error estimate being an estimate.
    "quadrature": 1e-8,
    # araki_zurek on a discrete environment: exact sums, held to the bound of
    # the dephasing half of acceptance criterion 7.
    "discrete": 1e-9,
    # trace distance between a closed form and full_simulation_oracle
    # (acceptance criterion 7).
    "oracle_az": 1e-9,
    "oracle_spin": 1e-8,
    # decompose_demo invariants, at declab's state tolerance.
    "state": 1e-10,
    # the t column of every CSV against the configured linspace.
    "time_column": 1e-12,
}

# declab's adaptive quadrature pre-splits [-10 s, 10 s] for the oscillation
# rate |t| but clamps the split at its 2**14 panel budget; for a unit gaussian
# near t = 1e5 each panel then spans ~19 periods and refinement runs out of
# budget (QuadratureFailure, exit 2).  Registered here so that the failure is
# reported, not hidden, and a fix shows up as ok_frac rising to 1.
KNOWN_FAILURES = frozenset({"far_gaussian_1e5"})


class ItemFailed(Exception):
    """The program exited nonzero or raised for this item."""


def _f(x):
    return repr(float(x))


def _unit(rng, polar_lo=0.0, polar_hi=np.pi):
    theta = np.arccos(rng.uniform(np.cos(polar_hi), np.cos(polar_lo)))
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def _bloch(rng):
    return _unit(rng) * rng.uniform(0.5, 0.95)


def _field(rng):
    # Same strength as the checked-in scenarios (|a| = sqrt 5), tilted away
    # from the coupling axis so the spin always dephases.
    return np.sqrt(5.0) * _unit(rng, 0.3, 1.0)


def _random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_hermitian(rng, dim, scale):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def _complex_list(m):
    return ",".join(f"{float(z.real)!r}{float(z.imag):+.17g}j" for z in np.ravel(m))


def _read_csv(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    columns = {}
    for j, name in enumerate(header):
        values = [row[j] for row in rows]
        try:
            columns[name] = np.array([float(v) for v in values])
        except ValueError:
            columns[name] = values
    return columns


class CliItem:
    """One ``declab run`` on a generated config file."""

    def __init__(self, name, lines, workdir, expected=None, known_failure=False):
        self.name = name
        self.known_failure = known_failure
        self.config = os.path.join(workdir, f"{name}.cfg")
        self.outdir = os.path.join(workdir, "out")
        self.csv = os.path.join(self.outdir, f"{name}.csv")
        text = "\n".join(lines + [f"out.csv = {name}.csv", f"out.report = {name}_report.json"])
        with open(self.config, "w") as handle:
            handle.write(text + "\n")
        self._expected_fn = expected
        self.expected = None

    def prepare(self):
        # Either {column: (reference values, tolerance)} or a function mapping
        # the CSV columns to {check: (deviation, tolerance)}.
        self.expected = self._expected_fn()

    def reset(self):
        if os.path.exists(self.csv):
            os.unlink(self.csv)

    def run(self, dl):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = dl.cli.main(["run", "--config", self.config, "--out", self.outdir])
        if code != 0:
            raise ItemFailed(f"exit {code}: {err.getvalue().strip()}")

    def errors(self):
        """{column: (max abs deviation, tolerance)} for this item's CSV."""
        columns = _read_csv(self.csv)
        if callable(self.expected):
            return self.expected(columns)
        out = {}
        for name, (values, tol) in self.expected.items():
            got = columns.get(name)
            if got is None or np.shape(got) != np.shape(values):
                out[name] = (float("inf"), tol)
            else:
                out[name] = (float(np.max(np.abs(got - values), initial=0.0)), tol)
        return out

    def output_bytes(self):
        return os.path.getsize(self.csv) if os.path.exists(self.csv) else 0


class OracleItem:
    """Closed form against the joint-evolution oracle at one time point."""

    def __init__(self, name, kind, model, state, p, t, n_grid):
        self.name = name
        self.known_failure = False
        self.kind = kind
        self.model = model
        self.state = state
        self.p = p
        self.t = float(t)
        self.n_grid = n_grid
        self.tol = TOL["oracle_az"] if kind == "az" else TOL["oracle_spin"]
        self.out = None

    def prepare(self):
        pass

    def reset(self):
        self.out = None

    def run(self, dl):
        if self.kind == "az":
            closed = dl.az_evolve(self.model, self.state, self.t)
        else:
            closed = dl.spin_evolve(self.model, self.p, self.t)
        oracle = dl.full_simulation_oracle(self.model, self.state, self.t, self.n_grid)
        self.out = (np.array(closed.matrix), np.array(oracle.matrix))

    def errors(self):
        return {"trace_distance": (ref.trace_distance(*self.out), self.tol)}

    def output_bytes(self):
        return 0


class Workload:
    def __init__(self, name, items, warmup):
        self.name = name
        self.items = items
        self.warmup = warmup

    def prepare_references(self):
        for item in self.items:
            item.prepare()


# Continuous densities: config lines and the reference chi(t).
DENSITIES = {
    "gaussian": (["env.kind = gaussian", "env.s = 1.0"], lambda t: ref.chi_gaussian(1.0, t)),
    "uniform": (["env.kind = uniform", "env.a = -1.0", "env.b = 1.0"],
                lambda t: ref.chi_uniform(-1.0, 1.0, t)),
    "bump": (["env.kind = bump", "env.a = -1.0", "env.b = 1.0"],
             lambda t: ref.chi_bump(-1.0, 1.0, t)),
}


def _linspace_columns(start, stop, count):
    t = np.linspace(start, stop, count)
    return t, {"t": (t, TOL["time_column"])}


def _header(experiment, start, stop, count):
    return [f"experiment = {experiment}", f"t_grid.start = {_f(start)}",
            f"t_grid.stop = {_f(stop)}", f"t_grid.count = {count}"]


def _chi_lines(env_lines, start, stop, count):
    return _header("chi_scan", start, stop, count) + env_lines


def _chi_expected(chi_fn, start, stop, count):
    def expected():
        t, cols = _linspace_columns(start, stop, count)
        chi = chi_fn(t)
        tol = TOL["quadrature"]
        cols.update(chi_re=(chi.real, tol), chi_im=(chi.imag, tol), chi_abs=(np.abs(chi), tol))
        return cols
    return expected


def _spin_lines(experiment, a, p, start, stop, count):
    return _header(experiment, start, stop, count) + [
        "env.kind = gaussian", "env.s = 1.0", "model.a = " + ",".join(_f(x) for x in a),
        "model.b = 0.3", "model.lam = 1.0", "initial.bloch = " + ",".join(_f(x) for x in p)]


def build_scenarios(dl, rng, workdir, small):
    """The five checked-in scenario kinds at their checked-in sizes."""
    items = []
    tol = TOL["quadrature"]

    # az_dephasing: two sectors, gaussian environment, closed form throughout.
    p_az = _bloch(rng)
    count = 11 if small else 81
    lines = _header("araki_zurek", 0.0, 4.0, count) + [
        "env.kind = gaussian", "env.s = 1.0", "model.sector_dims = 1,1", "model.lambdas = 1,-1",
        "model.delta = 2.0", "model.h_s = 0.5,0,0,-0.5",
        "initial.bloch = " + ",".join(_f(x) for x in p_az)]

    def az_expected(count=count, p=p_az):
        t, cols = _linspace_columns(0.0, 4.0, count)
        chi = ref.chi_gaussian(1.0, 2.0 * t)
        coherence = abs(complex(p[0], -p[1])) / 2.0 * chi.real
        cols.update(offdiag_hs=(np.sqrt(2.0) * coherence, tol), offdiag_tr=(2.0 * coherence, tol),
                    prob_0=(np.full(count, (1.0 + p[2]) / 2.0), tol),
                    prob_1=(np.full(count, (1.0 - p[2]) / 2.0), tol),
                    chi_re=(chi.real, tol), chi_im=(chi.imag, tol))
        return cols

    items.append(CliItem("az_dephasing", lines, workdir, az_expected))

    # chi_uniform: 601-point sinc scan out to t = 60, grid offset from the seed.
    start = rng.uniform(0.0, 0.5)
    count = 61 if small else 601
    env, chi = DENSITIES["uniform"]
    items.append(CliItem("chi_uniform", _chi_lines(env, start, start + 60.0, count), workdir,
                         _chi_expected(chi, start, start + 60.0, count)))

    # decompose_demo: random 4x4 state; checked through its invariants.
    demo_seed = int(rng.integers(1, 2**31))

    def demo_check(columns):
        kinds = list(columns["kind"])
        weights = columns["weight"]
        dists = columns["min_dist_to_spectral"]
        spectral = np.array([k == "spectral" for k in kinds])
        alternate = np.array([k == "alternate" for k in kinds])
        if spectral.sum() != 4 or alternate.sum() != 4:
            return {"rows": (float("inf"), TOL["state"])}
        excess = np.maximum(dists[alternate] - np.sqrt(2.0), 0.0)
        return {
            "spectral_weight_sum": (abs(weights[spectral].sum() - 1.0), TOL["state"]),
            "alternate_weight_sum": (abs(weights[alternate].sum() - 1.0), TOL["state"]),
            "spectral_distance": (float(np.abs(dists[spectral]).max()), TOL["state"]),
            "alternate_distance_range": (float(excess.max()), TOL["state"]),
        }

    items.append(CliItem("decompose_demo",
                         ["experiment = decompose_demo", "demo.dim = 4", f"seed = {demo_seed}"],
                         workdir, lambda: demo_check))

    # spin_asymptotics: 91 times in [5, 50], trace distance to q = M p.
    a, p = _field(rng), _bloch(rng)
    count = 46 if small else 91
    lines = _spin_lines("spin_asymptotics", a, p, 5.0, 50.0, count) + ["fit.delta = 1.0",
                                                                       "fit.window = 10,50"]

    def asym_expected(a=a, p=p, count=count):
        t, cols = _linspace_columns(5.0, 50.0, count)
        target = ref.spin_contraction(a, 1.0, 1.0) @ p
        pol = ref.spin_polarization(a, 1.0, 1.0, p, t)
        cols["trace_dist"] = (np.linalg.norm(pol - target, axis=1), tol)
        return cols

    items.append(CliItem("spin_asymptotics", lines, workdir, asym_expected))

    # spin_precession: 201 times in [0, 10], polarization vector.
    a, p = _field(rng), _bloch(rng)
    count = 21 if small else 201

    def spin_expected(a=a, p=p, count=count):
        t, cols = _linspace_columns(0.0, 10.0, count)
        pol = ref.spin_polarization(a, 1.0, 1.0, p, t)
        cols.update(p_x=(pol[:, 0], tol), p_y=(pol[:, 1], tol), p_z=(pol[:, 2], tol))
        return cols

    items.append(CliItem("spin_precession", _spin_lines("spin", a, p, 0.0, 10.0, count),
                         workdir, spin_expected))
    return Workload("scenarios", items, warmup=items[0])




def build_chi_long_t(dl, rng, workdir, small):
    """chi_scan out to t = 1000 per density, plus one config per far-horizon t."""
    items = []
    count = 3 if small else 21
    for kind, (env, chi) in DENSITIES.items():
        start = rng.uniform(0.0, 1.0)
        items.append(CliItem(f"grid_{kind}", _chi_lines(env, start, 1000.0, count), workdir,
                             _chi_expected(chi, start, 1000.0, count)))
    for kind, (env, chi) in DENSITIES.items():
        for label, horizon in (("1e4", 1e4), ("1e5", 1e5)):
            stop = horizon * (1.0 + 0.01 * rng.uniform())
            name = f"far_{kind}_{label}"
            items.append(CliItem(name, _chi_lines(env, 0.0, stop, 2), workdir,
                                 _chi_expected(chi, 0.0, stop, 2),
                                 known_failure=name in KNOWN_FAILURES))
    warmup = CliItem("warmup", _chi_lines(DENSITIES["bump"][0], 0.0, 1.0, 2), workdir)
    return Workload("chi_long_t", items, warmup)


def build_oracle_check(dl, rng, workdir, small):
    """Closed forms against the oracle on discretized gaussian spectra."""
    items = []
    n_times = (1, 1, 1) if small else (6, 4, 2)

    h_s = np.zeros((4, 4), dtype=complex)
    h_s[:2, :2] = _random_hermitian(rng, 2, 0.5)
    h_s[2:, 2:] = _random_hermitian(rng, 2, 0.5)
    grid64 = dl.SpectralDensity.gaussian(1.0).discretize(64)
    az = dl.ArakiZurekModel(dl.block_diagonal_sectors([2, 2]), [1.0, -1.0], h_s, grid64, 2.0)
    rho0 = dl.DensityOperator(_random_density(rng, 4))
    window = dl.recurrence_window(grid64)
    for k, t in enumerate(np.sort(rng.uniform(0.1, 0.9, n_times[0])) * window):
        items.append(OracleItem(f"az_n64_{k}", "az", az, rho0, None, t, 64))

    # n = 201 as in acceptance criterion 7, then the dense cap (2 x 512 = 1024).
    for n_grid, n_t in ((201, n_times[1]), (512, n_times[2])):
        grid = dl.SpectralDensity.gaussian(1.0).discretize(n_grid)
        p = _bloch(rng)
        spin = dl.SpinModel(a=_field(rng), b=0.3, lam=1.0, env_diag=grid)
        state = dl.bloch_to_density(p)
        for k, t in enumerate(np.sort(rng.uniform(1.0, 10.0, n_t))):
            items.append(OracleItem(f"spin_n{n_grid}_{k}", "spin", spin, state, p, t, n_grid))

    warmup = OracleItem("warmup", "az", az, rho0, None, 0.5, 64)
    return Workload("oracle_check", items, warmup)


def build_az_sectors(dl, rng, workdir, small):
    """One araki_zurek run: 16 sectors of 4 on a discrete environment."""
    k, size = 16, 4
    dim = k * size
    sector_of = np.repeat(np.arange(k), size)
    lambdas = np.linspace(-1.5, 1.5, k)
    v = np.linspace(-2.0, 2.0, 33) + rng.uniform(-0.05, 0.05)
    w = np.exp(-(v**2) / 2.0)
    w = w / w.sum()
    h_s = np.zeros((dim, dim), dtype=complex)
    for m in range(k):
        block = slice(m * size, (m + 1) * size)
        h_s[block, block] = _random_hermitian(rng, size, 0.5)
    rho0 = _random_density(rng, dim)
    start = rng.uniform(0.0, 0.1)
    stop = start + 20.0
    count = 10 if small else 100

    def lines(count):
        return _header("araki_zurek", start, stop, count) + [
            "env.kind = discrete",
            "env.points = " + ",".join(f"{_f(a)}:{_f(b)}" for a, b in zip(v, w)),
            "model.sector_dims = " + ",".join([str(size)] * k),
            "model.lambdas = " + ",".join(_f(x) for x in lambdas),
            "model.delta = 0.15", "model.h_s = " + _complex_list(h_s),
            "initial.matrix = " + _complex_list(rho0)]

    def expected():
        tol = TOL["discrete"]
        t, cols = _linspace_columns(start, stop, count)
        norms = np.array([ref.dephased_offdiagonal(rho0, sector_of, lambdas, v, w, tk) for tk in t])
        cols.update(offdiag_hs=(norms[:, 0], tol), offdiag_tr=(norms[:, 1], tol))
        for m in range(k):
            block = slice(m * size, (m + 1) * size)
            prob = np.trace(rho0[block, block]).real
            cols[f"prob_{m}"] = (np.full(count, prob), tol)
        chi = ref.chi_discrete(v, w, (lambdas[0] - lambdas[1]) * t)
        cols.update(chi_re=(chi.real, tol), chi_im=(chi.imag, tol))
        return cols

    item = CliItem("az_sectors", lines(count), workdir, expected)
    warmup = CliItem("warmup", lines(2), workdir)
    return Workload("az_sectors", [item], warmup)


BUILDERS = {
    "scenarios": build_scenarios,
    "chi_long_t": build_chi_long_t,
    "oracle_check": build_oracle_check,
    "az_sectors": build_az_sectors,
}


def build(dl, name, seed, workdir, small=False):
    """Generate the workload's inputs from ``seed`` and build its items."""
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    rng = np.random.default_rng([seed, list(BUILDERS).index(name)])
    return BUILDERS[name](dl, rng, workdir, small)
