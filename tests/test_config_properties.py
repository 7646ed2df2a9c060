"""Property test of the config front door: any config either validates and then
runs with exit 0, or fails ``validate`` with exit 1 naming a key."""

import contextlib
import io
import os
import re
import tempfile
import time

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from declab.cli import EXPERIMENTS, MAX_TIME_POINTS, main  # noqa: E402
from declab.states import random_density  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=60, deadline=None)
NON_FINITE = st.sampled_from(["inf", "-inf", "nan"])
KEY = re.compile(r"declab: invalid config: ([a-z_]+(\.[a-z_]+)?): ")


@st.composite
def configs(draw, experiment):
    """Small config text for one experiment: mostly valid values, now and then a
    non-finite or out-of-range one, a missing key or an extra one."""

    def rare():
        # Not an end of the range: hypothesis favours those.
        return draw(st.integers(1, 12)) == 7

    def num(lo, hi):
        return draw(NON_FINITE) if rare() else repr(draw(st.floats(lo, hi)))

    def nums(n, lo, hi):
        return ",".join(num(lo, hi) for _ in range(n))

    e = {"experiment": experiment}
    if experiment == "decompose_demo":
        e["demo.dim"] = str(draw(st.integers(0, 8) if rare() else st.integers(2, 8)))
        e["seed"] = str(draw(st.integers(0, 2**32)))
    else:
        start = draw(st.floats(0.0, 4.0))
        e["t_grid.start"] = num(-1.0, 4.0) if rare() else repr(start)
        # Spin grids now and then reach far past the whole support's old horizon, on few points.
        far = experiment in ("spin", "spin_asymptotics") and rare()
        stop = draw(st.floats(1e3, 1e6)) if far else start + draw(st.floats(0.1, 8.0))
        e["t_grid.stop"] = num(-1.0, 4.0) if rare() else repr(stop)
        invalid = st.sampled_from(["-1", "0", "1", "2.5", str(MAX_TIME_POINTS + 1), "10000000000"])
        e["t_grid.count"] = draw(invalid) if rare() else str(draw(st.integers(2, 5 if far else 50)))
        kind = "lorentzian" if rare() else draw(st.sampled_from(["gaussian", "uniform", "bump",
                                                                 "discrete"]))
        e["env.kind"] = kind
        if kind == "gaussian":
            e["env.s"] = num(-0.5, 3.0) if rare() else num(0.1, 3.0)
        elif kind in ("uniform", "bump"):
            e["env.a"], e["env.b"] = num(-3.0, 0.0), num(-1.0 if rare() else 0.1, 3.0)
        elif kind == "discrete":
            v = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8, unique=not rare()))
            v = v if rare() else sorted(v)
            w = [num(0.0, 1.0) for _ in v] if rare() else [repr(1.0 / len(v))] * len(v)
            e["env.points"] = ",".join(f"{a!r}:{b}" for a, b in zip(v, w))

    dim = 2
    if experiment == "araki_zurek":
        # Up to 32 sectors of unequal dims: chi tables past 8 x 8, and states
        # of up to 128 dimensions whose positivity rests on them.
        k = draw(st.integers(1, 32))
        dims = [draw(st.integers(0 if rare() else 1, 8 if k <= 8 else 4)) for _ in range(k)]
        dim = max(sum(dims), 1)
        e["model.sector_dims"] = "1.5," * rare() + ",".join(map(str, dims))
        spacing = draw(st.floats(0.05, 2.0))
        e["model.lambdas"] = ",".join(repr(spacing * i) for i in range(k + rare()))
        e["model.delta"] = num(-0.5, 1.0) if rare() else repr(spacing * draw(st.floats(0.1, 1.0)))
        if draw(st.booleans()):
            diagonal = np.diag(draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)))
            h_s = np.ones((dim, dim)) if rare() else diagonal
            e["model.h_s"] = ",".join(repr(complex(x)) for x in h_s.ravel())
    elif experiment in ("spin", "spin_asymptotics"):
        e["model.a"] = nums(3, -2.0, 2.0)
        e["model.b"] = num(-0.5 if rare() else 0.1, 2.0)
        e["model.lam"] = num(-2.0, 2.0)
        if experiment == "spin_asymptotics":
            if draw(st.booleans()):
                e["fit.delta"] = num(-0.5, 2.0)
            if draw(st.booleans()):
                e["fit.window"] = nums(2, 0.0, 12.0)
    if experiment in ("araki_zurek", "spin", "spin_asymptotics"):
        # A polarization vector is the spin models' initial state, and a qubit's.
        qubit = experiment != "araki_zurek" or (dim == 2 and draw(st.booleans()))
        if qubit != rare():
            e["initial.bloch"] = nums(3, -0.8, 0.8) if rare() else nums(3, -0.5, 0.5)
        else:
            seed = draw(st.integers(0, 2**32))
            rho = random_density(dim, np.random.default_rng(seed)).matrix
            e["initial.matrix"] = ",".join(repr(complex(x)) for x in rho.ravel())

    for key in draw(st.sets(st.sampled_from(sorted(e)), max_size=1)) if rare() else ():
        del e[key]
    if rare():
        e[draw(st.sampled_from(["fit.delta", "demo.dim", "model.lam", "extra.key"]))] = "1"
    return "".join(f"{key} = {value}\n" for key, value in e.items())


@st.composite
def extreme_spin_configs(draw, experiment):
    """A spin config whose field a_1, a_2, a_3, coupling lam, support centre and
    width and t_grid.stop are drawn log-uniformly across the double range
    (the field and coupling of either sign, now and then 0)."""

    def magnitude(zero=True):
        if zero and draw(st.integers(1, 12)) == 7:
            return 0.0
        return draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-300.0, 300.0))

    centre, width = magnitude(), abs(magnitude(zero=False))
    kind = draw(st.sampled_from(["gaussian", "uniform", "bump"]))
    e = {"experiment": experiment, "t_grid.start": "0",
         "t_grid.stop": repr(abs(magnitude(zero=False))),
         "t_grid.count": str(draw(st.integers(2, 5)) if experiment == "spin" else 20),
         "env.kind": kind}
    if kind == "gaussian":
        e["env.s"] = repr(width / 20.0)
    else:
        e["env.a"], e["env.b"] = repr(centre - width / 2.0), repr(centre + width / 2.0)
    e["model.a"] = ",".join(repr(magnitude()) for _ in range(3))
    e["model.b"] = "0.3"
    e["model.lam"] = repr(magnitude())
    e["initial.bloch"] = "0.7,0.2,0.5"
    return "".join(f"{key} = {value}\n" for key, value in e.items())


@st.composite
def strip_heavy_spin_configs(draw, experiment):
    """A spin config whose strip about the fold holds much of the weight at
    large t: a transverse field of order 1, |lam| in [1e-3, 1e-1], the fold
    x* = -a_3 / lam at |x*| <= 1/2 and t_grid.stop log-uniform up to 1e14."""
    m, angle = draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 2.0 * np.pi))
    lam = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, -1.0))
    x_star = draw(st.floats(-0.5, 0.5))
    kind = draw(st.sampled_from(["gaussian", "uniform", "bump"]))
    e = {"experiment": experiment, "t_grid.start": "0",
         "t_grid.stop": repr(10.0 ** draw(st.floats(0.0, 14.0))), "t_grid.count": "51",
         "env.kind": kind}
    if kind == "gaussian":
        e["env.s"] = "0.5"
    else:
        e["env.a"], e["env.b"] = "-1", "1"
    field = (m * np.cos(angle), m * np.sin(angle), -lam * x_star)
    e["model.a"] = ",".join(repr(float(v)) for v in field)
    e["model.b"] = "0.3"
    e["model.lam"] = repr(lam)
    e["initial.bloch"] = "0.7,0.2,0.5"
    return "".join(f"{key} = {value}\n" for key, value in e.items())


def cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
@SETTINGS
@hypothesis.given(data=st.data())
def test_config_validates_and_runs_or_fails_validate_naming_a_key(experiment, data):
    text = data.draw(configs(experiment), label="config")
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "scenario.cfg")
        with open(path, "w") as handle:
            handle.write(text)
        code, err = cli("validate", "--config", path)
        if code == 1:
            assert KEY.match(err), err
            return
        assert code == 0, err
        code, err = cli("run", "--config", path, "--out", out)
        assert code == 0, err


@pytest.mark.parametrize("experiment", ["spin", "spin_asymptotics"])
@SETTINGS
@hypothesis.given(data=st.data())
def test_spin_config_at_extreme_magnitudes_validates_and_runs_or_fails_validate(experiment, data):
    # Every spin grid whose phases 2 |h| t are finite validates; it must then run.
    text = data.draw(extreme_spin_configs(experiment), label="config")
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "scenario.cfg")
        with open(path, "w") as handle:
            handle.write(text)
        code, err = cli("validate", "--config", path)
        if code == 1:
            assert KEY.match(err), err
            return
        assert code == 0, err
        code, err = cli("run", "--config", path, "--out", out)
        assert code == 0, err


# Pre-registered bound on one in-process run of a strip-heavy config, in
# seconds.  Such configs ran out of panels after up to 29 s.
STRIP_HEAVY_SECONDS = 2.0


@pytest.mark.parametrize("experiment", ["spin", "spin_asymptotics"])
@SETTINGS
@hypothesis.given(data=st.data())
def test_strip_heavy_spin_config_validates_and_runs_within_its_time_bound(experiment, data):
    text = data.draw(strip_heavy_spin_configs(experiment), label="config")
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "scenario.cfg")
        with open(path, "w") as handle:
            handle.write(text)
        code, err = cli("validate", "--config", path)
        assert code == 0, err
        start = time.perf_counter()
        code, err = cli("run", "--config", path, "--out", out)
        assert code == 0, err
        assert err == ""
        assert time.perf_counter() - start < STRIP_HEAVY_SECONDS
