import io
import json
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import declab.cli
import declab.models
import declab.quadrature
from declab import ParseError, SpectralDensity, ValidationError
from declab.cli import EXPERIMENTS, MAX_TIME_POINTS, main, parse_config, run_scenario
from declab.models import DENSITY_KINDS

AZ_CONFIG = """
# minimal dephasing scenario
experiment = araki_zurek
t_grid.start = 0.0
t_grid.stop = 2.0
t_grid.count = 9
env.kind = gaussian
env.s = 1.0
model.sector_dims = 1,1
model.lambdas = 1,-1
model.delta = 2.0
initial.bloch = 1,0,0
"""

SPIN_ASYMPTOTICS_CONFIG = """
experiment = spin_asymptotics
t_grid.start = 2.0
t_grid.stop = 14.0
t_grid.count = 25
env.kind = gaussian
env.s = 1.0
model.a = 1,0,2
model.b = 0.3
model.lam = 1.0
initial.bloch = 0.7,0.2,0.5
fit.delta = 1.0
fit.window = 2,14
"""

DEMO_CONFIG = """
experiment = decompose_demo
demo.dim = 4
seed = 7
"""

CHI_CONFIG = """
experiment = chi_scan
t_grid.start = 0.0
t_grid.stop = 6.0
t_grid.count = 13
env.kind = uniform
env.a = -1.0
env.b = 1.0
"""


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# --- parsing


def test_parse_minimal_az_scenario_applies_defaults():
    cfg = parse_config(AZ_CONFIG.encode())
    assert cfg.experiment == "araki_zurek"
    assert cfg.out_csv == "araki_zurek.csv"
    assert cfg.out_report == "araki_zurek_report.json"
    assert cfg.inputs["t_grid"].size == 9
    assert cfg.inputs["model"].dim == 2
    assert cfg.inputs["initial_state"].dim == 2


def test_parse_accepts_str_and_bytes():
    assert parse_config(AZ_CONFIG).experiment == parse_config(AZ_CONFIG.encode()).experiment


def test_parse_rejects_single_point_grid():
    bad = AZ_CONFIG.replace("t_grid.count = 9", "t_grid.count = 1")
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    assert err.value.key == "t_grid.count"


def test_parse_rejects_unknown_experiment():
    bad = AZ_CONFIG.replace("experiment = araki_zurek", "experiment = karaoke")
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    assert err.value.key == "experiment"


def test_parse_rejects_unknown_key():
    with pytest.raises(ValidationError) as err:
        parse_config(AZ_CONFIG + "model.frobnicate = 3\n")
    assert err.value.key == "model.frobnicate"


def test_parse_rejects_missing_required_key():
    bad = AZ_CONFIG.replace("model.delta = 2.0\n", "")
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    assert err.value.key == "model.delta"


def test_parse_reports_offending_line():
    with pytest.raises(ParseError) as err:
        parse_config("experiment = chi_scan\nwhat is this\n")
    assert err.value.line == 2


def test_parse_rejects_duplicate_key():
    with pytest.raises(ParseError):
        parse_config("experiment = chi_scan\nexperiment = spin\n")


def test_parse_rejects_bad_number():
    bad = AZ_CONFIG.replace("model.delta = 2.0", "model.delta = huge")
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    assert err.value.key == "model.delta"


def test_parse_demo_requires_seed():
    with pytest.raises(ValidationError) as err:
        parse_config("experiment = decompose_demo\ndemo.dim = 3\n")
    assert err.value.key == "seed"


def test_parse_matrix_initial_state():
    cfg = parse_config(
        AZ_CONFIG.replace("initial.bloch = 1,0,0", "initial.matrix = 0.5,0.5,0.5,0.5")
    )
    assert np.allclose(cfg.inputs["initial_state"].matrix, np.full((2, 2), 0.5))


def test_parse_rejects_non_state_matrix():
    bad = AZ_CONFIG.replace("initial.bloch = 1,0,0", "initial.matrix = 1,0,0,1")
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    assert err.value.key == "initial.matrix"


def test_parse_discrete_env_points():
    cfg = parse_config(
        CHI_CONFIG.replace("env.kind = uniform\nenv.a = -1.0\nenv.b = 1.0",
                           "env.kind = discrete\nenv.points = -0.5:0.5, 0.5:0.5")
    )
    assert cfg.inputs["env"].is_discrete
    assert np.allclose(cfg.inputs["env"].points, [[-0.5, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("points", ["0.5", "0.5:x", "a:0.5", "0.5:0.5:0.5", "0.5:0.5, 0.2:0.5"])
def test_parse_names_env_points_for_a_malformed_pair(points):
    bad = CHI_CONFIG.replace("env.kind = uniform\nenv.a = -1.0\nenv.b = 1.0",
                             f"env.kind = discrete\nenv.points = {points}")
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    assert err.value.key == "env.points"


@pytest.mark.parametrize("env, key", [("gaussian\nenv.s = -1", "env.s"),
                                      ("gaussian\nenv.s = 1e300", "env.s"),
                                      ("uniform\nenv.a = 1\nenv.b = 0", "env.b"),
                                      ("bump\nenv.a = 0\nenv.b = 1e301", "env.b")],
                         ids=["negative_width", "huge_width", "reversed", "huge_support"])
def test_parse_names_the_key_a_density_constructor_rejects(env, key):
    bad = CHI_CONFIG.replace("env.kind = uniform\nenv.a = -1.0\nenv.b = 1.0", f"env.kind = {env}")
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    assert err.value.key == key


@pytest.mark.parametrize("kind, values", [("gaussian", [0.37]), ("uniform", [0.1, 0.7]),
                                          ("bump", [-3e-5, 7e-5])])
def test_each_density_kind_parses_to_its_classmethod(kind, values):
    names = DENSITY_KINDS[kind].params
    lines = [f"env.kind = {kind}"] + [f"env.{n} = {v!r}" for n, v in zip(names, values)]
    text = CHI_CONFIG.replace("env.kind = uniform\nenv.a = -1.0\nenv.b = 1.0", "\n".join(lines))
    env = parse_config(text).inputs["env"]
    want = getattr(SpectralDensity, kind)(*values)
    assert (env.kind, env.s, env.a, env.b) == (want.kind, want.s, want.a, want.b)
    assert env.support() == want.support() and repr(env) == repr(want)


# --- running


def test_run_az_scenario_writes_expected_columns(tmp_path):
    report = run_scenario(parse_config(AZ_CONFIG), out_dir=str(tmp_path))
    header, rows = read_csv(tmp_path / "araki_zurek.csv")
    assert header == ["t", "offdiag_hs", "offdiag_tr", "prob_0", "prob_1", "chi_re", "chi_im"]
    assert len(rows) == 9
    values = np.array([[float(x) for x in row] for row in rows])
    assert np.all(np.isfinite(values))
    # Coherence decays while sector probabilities stay put.
    assert values[-1, 1] < values[0, 1]
    assert np.allclose(values[:, 3], 0.5, atol=1e-10)
    assert report.decay_fit is None
    assert (tmp_path / "araki_zurek_report.json").exists()


def test_run_spin_asymptotics_emits_fit(tmp_path):
    report = run_scenario(parse_config(SPIN_ASYMPTOTICS_CONFIG), out_dir=str(tmp_path))
    header, rows = read_csv(tmp_path / "spin_asymptotics.csv")
    assert header == ["t", "trace_dist"]
    assert report.decay_fit is not None
    assert report.decay_fit["gamma"] > 0
    loaded = json.loads((tmp_path / "spin_asymptotics_report.json").read_text())
    assert loaded["decay_fit"]["gamma"] == report.decay_fit["gamma"]
    assert loaded["version"]


def test_run_chi_scan(tmp_path):
    run_scenario(parse_config(CHI_CONFIG), out_dir=str(tmp_path))
    header, rows = read_csv(tmp_path / "chi_scan.csv")
    assert header == ["t", "chi_re", "chi_im", "chi_abs"]
    first = [float(x) for x in rows[0]]
    assert first[1] == pytest.approx(1.0, abs=1e-9)


def test_run_spin_scenario(tmp_path):
    cfg = parse_config(
        """
experiment = spin
t_grid.start = 0.0
t_grid.stop = 3.0
t_grid.count = 7
env.kind = gaussian
env.s = 1.0
model.a = 0,0,1
model.b = 0.3
model.lam = 1.0
initial.bloch = 0.8,0,0.2
"""
    )
    run_scenario(cfg, out_dir=str(tmp_path))
    header, rows = read_csv(tmp_path / "spin.csv")
    assert header == ["t", "p_x", "p_y", "p_z"]
    # Axial field: p_z is conserved along the whole series.
    assert all(float(row[3]) == pytest.approx(0.2, abs=1e-9) for row in rows)


def test_report_summaries_match_csv(tmp_path):
    run_scenario(parse_config(AZ_CONFIG), out_dir=str(tmp_path))
    header, rows = read_csv(tmp_path / "araki_zurek.csv")
    loaded = json.loads((tmp_path / "araki_zurek_report.json").read_text())
    cols = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
    for name, summary in loaded["series"].items():
        assert summary["min"] == min(cols[name])
        assert summary["max"] == max(cols[name])
        assert summary["final"] == cols[name][-1]


def test_decompose_demo_is_deterministic(tmp_path):
    cfg = parse_config(DEMO_CONFIG)
    run_scenario(cfg, out_dir=str(tmp_path / "first"))
    run_scenario(cfg, out_dir=str(tmp_path / "second"))
    first = (tmp_path / "first" / "decompose_demo.csv").read_bytes()
    second = (tmp_path / "second" / "decompose_demo.csv").read_bytes()
    assert first == second
    assert first.endswith(b"\n") and b"\r" not in first


def test_demo_alternate_branches_differ_from_spectral(tmp_path):
    run_scenario(parse_config(DEMO_CONFIG), out_dir=str(tmp_path))
    header, rows = read_csv(tmp_path / "decompose_demo.csv")
    alt_dists = [float(r[3]) for r in rows if r[0] == "alternate"]
    assert max(alt_dists) > 0.1


# --- command line entry point


def test_main_validate_ok(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(CHI_CONFIG)
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "OK" in capsys.readouterr().out


def test_main_validate_bad_config(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("experiment = karaoke\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "experiment" in capsys.readouterr().err


def test_main_missing_config_file(capsys):
    assert main(["validate", "--config", "/nonexistent/scenario.cfg"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_main_reuses_its_parser_without_carrying_state(tmp_path, capsys):
    # One parser per process serves every call: a validate, a bad argv and a
    # run in turn give what each gives in a process of its own.
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(CHI_CONFIG)
    calls = [["validate", "--config", str(cfg)], ["run", "--config", str(cfg), "--bogus"],
             ["run", "--config", str(cfg), "--out", str(tmp_path)], ["--help"], ["validate"]]

    def outcome(argv):
        (tmp_path / "chi_scan.csv").unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out, err = capsys.readouterr()
        ran = argv[0] == "run" and code == 0
        return code, out, err, (tmp_path / "chi_scan.csv").read_bytes() if ran else None

    shared = [outcome(argv) for argv in calls]
    assert [code for code, *_ in shared] == [0, ("exit", 2), 0, ("exit", 0), ("exit", 2)]
    fresh = []
    for argv in calls:
        declab.cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert fresh == shared


def test_main_run_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(CHI_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "chi_scan.csv").exists()
    assert (tmp_path / "chi_scan_report.json").exists()


def test_main_run_creates_outputs_under_the_umask(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(CHI_CONFIG)
    names = ["chi_scan.csv", "chi_scan_report.json"]
    old = tmp_path / "old"
    old.mkdir()
    for name in names:
        (old / name).write_text("old\n")
        (old / name).chmod(0o644)
    previous = os.umask(0o022)
    try:
        for out in (tmp_path / "fresh", old):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            assert sorted(os.listdir(out)) == names
            for name in names:
                assert stat.S_IMODE((out / name).stat().st_mode) == 0o644
                assert (out / name).read_text() != "old\n"
    finally:
        os.umask(previous)


def test_atomic_write_keeps_the_target_and_leaves_no_temporary_file_on_failure(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def parts():
        yield "new\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        declab.cli._atomic_write(str(target), parts())
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_atomic_write_retries_a_taken_temporary_name(tmp_path, monkeypatch):
    taken = tmp_path / f".out.csv.{os.getpid()}.00000000.tmp"
    taken.write_text("someone else's\n")
    draws = iter([bytes(4), bytes([1] * 4)])
    monkeypatch.setattr(declab.cli.os, "urandom", lambda n: next(draws))
    declab.cli._atomic_write(str(tmp_path / "out.csv"), ["a\n", "b\n"])
    assert (tmp_path / "out.csv").read_text() == "a\nb\n"
    assert taken.read_text() == "someone else's\n"
    assert sorted(os.listdir(tmp_path)) == [taken.name, "out.csv"]


# Points of the large-grid runs: 48 chunk boundaries of the CSV writer.
LARGE_GRID = 200000
# Pre-registered bound on the run's peak RSS, in MiB.  A writer that builds
# rows of Python objects peaks at 211 (chi_uniform) and 352 (az_dephasing).
LARGE_GRID_RSS_MIB = 128


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the peak is read in KiB, as Linux reports it")
@pytest.mark.parametrize("name", ["chi_uniform", "az_dephasing"])
def test_main_runs_a_large_grid_within_its_memory_bound(tmp_path, name):
    text = (Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.cfg").read_text()
    text = re.sub(r"(?m)^t_grid\.count = .*$", f"t_grid.count = {LARGE_GRID}", text)
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    # The child reports its own peak: RUSAGE_CHILDREN would count earlier children too,
    # and on Linux its ru_maxrss keeps the forking test process's peak across exec, where
    # VmHWM starts afresh.
    code = ("import re, resource, sys\n"
            "from declab.cli import main\n"
            "assert main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "try:\n"
            "    with open('/proc/self/status') as status:\n"
            "        print(re.search(r'VmHWM:\\s*(\\d+) kB', status.read()).group(1))\n"
            "except OSError:\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = str(Path(declab.cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert int(done.stdout.splitlines()[-1]) <= LARGE_GRID_RSS_MIB * 1024
    # The same columns through an independent formatter.
    parsed = parse_config(text)
    header, columns, _ = EXPERIMENTS[parsed.experiment].run(**parsed.inputs)
    expected = io.BytesIO()
    np.savetxt(expected, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    assert (tmp_path / parsed.out_csv).read_bytes() == expected.getvalue()


def test_main_run_reports_runtime_failure(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(CHI_CONFIG)
    code = main(["run", "--config", str(cfg), "--out", "/proc/definitely/not/writable"])
    assert code == 2
    assert "run failed" in capsys.readouterr().err


# Non-finite numbers and fractional sector sizes fail validate, naming their key.
BAD_NUMBERS = [
    (AZ_CONFIG, "t_grid.stop = 2.0", "t_grid.stop = inf", "t_grid.stop"),
    (CHI_CONFIG, "env.b = 1.0", "env.b = inf", "env.b"),
    (AZ_CONFIG, "model.lambdas = 1,-1", "model.lambdas = 1,nan", "model.lambdas"),
    (SPIN_ASYMPTOTICS_CONFIG, "model.a = 1,0,2", "model.a = 1,nan,0", "model.a"),
    (CHI_CONFIG, "env.kind = uniform\nenv.a = -1.0\nenv.b = 1.0",
     "env.kind = discrete\nenv.points = -0.5:nan, 0.5:0.5", "env.points"),
    (AZ_CONFIG, "model.delta = 2.0", "model.delta = 2.0\nmodel.h_s = 0,0,0,nan", "model.h_s"),
    (AZ_CONFIG, "model.sector_dims = 1,1", "model.sector_dims = 1.5,1", "model.sector_dims"),
]


@pytest.mark.parametrize("base, old, new, key", BAD_NUMBERS, ids=[c[3] for c in BAD_NUMBERS])
def test_main_validate_names_key_of_bad_number(tmp_path, capsys, base, old, new, key):
    assert old in base
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(base.replace(old, new))
    assert main(["validate", "--config", str(cfg)]) == 1
    assert f"invalid config: {key}:" in capsys.readouterr().err


def test_main_validate_rejects_bloch_vector_on_non_qubit_system(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(AZ_CONFIG.replace("model.sector_dims = 1,1", "model.sector_dims = 2,1"))
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "invalid config: initial.bloch:" in capsys.readouterr().err


DENSE_CAP = [
    (AZ_CONFIG, "model.sector_dims = 1,1", "model.sector_dims = 1025", "model.sector_dims"),
    (AZ_CONFIG, "model.sector_dims = 1,1", "model.sector_dims = 1000,25", "model.sector_dims"),
    (DEMO_CONFIG, "demo.dim = 4", "demo.dim = 1500", "demo.dim"),
]


@pytest.mark.parametrize("base, old, new, key", DENSE_CAP, ids=[c[2] for c in DENSE_CAP])
def test_main_validate_rejects_dimension_above_dense_cap(tmp_path, capsys, base, old, new, key):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(base.replace(old, new))
    assert main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"invalid config: {key}:" in err and "1024" in err


def test_parse_checks_sector_dims_before_building_projectors(monkeypatch):
    def forbidden(dims):
        raise AssertionError("projectors built for an over-cap system")

    monkeypatch.setattr("declab.cli.block_diagonal_sectors", forbidden)
    # 1025 sectors of size 1: the dimension cap is checked before any sector structure is built.
    dims = ",".join(["1"] * 1025)
    text = AZ_CONFIG.replace("model.sector_dims = 1,1", f"model.sector_dims = {dims}")
    text = text.replace("model.lambdas = 1,-1", "model.lambdas = " + ",".join(["0"] * 1025))
    with pytest.raises(ValidationError) as info:
        parse_config(text)
    assert info.value.key == "model.sector_dims"


def test_main_validate_rejects_h_s_coupling_sectors(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(AZ_CONFIG + "model.h_s = 0.5,0.2,0.2,-0.5\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "invalid config: model:" in err and "sector projector 0" in err
    cfg.write_text(AZ_CONFIG + "model.h_s = 0.5,0,0,-0.5\n")
    assert main(["validate", "--config", str(cfg)]) == 0


def unit_sector_config(k):
    """An araki_zurek config with k unit sectors and the maximally mixed state."""
    text = AZ_CONFIG
    for old, new in [("sector_dims = 1,1", "sector_dims = " + ",".join(["1"] * k)),
                     ("lambdas = 1,-1", "lambdas = " + ",".join(map(str, range(k)))),
                     ("delta = 2.0", "delta = 1.0"),
                     ("bloch = 1,0,0", "matrix = " + ",".join(map(str, (np.eye(k) / k).ravel())))]:
        text = text.replace(old, new)
    return text


def test_parse_accepts_unit_sectors_at_dense_cap():
    cfg = parse_config(unit_sector_config(1024))
    assert len(cfg.inputs["model"].sectors) == 1024 and cfg.inputs["initial_state"].dim == 1024


def test_parse_accepts_dimension_at_dense_cap():
    assert parse_config(DEMO_CONFIG.replace("demo.dim = 4", "demo.dim = 1024")).inputs["dim"] == 1024


SPIN_CONFIG = """
experiment = spin
t_grid.start = 0.0
t_grid.stop = 20000.0
t_grid.count = 3
env.kind = gaussian
env.s = 1.0
model.a = 1,0,2
model.b = 0.3
model.lam = 1.0
initial.bloch = 0.7,0.2,0.5
"""


# A fold x* = -a_3 / lam beyond the double range: the whole support is one
# far branch in the field coordinate z = a_3 + lam x.  It used to be left
# near, pre-split at 2 |lam|, and ran out of panels at t = 12000 (exit 2).
DEGENERATE_FOLD = ("env.kind = uniform\nenv.a = -4e299\nenv.b = 4e299",
                   "model.a = 1,0,1e10", "model.lam = 1e-300")


@pytest.mark.parametrize("base", [SPIN_CONFIG, SPIN_ASYMPTOTICS_CONFIG.replace(
    "t_grid.stop = 14.0", "t_grid.stop = 20000.0").replace("fit.window = 2,14\n", "")],
    ids=["spin", "spin_asymptotics"])
def test_main_runs_spin_grids_past_the_old_horizons(tmp_path, capsys, base):
    # A unit gaussian with lam = 1 and a = (1, 0, 2) had the horizon of the
    # near region [-3, -1] of the fold, 2**14 pi / (2 * 2) ~ 12868.  The strip
    # about the fold now shrinks with t: 2e4 validates and runs.
    cfg = tmp_path / "scenario.cfg"
    for env, a, lam, stop in [("env.kind = gaussian\nenv.s = 1.0", "model.a = 1,0,2",
                               "model.lam = 1.0", "20000.0"), DEGENERATE_FOLD + ("12000.0",)]:
        cfg.write_text(base.replace("env.kind = gaussian\nenv.s = 1.0", env)
                       .replace("model.a = 1,0,2", a).replace("model.lam = 1.0", lam)
                       .replace("t_grid.stop = 20000.0", f"t_grid.stop = {stop}"))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "invalid" not in capsys.readouterr().err
        csv = next(tmp_path.glob("*.csv"))
        _, rows = read_csv(csv)
        values = np.array(rows, dtype=float)
        assert values[-1, 0] == float(stop) and np.all(np.isfinite(values))
        csv.unlink()


FOLD_INSIDE_ENVS = {"gaussian": "env.kind = gaussian\nenv.s = 1",
                    "bump": "env.kind = bump\nenv.a = -1\nenv.b = 1.5",
                    "uniform": "env.kind = uniform\nenv.a = -1\nenv.b = 1.5"}


@pytest.mark.parametrize("stop", ["1e16", "1e20"])
@pytest.mark.parametrize("kind", FOLD_INSIDE_ENVS)
def test_main_runs_spin_with_the_fold_inside_at_very_large_t(tmp_path, capsys, kind, stop):
    # The fold x* = -0.3 lies inside each support.  Far branches from the
    # strip's edge carry factors ~ w m / zeta ~ sqrt(t); their rounding used
    # to be rescaled into the Legendre tail estimate, which then exceeded
    # tol = 1e-9 from t ~ 1e16 (exit 2).
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SPIN_CONFIG.replace("env.kind = gaussian\nenv.s = 1.0", FOLD_INSIDE_ENVS[kind])
                   .replace("model.a = 1,0,2", "model.a = 1,0,0.3")
                   .replace("t_grid.stop = 20000.0", f"t_grid.stop = {stop}"))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(tmp_path / "spin.csv")
    values = np.array(rows, dtype=float)
    assert values[-1, 0] == float(stop) and np.all(np.isfinite(values))
    assert np.all(np.linalg.norm(values[:, 1:], axis=1) <= 1.0 + 1e-12)


# A bump on [-1, 1] whose strip about the fold x* = -0.3 holds much of the
# weight.  At t_grid.stop = 1e12 it ran for 29 s and exited 2 (out of panels).
BUMP_STRIP = SPIN_CONFIG.replace("env.kind = gaussian\nenv.s = 1.0",
                                 "env.kind = bump\nenv.a = -1\nenv.b = 1").replace(
    "model.a = 1,0,2", "model.a = 1,0,0.003").replace("model.lam = 1.0", "model.lam = 0.01").replace(
    "t_grid.count = 3", "t_grid.count = 201")
# Pre-registered bound on one in-process run of BUMP_STRIP, in seconds.
BUMP_STRIP_SECONDS = 2.0


@pytest.mark.parametrize("stop", ["1e6", "1e8", "1e10", "1e12", "1e14"])
def test_main_runs_a_strip_heavy_spin_config_at_any_t_within_its_time_bound(tmp_path, capsys,
                                                                             stop):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(BUMP_STRIP.replace("t_grid.stop = 20000.0", f"t_grid.stop = {stop}"))
    assert main(["validate", "--config", str(cfg)]) == 0
    start = time.perf_counter()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < BUMP_STRIP_SECONDS
    assert capsys.readouterr().err == ""
    _, rows = read_csv(tmp_path / "spin.csv")
    values = np.array(rows, dtype=float)
    assert values.shape == (201, 4) and values[-1, 0] == float(stop)
    assert np.all(np.isfinite(values))
    assert np.all(np.linalg.norm(values[:, 1:], axis=1) <= 1.0 + 1e-12)


def test_main_runs_spin_asymptotics_with_an_axis_flip_narrower_than_an_ulp_of_the_fold(tmp_path,
                                                                                       capsys):
    # m = 1e-9 flips the axis over ~1e-9 about x* = -4/7, where doubles are
    # 1.1e-16 apart.  Integrated in x, the map's abscissae put the flip out
    # of place in every panel, which ran out of panels (exit 2).
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("experiment = spin_asymptotics\nt_grid.start = 0\nt_grid.stop = 1\n"
                   "t_grid.count = 15\nenv.kind = gaussian\nenv.s = 0.3333333333333333\n"
                   "model.a = 1e-9,0,0.5\nmodel.b = 0.3\nmodel.lam = 0.875\n"
                   "initial.bloch = 0.7,0.2,0.5\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(next(tmp_path.glob("*.csv")))
    values = np.array(rows, dtype=float)
    assert values.shape == (15, 2) and np.all(np.isfinite(values))


def test_spin_grid_inside_horizon_or_on_discrete_env_validates():
    assert parse_config(SPIN_CONFIG.replace("t_grid.stop = 20000.0", "t_grid.stop = 1286.0"))
    # Neither the strip about the fold nor the far branches bound t, and no
    # spin horizon is left: a fold beyond the double range validates too.
    far = parse_config(SPIN_CONFIG.replace("t_grid.stop = 20000.0", "t_grid.stop = 1e6"))
    assert far.inputs["t_grid"][-1] == 1e6
    env, a, lam = DEGENERATE_FOLD
    degenerate = parse_config(SPIN_CONFIG.replace("env.kind = gaussian\nenv.s = 1.0", env)
                              .replace("model.a = 1,0,2", a).replace("model.lam = 1.0", lam)
                              .replace("t_grid.stop = 20000.0", "t_grid.stop = 1e8"))
    assert degenerate.inputs["t_grid"][-1] == 1e8
    # A discrete environment is an exact sum at every t.
    discrete = SPIN_CONFIG.replace("env.kind = gaussian\nenv.s = 1.0",
                                   "env.kind = discrete\nenv.points = -0.5:0.5, 0.5:0.5")
    assert parse_config(discrete).inputs["t_grid"][-1] == 20000.0


FAR_FIELD = "env.kind = discrete\nenv.points = -{0}:0.5, {0}:0.5"


def test_main_run_spin_field_beyond_norm_overflow(tmp_path):
    # |a_3 + lam x| ~ 1e160 overflowed np.linalg.norm: the CSV was nan at every t, exit 0.
    cfg = tmp_path / "scenario.cfg"
    far = SPIN_CONFIG.replace("env.kind = gaussian\nenv.s = 1.0", FAR_FIELD.format("1e160"))
    cfg.write_text(far.replace("t_grid.stop = 20000.0", "t_grid.stop = 1.0"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spin.csv")
    values = np.array(rows, dtype=float)
    assert np.all(np.isfinite(values))
    assert np.abs(values[0, 1:] - [0.7, 0.2, 0.5]).max() <= 1e-15


@pytest.mark.parametrize("base", [SPIN_CONFIG, SPIN_ASYMPTOTICS_CONFIG],
                         ids=["spin", "spin_asymptotics"])
def test_main_validate_rejects_spin_phase_overflow(tmp_path, capsys, base):
    # At |field| ~ 1e308 the rotation rate 2 |field| is inf whatever t is.
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(base.replace("env.kind = gaussian\nenv.s = 1.0", FAR_FIELD.format("1e308")))
    assert main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "invalid config: t_grid.stop:" in err and "is not finite" in err


def test_main_run_chi_scan_beyond_old_panel_budget(tmp_path):
    # t = 1.01e5 needed more than the adaptive rule's 2**14 panels (exit 2).
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(CHI_CONFIG.replace("t_grid.stop = 6.0", "t_grid.stop = 101000.0")
                   .replace("t_grid.count = 13", "t_grid.count = 3")
                   .replace("env.kind = uniform\nenv.a = -1.0\nenv.b = 1.0",
                            "env.kind = gaussian\nenv.s = 1.0"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "chi_scan.csv")
    ts = np.array([float(row[0]) for row in rows])
    chi = np.array([complex(float(row[1]), float(row[2])) for row in rows])
    assert np.abs(chi - np.exp(-(ts**2) / 2.0)).max() < 1e-14


CHI_UNIFORM = "env.kind = uniform\nenv.a = -1.0\nenv.b = 1.0"
PHASE_OVERFLOW = [
    (CHI_CONFIG, [(CHI_UNIFORM, "env.kind = gaussian\nenv.s = 1e150"),
                  ("t_grid.stop = 6.0", "t_grid.stop = 1e200")]),
    (AZ_CONFIG, [("model.lambdas = 1,-1", "model.lambdas = 1e300,-1e300"),
                 ("t_grid.stop = 2.0", "t_grid.stop = 1e150")]),
    # Points far from 0: v t overflows (chi was nan, exit 0), the width times t does not.
    (CHI_CONFIG, [(CHI_UNIFORM, "env.kind = discrete\nenv.points = 1e300:0.5, 1.0000001e300:0.5"),
                  ("t_grid.stop = 6.0", "t_grid.stop = 1e10")]),
]


@pytest.mark.parametrize("base, edits", PHASE_OVERFLOW,
                         ids=["chi_scan", "araki_zurek", "far_points"])
def test_main_validate_rejects_chi_phase_overflow(tmp_path, capsys, base, edits):
    # These used to pass validate and end in a traceback (an OverflowError in
    # spherical_jn, or a ValueError for the infinite gap * t) or in nan chi.
    for old, new in edits:
        assert old in base
        base = base.replace(old, new)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(base)
    assert main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "invalid config: t_grid.stop:" in err and "is not finite" in err
    # Just inside the bound the run completes.
    cfg.write_text(base.replace("1e200", "1e150").replace("1e300,-1e300", "1e150,-1e150")
                   .replace("t_grid.stop = 1e10", "t_grid.stop = 1e7"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("count", [MAX_TIME_POINTS + 1, 10000000000])
def test_main_validate_rejects_grid_above_time_point_cap(tmp_path, capsys, monkeypatch, count):
    def forbidden(*args, **kwargs):
        raise AssertionError("time grid allocated before its count was checked")

    monkeypatch.setattr(np, "linspace", forbidden)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(CHI_CONFIG.replace("t_grid.count = 13", f"t_grid.count = {count}"))
    assert main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "invalid config: t_grid.count:" in err and f"exceed {MAX_TIME_POINTS}" in err


def test_parse_accepts_grid_at_time_point_cap():
    text = CHI_CONFIG.replace("t_grid.count = 13", f"t_grid.count = {MAX_TIME_POINTS}")
    assert parse_config(text).inputs["t_grid"].size == MAX_TIME_POINTS


# Examples found by tests/test_config_properties.py, pinned.
FIT_WINDOW = [
    ("t_grid.count = 2", "", "t_grid.count"),
    ("t_grid.count = 14", "", "t_grid.count"),
    ("t_grid.count = 25", "fit.window = 12.6,14\n", "fit.window"),
    ("t_grid.count = 25", "fit.window = 14,2\n", "fit.window"),
]


@pytest.mark.parametrize("count, window, key", FIT_WINDOW, ids=["2", "14", "12.6,14", "14,2"])
def test_main_validate_rejects_fit_window_with_too_few_grid_points(tmp_path, capsys, count,
                                                                  window, key):
    # The fit needs 8 grid points in its window (by default the last half of the
    # grid); the run used to fail with exit 2.
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SPIN_ASYMPTOTICS_CONFIG.replace("t_grid.count = 25", count)
                   .replace("fit.window = 2,14\n", window))
    assert main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"invalid config: {key}:" in err and "the fit needs 8" in err


def test_fit_window_of_eight_grid_points_validates():
    # t = 2, 2.5, ..., 14: the default window [8, 14] holds 13 points, [10.5, 14] holds 8.
    window = SPIN_ASYMPTOTICS_CONFIG.replace("fit.window = 2,14", "fit.window = 10.5,14")
    assert parse_config(window).inputs["fit_window"] == (10.5, 14.0)
    assert parse_config(SPIN_ASYMPTOTICS_CONFIG.replace("fit.window = 2,14\n", ""))


NO_DECAY = [
    # Uncoupled, unpolarized: every distance is 0, so no envelope point is left.
    ("model.a = 1,0,2\nmodel.b = 0.3\nmodel.lam = 1.0\ninitial.bloch = 0.7,0.2,0.5",
     "model.a = 0,0,0\nmodel.b = 1.0\nmodel.lam = 0.0\ninitial.bloch = 0,0,0", "envelope points"),
    # Uncoupled: the spin precesses for ever, no envelope decays.
    ("model.lam = 1.0", "model.lam = 0.0", "not negative"),
    # A subnormal delta leaves log(1 + delta t) subnormal: the slope overflows.
    ("fit.delta = 1.0", "fit.delta = 5e-324", "not finite"),
]


@pytest.mark.parametrize("old, new, reason", NO_DECAY, ids=["zero", "uncoupled", "tiny_delta"])
def test_main_run_writes_series_and_reports_why_no_decay_fit(tmp_path, old, new, reason):
    assert old in SPIN_ASYMPTOTICS_CONFIG
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SPIN_ASYMPTOTICS_CONFIG.replace(old, new))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spin_asymptotics.csv")
    assert len(rows) == 25
    report = json.loads((tmp_path / "spin_asymptotics_report.json").read_text())
    assert reason in report["decay_fit"]["error"]


def test_main_run_fit_window_below_the_square_root_of_the_smallest_double(tmp_path, capfd):
    # log(1 + t) at t <= 3.6e-201 squares to 0: a least-squares solver that
    # scales its columns by their norms divides by 0, and LAPACK then writes
    # to the process's stdout, past the CLI.
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SPIN_ASYMPTOTICS_CONFIG.replace("t_grid.start = 2.0", "t_grid.start = 0")
                   .replace("t_grid.stop = 14.0", "t_grid.stop = 3.6e-201")
                   .replace("env.kind = gaussian\nenv.s = 1.0",
                            "env.kind = uniform\nenv.a = -5e299\nenv.b = 5e299")
                   .replace("model.a = 1,0,2", "model.a = 1,1,1.27e228")
                   .replace("model.lam = 1.0", "model.lam = -1")
                   .replace("fit.window = 2,14\n", ""))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out, err = capfd.readouterr()
    assert out.startswith("wrote ") and out.count("\n") == 1 and err == ""
    report = json.loads((tmp_path / "spin_asymptotics_report.json").read_text())
    assert "window [1.8e-201, 3.6e-201]" in report["decay_fit"]["error"]


# Inputs at which numpy arithmetic inside declab overflows or divides by 0,
# which must not reach stderr as a RuntimeWarning: points and lambdas spanning
# more than the double range, a subnormal fit.delta (the regression slope
# overflows), a subnormal lam and a steep envelope on a long window (the
# prefactor C overflows).  A validate fails with one line naming the key; a
# run reports why no fit was made, in a report that is strict JSON.
WARNING_INPUTS = [
    ("validate", SPIN_CONFIG.replace("env.kind = gaussian\nenv.s = 1.0", FAR_FIELD.format("1e308"))
     .replace("t_grid.stop = 20000.0", "t_grid.stop = 1.0"), "declab: invalid config: t_grid.stop:"),
    ("validate", AZ_CONFIG.replace("model.lambdas = 1,-1", "model.lambdas = -1e308,1e308"),
     "declab: invalid config: t_grid.stop:"),
    ("run", SPIN_ASYMPTOTICS_CONFIG.replace("fit.delta = 1.0", "fit.delta = 5e-324"), "not finite"),
    ("run", SPIN_ASYMPTOTICS_CONFIG.replace("model.lam = 1.0", "model.lam = 1e-310"), "not negative"),
    ("run", SPIN_ASYMPTOTICS_CONFIG.replace("t_grid.start = 2.0", "t_grid.start = 0")
     .replace("t_grid.stop = 14.0", "t_grid.stop = 4")
     .replace("t_grid.count = 25", "t_grid.count = 201").replace("model.a = 1,0,2", "model.a = 1,0,60")
     .replace("fit.delta = 1.0", "fit.delta = 1e9").replace("fit.window = 2,14\n", ""),
     "of the envelope in window [2, 4] is not a finite double"),
]
# 2x2 matrices with entries near the double range: abs() of an entry, the
# Hermitian check's norms, (a + a^dagger) / 2 and the phase |h_s| t overflow.
HUGE_MATRIX = """experiment = araki_zurek
t_grid.start = 0
t_grid.stop = {stop}
t_grid.count = 3
env.kind = gaussian
env.s = 1
model.sector_dims = 1,1
model.lambdas = 1,-1
model.delta = 2
initial.matrix = {rho}
"""
HALF = "0.5,0,0,0.5"
WARNING_INPUTS += [
    ("validate", HUGE_MATRIX.format(stop=1, rho="0.5,1.7e308+1.7e308j,1.7e308-1.7e308j,0.5"),
     "declab: invalid config: initial.matrix: smallest eigenvalue"),
    ("validate", HUGE_MATRIX.format(stop=1, rho="0.5,1e308+1e308j,1e308-1e308j,0.5"),
     "declab: invalid config: initial.matrix: smallest eigenvalue"),
    ("validate", HUGE_MATRIX.format(stop=1, rho=HALF) + "model.h_s = 1e308+1e308j,0,0,1\n",
     "declab: invalid config: model:"),
    ("validate", HUGE_MATRIX.format(stop=4, rho=HALF) + "model.h_s = 1e308,0,0,1\n",
     "declab: invalid config: t_grid.stop:"),
    # Squared, these entries overflow the commutation check, whose leak then read nan.
    ("validate", HUGE_MATRIX.format(stop="1e-300", rho=HALF) + "model.h_s = 1e200,1e200,1e200,1\n",
     "declab: invalid config: model: system Hamiltonian does not commute"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text, outcome", WARNING_INPUTS,
                         ids=["spin_points", "az_lambdas", "tiny_delta", "tiny_lam", "huge_prefactor",
                              "huge_state", "overflowing_state", "overflowing_h_s", "h_s_phase",
                              "huge_h_s_leak"])
def test_main_reaches_its_outcome_without_numpy_warnings(tmp_path, capsys, command, text, outcome):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text)
    if command == "validate":
        assert main(["validate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(outcome)
    else:
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "spin_asymptotics_report.json").read_text(),
                            parse_constant=_reject_constant)
        assert outcome in report["decay_fit"]["error"]


def _reject_constant(name):
    raise ValueError(f"the report holds {name}, which is not JSON")


@pytest.mark.filterwarnings("error")
def test_main_validate_accepts_a_huge_commuting_h_s(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(HUGE_MATRIX.format(stop="1e-300", rho=HALF) + "model.h_s = 1e200,0,0,1\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_main_run_az_grid_starting_at_subnormal_time(tmp_path):
    # chi at t ~ 1e-308 used to be nan, and the state built from it was rejected (exit 2).
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(AZ_CONFIG.replace("t_grid.start = 0.0", "t_grid.start = 1.8e-307")
                   .replace("model.lambdas = 1,-1", "model.lambdas = 0,0.0625")
                   .replace("model.delta = 2.0", "model.delta = 0.0625"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "araki_zurek.csv")
    assert abs(float(rows[0][5]) - 1.0) < 1e-15 and float(rows[0][1]) > 0.0


def test_main_run_rejects_a_dephased_state_that_is_not_positive(tmp_path, capsys, monkeypatch):
    import declab.models as models

    def tables(lambdas, env, ts, stack=1):
        # chi = 3 is no overlap of environment states: C o rho0 of the state
        # (1 + sigma_x)/2 then has the eigenvalue -1, in the second chunk only.
        for chi in (0.5, 3.0):
            table = np.full((ts.size // 2, 2, 2), chi, dtype=complex)
            table[:, [0, 1], [0, 1]] = 1.0
            yield table

    monkeypatch.setattr(models, "_chi_tables", tables)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(AZ_CONFIG.replace("t_grid.count = 9", "t_grid.count = 8"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["declab: run failed: smallest eigenvalue -1 below -1e-10"]


# Checks past validate, each hit by making a runner's model call misbehave:
# (config, the call replaced in declab.cli, its replacement, what the line names).
def _chi_at_nan(env, ts):
    return declab.models.chi_trajectory(env, np.append(ts, np.nan))


def _chi_beyond_the_double_range(env, ts):
    return declab.models.chi_trajectory(SpectralDensity.gaussian(1e150), ts * 1e200)


def _spin_on_an_empty_strip(model, p, ts):
    return declab.quadrature.gauss_legendre_adaptive(None, 0.5, 0.5, 1e-9)


RUNTIME_CHECKS = {
    "finite_times": (CHI_CONFIG, "chi_trajectory", _chi_at_nan, r"t\[13\] = nan"),
    "phase_overflow": (CHI_CONFIG, "chi_trajectory", _chi_beyond_the_double_range,
                       r"t\[1\] = 5e\+199 times the panel half-width 1\.25e\+150 overflows"),
    "empty_interval": (SPIN_CONFIG, "spin_trajectory", _spin_on_an_empty_strip,
                       r"empty integration interval \[0\.5, 0\.5\]"),
}


@pytest.mark.parametrize("check", RUNTIME_CHECKS)
def test_main_run_reports_a_failed_runtime_check_in_one_line(tmp_path, capsys, monkeypatch,
                                                             check):
    # These raised a bare ValueError, which main printed as a traceback.
    config, call, replacement, names = RUNTIME_CHECKS[check]
    monkeypatch.setattr(declab.cli, call, replacement)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("declab: run failed: ")
    assert re.search(names, err[0]), err[0]


@pytest.mark.parametrize("config", [AZ_CONFIG, SPIN_CONFIG, SPIN_ASYMPTOTICS_CONFIG, CHI_CONFIG,
                                    DEMO_CONFIG],
                         ids=["araki_zurek", "spin", "spin_asymptotics", "chi_scan",
                              "decompose_demo"])
def test_main_validate_checks_the_seed_of_every_experiment(tmp_path, capsys, config):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config.replace("seed = 7", "") + "seed = 1.5\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("declab: invalid config: seed:")
    cfg.write_text(config.replace("seed = 7", "") + "seed = 12\n")
    assert main(["validate", "--config", str(cfg)]) == 0
