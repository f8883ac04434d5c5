import ctypes
import dataclasses
import hashlib
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oversmooth import (
    ExperimentConfig,
    ExpVolterraProblem,
    GridFunction,
    RegularizerFamily,
    ScaleOperator,
    fit_slope,
    run_rate_study,
    run_suite,
)
from oversmooth.cli import _config_from_args, build_parser, main
from oversmooth import cli, harness, scale, tikhonov
from oversmooth.harness import SUITE_NAMES, CheckResult, parse_config_file
from oversmooth.scale import QuadratureError


def fast_config(**overrides):
    base = dict(
        grid_n=64,
        delta_list=tuple(np.geomspace(1e-1, 1e-3, 4)),
        n_seeds=1,
        max_iter=60,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -- slope fitting ------------------------------------------------------------


def test_fit_slope_exact_line():
    deltas = np.geomspace(1e-1, 1e-4, 6)
    assert fit_slope([(d, d) for d in deltas]) == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_rejects_one_distinct_x():
    # Equal x values leave the slope undefined: an error, not a NaN fit and a RuntimeWarning.
    with pytest.raises(ValueError, match="two distinct x values"):
        fit_slope([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])


def test_fit_slope_scaled_power():
    deltas = np.geomspace(1e-1, 1e-4, 6)
    assert fit_slope([(d, 3.0 * d**0.5) for d in deltas]) == pytest.approx(0.5, abs=1e-12)


def test_fit_slope_perturbed_power():
    deltas = np.geomspace(1e-1, 1e-4, 8)
    pts = [(d, d**0.5 * (1.0 + 0.05 * (-1.0) ** k)) for k, d in enumerate(deltas)]
    assert abs(fit_slope(pts) - 0.5) <= 0.03


def test_fit_slope_validation():
    with pytest.raises(ValueError):
        fit_slope([(1e-1, 1.0), (1e-2, 0.5)])
    with pytest.raises(ValueError):
        fit_slope([(1e-1, 1.0), (1e-2, 0.5), (1e-3, -0.1)])


@pytest.mark.parametrize("bad", [(2.0, math.nan), (math.inf, 1.0), (2.0, math.inf)])
def test_fit_slope_rejects_non_finite_points(bad):
    # A NaN point would give a NaN slope, and an infinite one a NaN with RuntimeWarnings; the error names it.
    message = f"slope fitting needs strictly positive, finite points, got {bad}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit_slope([(1.0, 1.0), bad, (3.0, 1.0)])


# -- config ---------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(grid_n=32)
    with pytest.raises(ValueError):
        ExperimentConfig(delta_list=(1e-3, 1e-2))
    with pytest.raises(ValueError, match="at least one noise level"):
        ExperimentConfig(delta_list=())
    with pytest.raises(ValueError):
        ExperimentConfig(regime="other")
    with pytest.raises(ValueError):
        ExperimentConfig(n_seeds=0)
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        ExperimentConfig(seed=-1)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(
        """
        # study configuration
        grid_n = 128
        regime = low_order
        delta_list = 1e-1, 1e-2, 1e-3
        n_seeds = 2
        """
    )
    cfg = parse_config_file(path)
    assert cfg.grid_n == 128
    assert cfg.regime == "low_order"
    assert cfg.delta_list == (1e-1, 1e-2, 1e-3)
    assert cfg.n_seeds == 2

    # Every field round-trips with its own type; integral text for a float
    # field (r = 2) must still come back as a float.
    values = {
        "grid_n": 128,
        "regime": "low_order",
        "p": 0.75,
        "r": 2.0,
        "delta_list": (1e-1, 1e-2, 1e-3),
        "seed": 7,
        "n_seeds": 2,
        "noise_kind": "smooth_bump",
        "max_iter": 200,
    }
    assert set(values) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    text = {"r": "2", "delta_list": "1e-1, 1e-2, 1e-3"}
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = {text.get(key, value)}\n" for key, value in values.items()))
    cfg = parse_config_file(path)
    default = ExperimentConfig()
    for key, value in values.items():
        got = getattr(cfg, key)
        assert got == value != getattr(default, key), key
        assert type(got) is type(value), key
    assert all(type(d) is float for d in cfg.delta_list)


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("grid_m = 10\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_file(path)


def test_config_file_line_without_equals_names_location(tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text("p = 0.5\n\ngrid_n 128\n")
    assert main(["rate-study", "--config", str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {path}:3: expected 'key = value'"


@pytest.mark.parametrize(
    "line, key",
    [("grid_n = 1e3", "grid_n"), ("p = abc", "p"), ("delta_list = 0.1, x", "delta_list")],
)
def test_config_file_bad_value_names_location(tmp_path, line, key):
    path = tmp_path / "typo.cfg"
    path.write_text("# comment\n" + line + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: bad value for '{key}': "):
        parse_config_file(path)


@pytest.mark.parametrize("spelling", ["low-order", "low_order"])
def test_config_file_accepts_cli_regime_spelling(tmp_path, spelling):
    path = tmp_path / "study.cfg"
    path.write_text(f"regime = {spelling}\n")
    assert parse_config_file(path).regime == "low_order"
    argv = ["rate-study", "--config", str(path)]
    assert _config_from_args(build_parser().parse_args(argv)).regime == "low_order"


@pytest.mark.parametrize("command", ["rate-study", "suite"])
@pytest.mark.parametrize("spelling", ["low-order", "low_order"])
def test_cli_regime_takes_the_report_spelling(command, spelling):
    # Reports store "low_order", and config files take it; so does --regime.
    args = build_parser().parse_args([command, "--regime", spelling])
    assert _config_from_args(args).regime == "low_order"


def test_config_takes_the_cli_regime_spelling():
    # One vocabulary: "low-order" is stored as "low_order", so the frozen report is the same either way.
    assert ExperimentConfig(regime="low-order") == ExperimentConfig(regime="low_order")
    assert ExperimentConfig(regime="low-order").regime == "low_order"


def test_config_file_invalid_config_names_file(tmp_path, capsys):
    path = tmp_path / "zero.cfg"
    path.write_text("n_seeds = 0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: n_seeds must be at least 1$"):
        parse_config_file(path)
    assert main(["rate-study", "--config", str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {path}: n_seeds must be at least 1"


def test_config_file_rejects_a_key_set_twice(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("p = 0.5\ngrid_n = 64\np = 1.0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: 'p' already set on line 1$"):
        parse_config_file(path)
    assert main(["rate-study", "--config", str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {path}:3: 'p' already set on line 1"


def test_config_rejects_more_draws_than_a_level_has_seeds():
    # Draw j of level i is seeded seed + 1000 i + j: a 1001st draw would reuse the next level's first seed.
    assert ExperimentConfig(n_seeds=1000).n_seeds == 1000
    with pytest.raises(ValueError, match="^n_seeds must be at most 1000$"):
        ExperimentConfig(n_seeds=1001)


@pytest.mark.parametrize(
    "build, name, value",
    [
        (ScaleOperator, "n", 2.5),
        *((lambda **kw: RegularizerFamily(ScaleOperator(64), **kw), "m", v) for v in (2.5, math.nan, math.inf)),
        (ExperimentConfig, "grid_n", 64.5),
        (ExperimentConfig, "seed", 0.5),
        (ExperimentConfig, "n_seeds", 1.5),
        (ExperimentConfig, "max_iter", 2.5),
    ],
)
def test_integer_fields_reject_other_numbers(build, name, value):
    # Rejected where they enter, not by a TypeError mid-study or a 2.5 written into the report.
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        build(**{name: value})


def test_integer_fields_store_numpy_integers_as_python_ints():
    names = ("grid_n", "seed", "n_seeds", "max_iter")
    cfg = ExperimentConfig(grid_n=np.int64(64), seed=np.int64(0), n_seeds=np.int64(1), max_iter=np.int16(60))
    assert [type(getattr(cfg, name)) for name in names] == [int] * len(names)
    assert json.loads(json.dumps(dataclasses.asdict(cfg)))["n_seeds"] == 1
    assert type(ScaleOperator(np.int64(64)).n) is int
    assert type(RegularizerFamily(ScaleOperator(64), m=np.int64(3)).m) is int


#: Config lines that ExperimentConfig rejects before a study starts -> a fragment of the error.
BAD_CONFIG_LINES = {
    "max_iter = 0": "max_iter must be at least 1",
    "max_iter = -1": "max_iter must be at least 1",
    "seed = -1": "seed must be non-negative",
    "n_seeds = 1001": "n_seeds must be at most 1000",
    "p = 1.5": "order p in (0, 1]",
    "r = 0": "exponents r and a must be positive",
    "noise_kind = foo": "unknown noise kind: 'foo'",
    "p = nan": "p must be finite",
    "r = inf": "r must be finite",
    "delta_list = nan": "noise levels must be positive and finite",
    "delta_list = inf, 0.1": "noise levels must be positive and finite",
    "regime = low_order\ndelta_list = 1.0, 0.1, 0.01": "low-order noise levels must be below 1",
    "regime = low_order\ndelta_list = 2.0": "low-order noise levels must be below 1",
}


@pytest.mark.parametrize("line", list(BAD_CONFIG_LINES))
def test_cli_rejects_invalid_study_fields(tmp_path, capsys, line):
    # Study fields that a run would otherwise reject only mid-run.
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n" if line.startswith("p =") else f"p = 0.5\n{line}\n")  # a key set twice is another error
    assert main(["rate-study", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ") and BAD_CONFIG_LINES[line] in err[0]


def test_cli_rejects_log_class_quadrature_work(tmp_path, capsys):
    # The quadrature is no setting: a step key ends the study at the config file,
    # before any kernel is built.
    path = tmp_path / "fine.cfg"
    path.write_text("regime = low_order\nquad_step = 2e-4\ngrid_n = 64\n")
    start = time.perf_counter()
    assert main(["rate-study", "--config", str(path)]) == 2
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().err.strip() == f"error: {path}:2: unknown config key 'quad_step'"


@pytest.mark.parametrize(
    "line",
    [
        "warm_chaining = true",
        "n_random_starts = 2",
        # The quadrature is scale's, the two gates are harness constants, a is the model's and the
        # saturation m and the alpha rule's constant are the method's, not settings.
        "tail_tol = 1e-7",
        "quad_step = 0.04",
        "slope_tolerance = 0.5",
        "bounded_ratio_limit = 50",
        "a = 2",
        "m = 2",
        "c_alpha = 1.0",
    ],
)
def test_config_file_rejects_removed_keys(tmp_path, capsys, line):
    path = tmp_path / "old.cfg"
    path.write_text(f"p = 0.5\n{line}\n")
    key = line.split(" = ")[0]
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: unknown config key '{key}'$"):
        parse_config_file(path)
    assert main(["rate-study", "--config", str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {path}:2: unknown config key '{key}'"


@pytest.mark.parametrize("kwargs", [{"m": 3}, {"c_alpha": 2.0}])
def test_config_takes_no_method_constant(kwargs):
    with pytest.raises(TypeError):
        ExperimentConfig(**kwargs)


def test_config_saturation_is_the_least_the_analysis_admits():
    assert ExperimentConfig.m == ExperimentConfig().m == 2 >= 1 + ExpVolterraProblem.a
    assert type(ExperimentConfig.m) is int
    assert "m" not in json.loads(json.dumps(dataclasses.asdict(ExperimentConfig())))


@pytest.mark.parametrize("flag, value", [("--m", "3"), ("--alpha-c", "0.5")])
def test_cli_rejects_method_constant_flags(monkeypatch, capsys, flag, value):
    # A usage error, before any pool starts.
    monkeypatch.setattr(harness, "_pool_map", lambda fn, tasks: pytest.fail("pool started"))
    assert main(["rate-study", flag, value]) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


# -- rate studies ------------------------------------------------------------------


@pytest.fixture(scope="module")
def fast_report():
    return run_rate_study(fast_config(), timestamp="2000-01-01T00:00:00+00:00")


def test_rate_study_row_schema(fast_report):
    assert len(fast_report.rows) == 4
    for row in fast_report.rows:
        assert row.certified
        assert row.alpha == row.delta  # hoelder rule with p = 1, r = 1, a = 1
        assert row.beta == pytest.approx(row.alpha**0.5, rel=1e-14)


def test_rate_study_csv(fast_report):
    lines = fast_report.to_csv().strip().split("\n")
    assert lines[0] == "delta,alpha,beta,error_sup,residual,penalty,certified"
    assert len(lines) == 5
    assert lines[1].endswith(",1")


def test_rate_study_json(fast_report):
    payload = json.loads(fast_report.to_json())
    assert payload["config"]["grid_n"] == 64
    assert payload["timestamp"] == "2000-01-01T00:00:00+00:00"
    assert payload["version"]
    assert len(payload["rows"]) == 4


def test_rate_study_deterministic(fast_report):
    again = run_rate_study(fast_config(), timestamp="2000-01-01T00:00:00+00:00")
    assert again.to_csv() == fast_report.to_csv()
    assert again.to_json() == fast_report.to_json()


@pytest.mark.parametrize("deltas", [(1e-2,), (1e-2, 1e-3)])
def test_low_order_study_needs_three_levels(deltas, tmp_path, capsys):
    # Over fewer than 3 levels the bounded ratio says nothing (1.0 over one level), so the study fails.
    report = run_rate_study(fast_config(regime="low_order", delta_list=deltas))
    assert all(r.certified for r in report.rows) and report.statistic <= harness.BOUNDED_RATIO_LIMIT
    assert not report.passed

    cfg_file = tmp_path / "low_order.cfg"
    levels = ", ".join(map(str, deltas))
    cfg_file.write_text(f"grid_n = 64\nregime = low_order\ndelta_list = {levels}\nn_seeds = 1\nmax_iter = 60\n")
    assert main(["rate-study", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().out.strip().splitlines()[-1] == "[rate-study] FAIL"


def _constant_error_group(probs, fam, u_true, **kwargs):
    # Every draw certified at u_true + 0.1: a method whose error never decreases.
    off = GridFunction(u_true.values + 0.1)
    return [SimpleNamespace(u_min=off, residual=0.0, penalty=0.0, certified=True) for _ in probs]


def test_low_order_study_that_does_not_converge_fails(monkeypatch):
    # Over the default deltas log(1/delta) spans a factor 4.5, so constant errors keep the
    # bounded ratio under its limit; the convergence clause fails the study.
    monkeypatch.setattr(harness, "minimize_many", _constant_error_group)
    report = run_rate_study(ExperimentConfig(grid_n=64, regime="low_order", n_seeds=1))
    assert [r.error_sup for r in report.rows] == pytest.approx([0.1] * 8)
    assert all(r.certified for r in report.rows)
    assert report.statistic == pytest.approx(4.5) and report.statistic <= harness.BOUNDED_RATIO_LIMIT
    assert not report.passed


#: sha256 of each session fixture's CSV and JSON report (conftest.py, timestamp "fixed").
FIXTURE_DIGESTS = {
    "study_hoelder_p1": (
        "4c307b17d6694880856366d20b3113991ee804474767a76551fed673a3328963",
        "7e1edc6e8f8b859673bb49c7833e26f61cdce442ff7f2a7284537bb7b9514df3",
    ),
    "study_hoelder_p05": (
        "1972103459c2ba887893c202b57a324a20f015b8f165404efe3dc014b41fee32",
        "dc7dcd096cb1d6431e4cb5ebdd3dfee316816271eef7d258937baff9a3cfa5cd",
    ),
    "study_low_order": (
        "9a308980514d39d9c165c48c6ac59a11054f2c56333f2dc34bb999826dfc2fe5",
        "5d7c6957f2822b8590dd5dd4ba37d3075f0327cf583b73569c7b54367b0ccf27",
    ),
    "study_none": (
        "d742eb45b0e25dfad246ee81e28e26855ffae7f9bcada48d54af673ed32e2d18",
        "69083a0fe5b2ebda33d851dbc74022dec9095f5a5a689b47ed79c9bae23bcec9",
    ),
    "study_hoelder_p1_n128": (
        "d302f70fe8eeff61e4171954eab52ef9806dc8f4f4d239a8b6b43d9b67259d84",
        "514bd6cbf610de38958de12364072a30001e9d1a081ecb1c64bd0fb34567115d",
    ),
    "study_hoelder_p05_n128": (
        "3e733ccd985f21917f1475111aa4a61c855ddc1d070913ce659d59f8f27c8dba",
        "e35b8f3787f63b14848bde9f9e9ec114f6c3602ac683069a19778cbba6638a47",
    ),
}


@pytest.mark.parametrize("fixture", FIXTURE_DIGESTS)
def test_fixture_reports_unchanged(fixture, request):
    # Every session study reports the same bytes as before, CSV and JSON, and so
    # the same verdict, which the JSON holds; a change to the solver, the
    # operators or the serializer that moves one bit of any of them fails here.
    report = request.getfixturevalue(fixture)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (report.to_csv(), report.to_json()))
    assert digests == FIXTURE_DIGESTS[fixture]


def force_workers(monkeypatch, n):
    monkeypatch.setattr(harness, "_worker_count", lambda n_tasks: min(n, n_tasks))


OPERATOR_SUITES = ("fracpow-check", "decay-check", "aux-rates", "nonlinearity-check")


def test_rate_study_pool_matches_serial(monkeypatch):
    # Four workers, two workers and one worker (one block in this process) give the same bytes.
    force_workers(monkeypatch, 1)
    serial = run_rate_study(fast_config(n_seeds=2), timestamp="fixed")
    for workers in (2, 4):
        force_workers(monkeypatch, workers)
        pooled = run_rate_study(fast_config(n_seeds=2), timestamp="fixed")
        assert pooled.to_csv() == serial.to_csv()
        assert pooled.to_json() == serial.to_json()


def _solved(u_true, draws):
    """minimize_many's results for (residual, penalty, certified) draws; u_min is u_true, so each error is 0."""
    return [SimpleNamespace(u_min=u_true, residual=res, penalty=pen, certified=cert) for res, pen, cert in draws]


def _seed_as_noise(f_true, spec):
    # f_delta - f_true is the draw's seed, so a fake solver can tell its (level, draw) task.
    return GridFunction(f_true.values + spec.seed)


def _slow_first_group(probs, fam, u_true, **kwargs):
    # Groups that start with an earlier task sleep longer, so workers finish them
    # out of submission order; each draw encodes its task as (residual, penalty),
    # and ties in error keep the first draw of a level.
    noise = (prob.f_delta.values[0] - prob.forward_problem.f_true.values[0] for prob in probs)
    tasks = [divmod(round(seed), harness._MAX_SEEDS) for seed in noise]
    first_i, first_j = tasks[0]
    time.sleep(0.02 * (4 * 2 - (first_i * 2 + first_j)))  # 4 levels of 2 draws
    return _solved(u_true, [(float(i + 1), float(j), True) for i, j in tasks])


def test_rate_study_pool_keeps_submission_order(monkeypatch):
    force_workers(monkeypatch, 4)
    monkeypatch.setattr(harness, "add_noise", _seed_as_noise)
    monkeypatch.setattr(harness, "minimize_many", _slow_first_group)
    report = run_rate_study(fast_config(n_seeds=2))
    assert [(r.residual, r.penalty) for r in report.rows] == [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)]


def _failing_minimize(*args, **kwargs):
    raise QuadratureError(f"quadrature failed in process {os.getpid()}")


def test_rate_study_worker_error_reaches_caller(monkeypatch, tmp_path, capsys):
    force_workers(monkeypatch, 2)
    monkeypatch.setattr(harness, "minimize_many", _failing_minimize)
    with pytest.raises(QuadratureError, match="quadrature failed in process") as info:
        run_rate_study(fast_config())
    assert str(info.value) != f"quadrature failed in process {os.getpid()}"  # raised in a worker

    cfg_file = tmp_path / "fast.cfg"
    cfg_file.write_text("grid_n = 64\ndelta_list = 1e-1, 1e-2\nn_seeds = 1\nmax_iter = 60\n")
    assert main(["rate-study", "--config", str(cfg_file)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: quadrature failed in process ")


def test_setulb_of_another_signature_fails_in_the_workers(monkeypatch, tmp_path, capsys):
    # Each worker's first solve raises; the ImportError reaches the caller with its type, and the
    # CLI exits 3 with one error line.  The caller never loads setulb: it solves nothing.
    force_workers(monkeypatch, 2)
    monkeypatch.setattr(tikhonov, "_SETULB_SIGNATURE", "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,csave,lsave,isave,dsave)")
    tikhonov._setulb.cache_clear()  # the forked workers load it again; a failed load is not cached
    with pytest.raises(ImportError, match="^the solver needs scipy>=1.17's setulb") as info:
        run_rate_study(fast_config())
    assert type(info.value) is ImportError and tikhonov._setulb.cache_info().misses == 0

    cfg_file = tmp_path / "fast.cfg"
    cfg_file.write_text("grid_n = 64\ndelta_list = 1e-1, 1e-2\nn_seeds = 1\nmax_iter = 60\n")
    assert main(["rate-study", "--config", str(cfg_file)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: the solver needs scipy>=1.17's setulb")


def test_cli_without_scipy_exits_3():
    # With scipy hidden, the first shifted solve cannot load _flapack: one error line and no traceback.
    code = "import sys\nsys.modules['scipy'] = None\nfrom oversmooth.cli import main\nsys.exit(main(['decay-check', '--grid-n', '64']))\n"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: No module named 'scipy"), proc.stderr


def _mostly_uncertified_group(probs, fam, u_true, **kwargs):
    # Only the first level's draws certify.
    return _solved(u_true, [(0.0, 0.0, prob.delta == fast_config().delta_list[0]) for prob in probs])


def test_rate_study_mostly_uncertified_fails(monkeypatch, tmp_path, capsys):
    # One of four levels certified is under half: the study raises, and the CLI
    # exits 3 with one error line.
    force_workers(monkeypatch, 1)
    monkeypatch.setattr(harness, "minimize_many", _mostly_uncertified_group)
    with pytest.raises(RuntimeError, match="^rate study failed: only 1 of 4 solves certified$"):
        run_rate_study(fast_config())

    cfg_file = tmp_path / "fast.cfg"
    cfg_file.write_text("grid_n = 64\ndelta_list = 1e-1, 1e-2, 1e-3, 1e-4\nn_seeds = 1\nmax_iter = 60\n")
    assert main(["rate-study", "--config", str(cfg_file)]) == 3
    assert capsys.readouterr().err.strip().splitlines() == ["error: rate study failed: only 1 of 4 solves certified"]


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


@pytest.mark.parametrize(
    "setters, env, quota, n_tasks, expected",
    [
        ((print,), {}, None, 16, 4),  # scipy's bundled OpenBLAS capped in each worker
        ((print,), {}, None, 3, 3),  # at most one worker per task
        ((print,), {}, 2, 16, 2),  # cgroup quota below the affinity mask
        ((print,), {}, None, 1, 1),
        ((), {}, None, 16, 1),  # nothing holds the BLAS to one thread: serial
        ((), {"OPENBLAS_NUM_THREADS": "1"}, None, 16, 1),  # MKL or BLIS would still thread
        ((), {"OMP_NUM_THREADS": "1"}, None, 16, 4),
        ((), {"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, None, 16, 1),
        ((), {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}, 3, 16, 3),
    ],
)
def test_worker_count_needs_one_blas_thread(monkeypatch, setters, env, quota, n_tasks, expected):
    # ``setters`` holds the setter found, if any.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(harness, "_bundled_blas_setter", lambda: setters[0] if setters else None)
    monkeypatch.setattr(harness, "_quota_cpus", lambda: quota)
    for var in _THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert harness._worker_count(n_tasks) == expected


def test_worker_count_is_one_without_affinity(monkeypatch):
    # Off Linux there is no os.sched_getaffinity: the tasks run in the calling process.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness, "_bundled_blas_setter", lambda: print)
    monkeypatch.setattr(harness, "_quota_cpus", lambda: None)
    assert harness._worker_count(16) == 1


def test_no_blas_setter_without_the_symbol(monkeypatch, tmp_path):
    # A library that does not export OpenBLAS's thread setter, or a file that is no library, gives no
    # setter, so no pool on its account.
    (tmp_path / "not_a_library.so").write_bytes(b"not a library")
    for path in (None, str(tmp_path / "not_a_library.so")):
        monkeypatch.setattr(scale, "_flapack", lambda: SimpleNamespace(__file__=path))
        harness._bundled_blas_setter.cache_clear()
        assert harness._bundled_blas_setter() is None
    monkeypatch.undo()
    harness._bundled_blas_setter.cache_clear()


@pytest.mark.skipif(harness._bundled_blas_setter() is None, reason="scipy has no bundled OpenBLAS")
def test_blas_setter_caps_the_library_of_setulb_too():
    # The setter found through _flapack is the very function _lbfgsb's library resolves, so one cap
    # holds both dtbtrs and setulb.
    lbfgsb = scale._scipy_extension("optimize._lbfgsb")
    if lbfgsb is None:
        pytest.skip("scipy's _lbfgsb cannot be loaded alone")
    setter = harness._bundled_blas_setter()
    via_lbfgsb = ctypes.CDLL(lbfgsb.__file__).scipy_openblas_set_num_threads
    assert ctypes.cast(setter, ctypes.c_void_p).value == ctypes.cast(via_lbfgsb, ctypes.c_void_p).value


@pytest.mark.parametrize(
    "cpu_max, cfs, expected",
    [
        ("200000 100000\n", None, 2),
        ("150000 100000\n", None, 1),  # whole CPUs only
        ("50000 100000\n", None, 1),
        ("max 100000\n", None, None),
        (None, ("300000\n", "100000\n"), 3),
        (None, ("-1\n", "100000\n"), None),
        (None, None, None),  # no cgroup CPU controller visible
    ],
)
def test_quota_cpus_reads_cgroup_files(monkeypatch, tmp_path, cpu_max, cfs, expected):
    paths = {name: tmp_path / name for name in ("cpu.max", "cpu.cfs_quota_us", "cpu.cfs_period_us")}
    if cpu_max is not None:
        paths["cpu.max"].write_text(cpu_max)
    if cfs is not None:
        paths["cpu.cfs_quota_us"].write_text(cfs[0])
        paths["cpu.cfs_period_us"].write_text(cfs[1])
    monkeypatch.setattr(harness, "_CGROUP_CPU_MAX", paths["cpu.max"])
    monkeypatch.setattr(harness, "_CGROUP_CFS_QUOTA", paths["cpu.cfs_quota_us"])
    monkeypatch.setattr(harness, "_CGROUP_CFS_PERIOD", paths["cpu.cfs_period_us"])
    assert harness._quota_cpus() == expected


def _bundled_blas_threads() -> int:
    getter = ctypes.CDLL(scale._flapack().__file__).scipy_openblas_get_num_threads
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def _blas_threads_group(probs, fam, u_true, **kwargs):
    return _solved(u_true, [(float(_bundled_blas_threads()), float(os.getpid()), True) for _ in probs])


def _blas_threads_suite(cfg):
    return CheckResult("blas-threads", True, (str(_bundled_blas_threads()), str(os.getpid())), {})


@pytest.mark.skipif(harness._bundled_blas_setter() is None, reason="scipy has no bundled OpenBLAS")
def test_pool_workers_run_one_blas_thread(monkeypatch):
    # Each worker, of a study or of the suites, holds scipy's OpenBLAS to one thread; the caller's is untouched.
    before = _bundled_blas_threads()
    force_workers(monkeypatch, 2)
    monkeypatch.setattr(harness, "minimize_many", _blas_threads_group)
    report = run_rate_study(fast_config())
    assert [row.residual for row in report.rows] == [1.0] * 4
    assert os.getpid() not in {row.penalty for row in report.rows}

    for name in OPERATOR_SUITES:
        monkeypatch.setitem(SUITE_NAMES, name, _blas_threads_suite)
    results = run_suite(OPERATOR_SUITES, fast_config())
    assert [r.lines[0] for r in results] == ["1"] * 4
    assert str(os.getpid()) not in {r.lines[1] for r in results}
    assert _bundled_blas_threads() == before


# -- operator suites on the worker pool -------------------------------------------


@pytest.mark.parametrize("n", [65, 129])
def test_suite_pool_matches_serial(monkeypatch, n):
    force_workers(monkeypatch, 1)
    serial = run_suite(OPERATOR_SUITES, ExperimentConfig(grid_n=n))
    force_workers(monkeypatch, 2)
    pooled = run_suite(OPERATOR_SUITES, ExperimentConfig(grid_n=n))
    assert [r.name for r in pooled] == list(OPERATOR_SUITES)
    assert pooled == serial  # name, verdict, lines and artifacts


def _failing_suite(cfg):
    raise QuadratureError(f"quadrature failed in process {os.getpid()}")


def test_suite_worker_error_reaches_caller(monkeypatch):
    force_workers(monkeypatch, 2)
    monkeypatch.setitem(SUITE_NAMES, "aux-rates", _failing_suite)
    with pytest.raises(QuadratureError, match="quadrature failed in process") as info:
        run_suite(OPERATOR_SUITES, ExperimentConfig(grid_n=65))
    assert str(info.value) != f"quadrature failed in process {os.getpid()}"  # raised in a worker


def _no_kernel_build(n, q):
    raise AssertionError(f"kernel n={n} q={q} built again in process {os.getpid()}")


def test_suite_pool_hands_kernels_back(monkeypatch):
    # The first pooled pass builds every kernel in the workers; the caller keeps
    # them, read-only, and the next pass's workers inherit them and build none.
    force_workers(monkeypatch, 2)
    monkeypatch.setattr(scale, "_kernels", {})
    cfg = ExperimentConfig(grid_n=65)
    first = run_suite(OPERATOR_SUITES, cfg)
    assert scale._kernels
    assert not any(kernel.flags.writeable for kernel in scale._kernels.values())
    monkeypatch.setattr(scale, "_build_spectrum", _no_kernel_build)
    assert run_suite(OPERATOR_SUITES, cfg) == first


def test_run_suite_runs_rate_study_in_caller(monkeypatch):
    # The suites go to one pool and the study's solves to another, both started
    # by this process: a pool worker never starts a pool.
    force_workers(monkeypatch, 2)
    caller = os.getpid()
    pools = []
    pool_map = harness._pool_map

    def caller_pool_map(fn, tasks):
        if os.getpid() != caller:
            raise RuntimeError(f"pool started in worker {os.getpid()}")
        pools.append(list(tasks))
        return pool_map(fn, tasks)

    monkeypatch.setattr(harness, "_pool_map", caller_pool_map)
    results = run_suite(["decay-check", "rate-study"], fast_config())
    assert [r.name for r in results] == ["decay-check", "rate-study"]
    assert pools == [["decay-check"], [0, 1]]  # the study's two groups, each task a group's index


def test_rate_study_beta_column(study_hoelder_p1):
    for row in study_hoelder_p1.rows:
        assert row.beta == pytest.approx(row.alpha**0.5, rel=1e-14)


def test_default_study_slope_stability(study_hoelder_p1):
    # Excluding any single row moves the fitted slope by at most 0.05.
    pts = [(r.delta, r.error_sup) for r in study_hoelder_p1.rows if r.certified]
    full = fit_slope(pts)
    for k in range(len(pts)):
        loo = fit_slope(pts[:k] + pts[k + 1 :])
        assert abs(loo - full) <= 0.05


def test_hoelder_p05_slope_grid_independent(study_hoelder_p05, study_hoelder_p05_n128):
    assert abs(study_hoelder_p05.fitted_slope - study_hoelder_p05_n128.fitted_slope) <= 0.05


@pytest.mark.xfail(
    strict=True,
    reason="at p = 1 the truth already lies in the strong-norm space, so the "
    "certified errors sit below the theoretical envelope with solver-selection "
    "scatter and the fitted slope is not grid-stable; see README known limitations",
)
def test_hoelder_p1_slope_grid_independent(study_hoelder_p1, study_hoelder_p1_n128):
    assert abs(study_hoelder_p1.fitted_slope - study_hoelder_p1_n128.fitted_slope) <= 0.05


# -- suites and CLI -----------------------------------------------------------------


def test_run_suite_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(["nope"])


def test_run_suite_rejects_a_string(monkeypatch):
    # One name is a sequence of one name, not of its characters; rejected before any pool starts.
    monkeypatch.setattr(harness, "_pool_map", lambda fn, tasks: pytest.fail("pool started"))
    with pytest.raises(TypeError, match="^names must be a sequence of suite names, got the string 'decay-check'$"):
        run_suite("decay-check", fast_config())


def test_run_suite_subset():
    results = run_suite(["decay-check"], fast_config(grid_n=128))
    assert len(results) == 1
    assert results[0].name == "decay-check"
    assert results[0].passed


def test_cli_usage_error():
    assert main(["suite", "not-a-suite"]) == 2
    assert main(["rate-study", "--regime", "bogus"]) == 2


def test_readme_examples_parse():
    # The ``oversmooth ...`` lines of README's code blocks, less the ``a | b`` synopsis, are
    # commands the parser takes, and each suite they name is a suite.
    blocks = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("```")[1::2]
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("oversmooth ")]
    examples = [shlex.split(line)[1:] for line in lines if "|" not in line]
    assert examples
    for argv in examples:
        args = build_parser().parse_args(argv)
        assert {args.command, *getattr(args, "names", ())} - {"suite"} <= set(SUITE_NAMES), argv


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeError("rate study failed: only 3 of 8 solves certified"),
        QuadratureError("fractional power quadrature failed for q=0.5"),
    ],
)
def test_cli_runtime_failure_exit_code(monkeypatch, capsys, exc):
    def failing_suite(cfg):
        raise exc

    monkeypatch.setitem(SUITE_NAMES, "decay-check", failing_suite)
    assert main(["decay-check"]) == 3
    assert main(["suite", "decay-check"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {exc}"] * 2


#: numpy's message for the array ``fracpow-check --grid-n 100000000000`` asks for.
_NO_MEMORY = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"


@pytest.mark.parametrize(
    "message, line", [(_NO_MEMORY, f"error: {_NO_MEMORY}"), ("", "error: out of memory")], ids=["numpy", "bare"]
)
def test_cli_out_of_memory_is_a_run_failure(monkeypatch, capsys, message, line):
    # A grid too large for memory is a failed run (3), not a failed check (1); nothing is allocated here.
    def out_of_memory(names, cfg):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_suite", out_of_memory)
    assert main(["fracpow-check", "--grid-n", "100000000000"]) == 3
    assert capsys.readouterr().err.strip().splitlines() == [line]


def test_cli_decay_check(capsys, tmp_path):
    code = main(["decay-check", "--grid-n", "128", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[decay-check] PASS" in out
    assert (tmp_path / "decay_p0.5.csv").exists()


def test_cli_bad_out_fails_before_any_suite(monkeypatch, tmp_path, capsys):
    # An --out that cannot be made a directory exits 2 with one error line, before any suite runs.
    monkeypatch.setitem(SUITE_NAMES, "fracpow-check", lambda cfg: pytest.fail("suite started"))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["fracpow-check", "--grid-n", "64", "--out", str(taken)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(taken) in err
    # So does an artifact that cannot be written, after the suite's lines.
    monkeypatch.setitem(SUITE_NAMES, "fracpow-check", lambda cfg: CheckResult("fracpow-check", True, (), {"sub": ""}))
    (tmp_path / "sub").mkdir()
    assert main(["fracpow-check", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "[fracpow-check] PASS\n" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(tmp_path / "sub") in err


def test_cli_nonlinearity(capsys):
    code = main(["nonlinearity-check", "--grid-n", "128"])
    assert code == 0
    assert "[nonlinearity-check] PASS" in capsys.readouterr().out


def test_cli_rejects_negative_seed(monkeypatch, capsys):
    # Rejected with the config, before any worker forks or any draw is made.
    monkeypatch.setattr(harness, "_pool_map", lambda fn, tasks: pytest.fail("study started"))
    assert main(["rate-study", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.strip() == "error: seed must be non-negative"


def test_cli_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "base.cfg"
    cfg_file.write_text(
        "grid_n = 64\nseed = 1\nregime = none\np = 0.5\nr = 1.0\nn_seeds = 3\n"
    )
    argv = ["rate-study", "--config", str(cfg_file), "--grid-n", "128", "--seed", "9",
            "--regime", "low-order", "--p", "0.25", "--r", "2"]
    cfg = _config_from_args(build_parser().parse_args(argv))
    assert (cfg.grid_n, cfg.seed, cfg.regime) == (128, 9, "low_order")
    assert (cfg.p, cfg.r) == (0.25, 2.0)
    assert cfg.n_seeds == 3


def test_cli_flags_override_invalid_config_value(tmp_path, capsys):
    # The file alone is invalid (p = 1.5, grid_n = 32); the flags replace both before validation.
    cfg_file = tmp_path / "study.cfg"
    cfg_file.write_text("p = 1.5\ngrid_n = 32\ndelta_list = 1e-1, 1e-2, 1e-3\nn_seeds = 1\nmax_iter = 60\n")
    argv = ["rate-study", "--config", str(cfg_file), "--p", "0.5", "--grid-n", "64"]
    cfg = _config_from_args(build_parser().parse_args(argv))
    assert (cfg.p, cfg.grid_n, cfg.n_seeds, cfg.max_iter) == (0.5, 64, 1, 60)
    assert main(argv) in (0, 1)
    capsys.readouterr()
    # An invalid value left from the file names the file; invalid flags are reported without it.
    assert main(["rate-study", "--config", str(cfg_file), "--p", "0.5"]) == 2
    assert capsys.readouterr().err.strip() == f"error: {cfg_file}: grid_n must be at least 64"
    assert main(["rate-study", "--config", str(cfg_file), "--p", "0.5", "--grid-n", "32"]) == 2
    assert capsys.readouterr().err.strip() == "error: grid_n must be at least 64"


def test_cli_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "fast.cfg"
    cfg_file.write_text(
        "grid_n = 64\ndelta_list = 1e-1, 1e-2, 1e-3\nn_seeds = 1\nmax_iter = 60\n"
    )
    code = main(["rate-study", "--config", str(cfg_file), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code in (0, 1)
    # One verdict line, the CLI's own.
    verdicts = [line for line in out.splitlines() if line in ("[rate-study] PASS", "[rate-study] FAIL")]
    assert verdicts == [f"[rate-study] {'PASS' if code == 0 else 'FAIL'}"]
    assert (tmp_path / "rate_study.csv").exists()
    assert (tmp_path / "rate_study.json").exists()
    payload = json.loads((tmp_path / "rate_study.json").read_text())
    assert payload["config"]["grid_n"] == 64


# -- public names -------------------------------------------------------------------


_SUBMODULES = ("grids", "scale", "fitting", "lavrentiev", "exp_volterra", "tikhonov", "harness")


@pytest.mark.parametrize("module", ["oversmooth", *(f"oversmooth.{m}" for m in _SUBMODULES)])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_reexports_each_module_once():
    pkg = importlib.import_module("oversmooth")
    assert len(pkg.__all__) == len(set(pkg.__all__))
    for m in _SUBMODULES:
        mod = importlib.import_module(f"oversmooth.{m}")
        missing = [name for name in mod.__all__ if name not in pkg.__all__ or getattr(pkg, name) is not getattr(mod, name)]
        assert missing == [], m
