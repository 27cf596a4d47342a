"""Config parsing, the four subcommands, and exit-code behavior."""

import csv
import dataclasses
import inspect
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkme import cli, datagen, fedsim
from fedkme.cli import (
    ConfigError,
    ExperimentConfig,
    cmd_baseline,
    cmd_gen,
    cmd_run,
    cmd_weights,
    load_config,
    main,
    parse_config,
    serialize_config,
    validate_config,
)
from fedkme.qagg import SimplexWeights, theory_config, weights_matrix
from reference_job import run_without_reuse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

TINY = ExperimentConfig(
    grid=(0.0, 1.0),
    repetitions=2,
    test_size=50,
    agents=4,
    samples_per_agent=6,
    dim=3,
    d_rff=32,
    preset="ones",
    steps=200,
    ridge_penalty=0.1,
)


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_serialize_parse_round_trip():
    covariate = replace(TINY, experiment="covariate_shift", grid=(0.0,), group_sizes=(1, 1))
    for cfg in (ExperimentConfig(), TINY, covariate):
        assert parse_config(serialize_config(cfg)) == cfg


# every field away from its default, the list fields with several entries
ALL_FIELDS = ExperimentConfig(
    experiment="custom", grid=(0.1, 0.5), repetitions=3, test_size=7,
    train_path="data/train.csv", test_path="data/test.csv", groups=(0, 1, 1),
    agents=3, samples_per_agent=4, dim=2, noise_var=1.5, group_sizes=(1, 2),
    center_var1=0.02, center_var2=0.4, group_var1=1.25, group_var2=0.75, group2_center=-1.0,
    kernel_kind="poly2", bandwidth="0.5,1.5,2", d_rff=64, scope="features",
    optimizer="fedavg", fedavg_rounds=7, fedavg_local_steps=2, fedavg_lr=0.025,
    preset="manual", c_q=0.5, c_p=2.5, steps=300, step_scale=0.25,
    model_kind="linear_gd", ridge_penalty=0.125, model_lr=0.05, model_epochs=20,
    baselines=("oracle", "local"), seed=2**64 - 1, output_dir="runs/all",
)


def test_every_field_has_one_key_and_round_trips_in_field_order():
    config_fields = dataclasses.fields(ExperimentConfig)
    assert all(getattr(ALL_FIELDS, f.name) != f.default for f in config_fields)
    keys = [f.metadata["key"] for f in config_fields]
    assert all(isinstance(key, str) and key for key in keys)
    assert len(set(keys)) == len(keys)
    text = serialize_config(ALL_FIELDS)
    assert [line.split(" = ", 1)[0] for line in text.splitlines()] == keys
    assert parse_config(text) == ALL_FIELDS


@pytest.mark.parametrize("key, text", [("experiment.groups", "0,x,1"), ("experiment.grid", "0.5,half")])
def test_a_bad_list_token_names_its_key(key, text):
    with pytest.raises(ConfigError, match=f"bad value for {key}"):
        parse_config(f"{key} = {text}\n")


def test_a_field_type_without_config_syntax_is_rejected():
    for annotation in (list[int], tuple[int, int], tuple[bool, ...], dict):
        with pytest.raises(TypeError, match="no config syntax"):
            cli._syntax("field", annotation)


_DEFAULT_TEXT = (
    "experiment.kind = concept_shift", "experiment.grid = 0.0,0.25,0.5,0.75,1.0",
    "experiment.repetitions = 100", "experiment.test_size = 1000",
    "experiment.train_path = ", "experiment.test_path = ", "experiment.groups = ",
    "data.agents = 100", "data.samples_per_agent = 10", "data.dim = 20", "data.noise_var = 2.0",
    "data.group_sizes = 30,30", "data.center_var1 = 0.01", "data.center_var2 = 0.3",
    "data.group_var1 = 1.0", "data.group_var2 = 1.0", "data.group2_center = 2.0",
    "kernel.kind = gaussian", "kernel.bandwidth = concept",
    "protocol.random_features = 500", "protocol.scope = full", "protocol.optimizer = closed_form",
    "protocol.fedavg_rounds = 200", "protocol.fedavg_local_steps = 5", "protocol.fedavg_lr = 0.05",
    "qagg.preset = default", "qagg.c_q = 1.0", "qagg.c_p = 1.0", "qagg.steps = 1000", "qagg.step_scale = 0.5",
    "model.kind = ridge", "model.ridge_penalty = 0.0", "model.learning_rate = 0.1", "model.epochs = 100",
    "baselines = local,grand_mean,oracle", "seed = 0", "output_dir = out",
)
_ALL_FIELDS_TEXT = (
    "experiment.kind = custom", "experiment.grid = 0.1,0.5",
    "experiment.repetitions = 3", "experiment.test_size = 7",
    "experiment.train_path = data/train.csv", "experiment.test_path = data/test.csv", "experiment.groups = 0,1,1",
    "data.agents = 3", "data.samples_per_agent = 4", "data.dim = 2", "data.noise_var = 1.5",
    "data.group_sizes = 1,2", "data.center_var1 = 0.02", "data.center_var2 = 0.4",
    "data.group_var1 = 1.25", "data.group_var2 = 0.75", "data.group2_center = -1.0",
    "kernel.kind = poly2", "kernel.bandwidth = 0.5,1.5,2",
    "protocol.random_features = 64", "protocol.scope = features", "protocol.optimizer = fedavg",
    "protocol.fedavg_rounds = 7", "protocol.fedavg_local_steps = 2", "protocol.fedavg_lr = 0.025",
    "qagg.preset = manual", "qagg.c_q = 0.5", "qagg.c_p = 2.5", "qagg.steps = 300", "qagg.step_scale = 0.25",
    "model.kind = linear_gd", "model.ridge_penalty = 0.125", "model.learning_rate = 0.05", "model.epochs = 20",
    "baselines = oracle,local", "seed = 18446744073709551615", "output_dir = runs/all",
)


@pytest.mark.parametrize("cfg, lines", [(ExperimentConfig(), _DEFAULT_TEXT), (ALL_FIELDS, _ALL_FIELDS_TEXT)])
def test_serialize_config_bytes_are_fixed(cfg, lines):
    assert serialize_config(cfg) == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize(
    "overrides, key",
    [
        (dict(ridge_penalty=math.inf), "model.ridge_penalty"),
        (dict(preset="manual", c_q=math.inf), "qagg.c_q"),
        (dict(bandwidth="inf,1,1,1"), "kernel.bandwidth"),
        (dict(noise_var=math.inf), "data.noise_var"),
        (dict(experiment="covariate_shift", grid=(0.0,), group_sizes=(1, 1), group2_center=math.nan),
         "data.group2_center"),
        (dict(grid=(0.5, math.nan)), "experiment.grid"),
        (dict(kernel_kind="poly2", bandwidth="inf,1,1,1"), "kernel.bandwidth"),  # checked though poly2 reads none
    ],
)
def test_a_non_finite_float_is_a_config_error_naming_its_key(tmp_path, capsys, overrides, key):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(serialize_config(replace(TINY, **overrides)))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_accepts_comments_and_blank_lines():
    cfg = parse_config("# full line comment\n\nseed = 7  # trailing\n")
    assert cfg.seed == 7


def test_parse_unknown_key():
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config("experiment.flavor = vanilla\n")


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="line 2.*duplicate"):
        parse_config("seed = 1\nseed = 2\n")


def test_parse_bad_value():
    with pytest.raises(ConfigError, match="bad value for seed"):
        parse_config("seed = seven\n")


def test_parse_bad_line():
    with pytest.raises(ConfigError, match="line 1.*key = value"):
        parse_config("just some words\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "nope.cfg")


@pytest.mark.parametrize(
    "bad",
    [
        dict(experiment="interventional"),
        dict(grid=()),
        dict(grid=(0.0, 2.0)),
        dict(repetitions=0),
        dict(agents=0),
        dict(samples_per_agent=0),
        dict(dim=0),
        dict(noise_var=0.0),
        dict(d_rff=0),
        dict(kernel_kind="matern"),
        dict(scope="halves"),
        dict(optimizer="adam"),
        dict(preset="golden"),
        dict(c_q=0.0, preset="manual"),
        dict(model_kind="forest"),
        dict(ridge_penalty=-1.0),
        dict(baselines=("median",)),
        dict(experiment="custom", train_path=""),
        dict(test_size=0),
        dict(seed=-1),
        dict(kernel_kind="poly2", bandwidth="junk"),
        dict(kernel_kind="poly2", bandwidth="1,0,1,1"),
        dict(bandwidth="1,1"),  # (x, y) pairs of data.dim = 3 have 4 coordinates
        dict(bandwidth="1,1,1,1", scope="features"),  # x alone has 3
        dict(experiment="covariate_shift", grid=(0.0,), group_sizes=(1, 1), bandwidth="1,1,1"),
        dict(c_q=-1.0, preset="default"),
        dict(c_p=0.0, preset="default"),
        dict(c_q=-1.0, preset="ones"),
        dict(c_p=0.0, preset="ones"),
        dict(c_q=-1.0, preset="theory"),
        dict(c_p=0.0, preset="theory"),
    ],
)
def test_validate_config_rejects(bad):
    with pytest.raises(ConfigError):
        validate_config(replace(TINY, **bad))


def test_default_config_is_the_full_scale_setup():
    cfg = ExperimentConfig()
    validate_config(cfg)
    assert cfg.experiment == "concept_shift"
    assert cfg.agents == 100 and cfg.samples_per_agent == 10
    assert cfg.dim == 20 and cfg.noise_var == 2.0
    assert cfg.d_rff == 500 and cfg.repetitions == 100
    assert cfg.test_size == 1000
    assert cfg.group_sizes == (30, 30)
    assert cfg.center_var1 == 0.01 and cfg.center_var2 == 0.3


def test_cmd_gen_default_row_count(tmp_path):
    path = cmd_gen(ExperimentConfig(output_dir=str(tmp_path)), tmp_path)
    rows = _read(path)
    assert rows[0] == ["agent_id"] + [f"x_{j}" for j in range(1, 21)] + ["y"]
    assert len(rows) == 1 + 100 * 10


def test_cmd_gen_minimal(tmp_path):
    cfg = replace(TINY, agents=1, samples_per_agent=1)
    path = cmd_gen(cfg, tmp_path)
    rows = _read(path)
    assert len(rows) == 2


def test_cmd_gen_rejects_custom(tmp_path):
    cfg = replace(TINY, experiment="custom", train_path="x.csv", test_path="y.csv")
    with pytest.raises(ConfigError):
        cmd_gen(cfg, tmp_path)


def test_cmd_gen_unwritable_path(tmp_path):
    missing = tmp_path / "not" / "a" / "dir"
    with pytest.raises(OSError, match="not"):
        cmd_gen(TINY, missing)


def test_cmd_run_row_accounting(tmp_path):
    paths = cmd_run(TINY, tmp_path)
    rows = _read(paths["results"])
    assert rows[0] == ["method", "param", "repetition", "target_agent", "mse_or_accuracy"]
    # 4 methods x 2 grid points x 2 repetitions x 4 targets
    assert len(rows) == 1 + 4 * 2 * 2 * 4
    methods = {r[0] for r in rows[1:]}
    assert methods == {"Qagg", "Local", "GrandMean", "Oracle"}
    body = rows[1:]
    keys = [(r[0], float(r[1]), int(r[2]), int(r[3])) for r in body]
    assert keys == sorted(keys)
    wrows = _read(paths["weights"])
    assert wrows[0] == ["target_id", "w_1", "w_2", "w_3", "w_4"]
    assert len(wrows) == 5
    for r in wrows[1:]:
        assert np.isclose(sum(float(v) for v in r[1:]), 1.0)
    crows = _read(paths["comm"])
    assert crows[0] == ["round_label", "sender", "receiver", "payload_kind", "scalar_count"]
    assert sum(int(r[4]) for r in crows[1:] if r[3] == "kme") == 4 * 32


def test_cmd_run_is_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    a = cmd_run(TINY, a_dir)
    b = cmd_run(TINY, b_dir, threads=4)
    for key in ("results", "weights", "comm"):
        assert a[key].read_bytes() == b[key].read_bytes()


def test_cmd_run_seed_changes_results(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    a = cmd_run(replace(TINY, repetitions=1, grid=(0.5,)), a_dir)
    b = cmd_run(replace(TINY, repetitions=1, grid=(0.5,), seed=99), b_dir)
    assert a["results"].read_bytes() != b["results"].read_bytes()


def _count_draws(monkeypatch):
    """A counter of (job data seed, agent) over every held-out set drawn from datagen's test streams."""
    drawn = Counter()
    for name in ("_concept_sample", "_covariate_sample"):
        original = getattr(datagen, name)

        def counted(*args, _original=original, **kwargs):
            bound = inspect.signature(_original).bind(*args, **kwargs).arguments
            if bound["split"] == datagen.TEST:
                drawn[bound["spec"].seed, bound["k"]] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(datagen, name, counted)
    return drawn


@pytest.mark.parametrize(
    "cfg",
    [TINY, replace(TINY, experiment="covariate_shift", grid=(0.0,), group_sizes=(1, 1))],
    ids=["concept_shift", "covariate_shift"],
)
def test_no_synthetic_command_draws_a_held_out_set(tmp_path, monkeypatch, cfg):
    drawn = _count_draws(monkeypatch)
    spec = cli._synthetic_spec(cfg, 0, 0)
    if cfg.experiment == "covariate_shift":
        datagen.covariate_shift_test_sets(spec, 5, [1])
    else:
        datagen.concept_shift_test_sets(spec, datagen.gen_concept_shift(spec)[1], 5, [1])
    assert drawn == Counter({(spec.seed, 1): 1})  # the counter sees a draw
    drawn.clear()
    cmd_gen(cfg, tmp_path)
    cmd_weights(cfg, tmp_path)
    for command in (cmd_run, cmd_baseline):
        out = tmp_path / command.__name__
        out.mkdir()
        command(cfg, out)
    assert not drawn  # every synthetic target is scored by its exact risk


def test_a_jobs_memory_does_not_grow_with_the_test_size():
    cfg = replace(TINY, agents=40, test_size=100_000, dim=20, grid=(0.5,), repetitions=1)
    one_set_bytes = cfg.test_size * (cfg.dim + 1) * 8  # 16 MiB of (x, y) rows
    tracemalloc.start()
    try:
        result = cli._run_job(cfg, 0, 0, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.rows) == 4 * cfg.agents
    assert peak < one_set_bytes / 4, f"traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "overrides, key",
    [(dict(model_kind="linear_gd", model_lr=1e6), "model.learning_rate"),
     (dict(optimizer="fedavg", fedavg_lr=1e6), "protocol.fedavg_lr")],
    ids=["linear_gd", "fedavg"],
)
def test_a_fit_that_diverges_fails_its_repetition_naming_the_step_size(tmp_path, capsys, overrides, key):
    cfg = ExperimentConfig(
        experiment="covariate_shift", grid=(0.0,), repetitions=1, test_size=20, agents=6,
        samples_per_agent=10, dim=3, group_sizes=(2, 2), **overrides,
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(serialize_config(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would be a second stderr line
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert _read(tmp_path / "out" / "results.csv")[1:] == [["status", "-1", "0", "-1", "error"]]
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("repetition 0 of grid point 0 failed: ValueError: ")
    assert f"non-finite model; lower {key} (now 1000000.0)" in line


def test_cmd_weights_single_agent(tmp_path):
    cfg = replace(TINY, agents=1)
    path = cmd_weights(cfg, tmp_path)
    rows = _read(path)
    assert rows[1] == ["0", "1"]


def test_weights_cells_are_each_values_own_format(tmp_path):
    # repeated values share one formatted cell; 0.0 and -0.0 keep their own
    rows = [[1.0, 0.0, -0.0], [0.1, 0.7, 0.2], [-0.0, 0.3, 0.7]]
    cli._write_weights(tmp_path / "weights.csv", [SimplexWeights(np.array(w)) for w in rows])
    assert _read(tmp_path / "weights.csv")[1:] == [[str(t)] + [f"{v:.17g}" for v in w] for t, w in enumerate(rows)]
    assert _read(tmp_path / "weights.csv")[1][1:] == ["1", "0", "-0"]


def test_cmd_weights_borrows_under_zero_shift(tmp_path):
    cfg = replace(TINY, grid=(0.0,), agents=6, samples_per_agent=8)
    path = cmd_weights(cfg, tmp_path)
    rows = _read(path)
    matrix = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    assert matrix.shape == (6, 6)
    # agents share beta up to sign, so every target borrows from someone
    assert float(np.diag(matrix).max()) < 1.0


def test_cmd_baseline_has_no_qagg_rows(tmp_path):
    path = cmd_baseline(TINY, tmp_path)
    rows = _read(path)
    methods = {r[0] for r in rows[1:]}
    assert methods == {"Local", "GrandMean", "Oracle"}
    assert len(rows) == 1 + 3 * 2 * 2 * 4


def test_covariate_param_column_is_the_group(tmp_path):
    cfg = ExperimentConfig(
        experiment="covariate_shift",
        repetitions=1,
        test_size=30,
        agents=6,
        samples_per_agent=6,
        dim=3,
        group_sizes=(2, 2),
        d_rff=32,
        preset="ones",
        ridge_penalty=0.1,
        scope="features",
        bandwidth="isotropic",
    )
    paths = cmd_run(cfg, tmp_path)
    rows = _read(paths["results"])
    by_target = {int(r[3]): float(r[1]) for r in rows[1:] if r[0] == "Qagg"}
    assert by_target == {0: 0.0, 1: 0.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 2.0}


def test_failed_covariate_repetition_belongs_to_no_group(tmp_path):
    # one sample per agent fails every repetition; the status row spans all
    # groups, so its param is -1 rather than group 0
    cfg = ExperimentConfig(
        experiment="covariate_shift",
        repetitions=2,
        test_size=30,
        agents=6,
        samples_per_agent=1,
        dim=3,
        group_sizes=(2, 2),
        d_rff=32,
        preset="ones",
        ridge_penalty=0.1,
        scope="features",
        bandwidth="isotropic",
    )
    paths = cmd_run(cfg, tmp_path)
    assert _read(paths["results"])[1:] == [
        ["status", "-1", "0", "-1", "error"],
        ["status", "-1", "1", "-1", "error"],
    ]


def test_failed_repetition_writes_status_row(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text("agent_id,x_1,y\n0,1.0,2.0\n0,1.5,2.5\n1,0.5,1.0\n1,0.25,0.5\n")
    test.write_text("agent_id,x_1,y\n0,1.0,2.0\n")  # one agent only: mismatch
    cfg = replace(
        TINY,
        experiment="custom",
        train_path=str(train),
        test_path=str(test),
        repetitions=1,
    )
    paths = cmd_run(cfg, tmp_path)
    rows = _read(paths["results"])
    assert rows[1][0] == "status" and rows[1][4] == "error"
    assert len(rows) == 2


def test_failed_repetitions_say_why_on_stderr(tmp_path, capsys):
    # one sample per agent: no agent can act as a target, so every repetition fails
    cfg = replace(TINY, samples_per_agent=1)
    paths = cmd_run(cfg, tmp_path, threads=2)
    rows = _read(paths["results"])
    assert rows[1:] == [
        ["status", "0", "0", "-1", "error"],
        ["status", "0", "1", "-1", "error"],
        ["status", "1", "0", "-1", "error"],
        ["status", "1", "1", "-1", "error"],
    ]
    assert _read(paths["weights"]) == [["target_id"]]
    reason = "ValueError: agent 0 needs at least two samples to act as a target"
    assert capsys.readouterr().err.splitlines() == [
        f"repetition {rep} of grid point {gi} failed: {reason}" for gi in (0, 1) for rep in (0, 1)
    ]


def test_custom_experiment_end_to_end(tmp_path):
    g = np.random.default_rng(0)
    lines = ["agent_id,x_1,x_2,y"]
    for agent in range(3):
        for _ in range(5):
            x = g.normal(size=2)
            lines.append(f"{agent},{x[0]},{x[1]},{x.sum()}")
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "test.csv").write_text("\n".join(lines) + "\n")
    cfg = replace(
        TINY,
        experiment="custom",
        train_path=str(tmp_path / "train.csv"),
        test_path=str(tmp_path / "test.csv"),
        repetitions=1,
        groups=(0, 0, 1),
    )
    paths = cmd_run(cfg, tmp_path)
    rows = _read(paths["results"])
    assert len(rows) == 1 + 4 * 3
    assert {r[0] for r in rows[1:]} == {"Qagg", "Local", "GrandMean", "Oracle"}


def test_main_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(serialize_config(replace(TINY, repetitions=1, grid=(0.5,))))
    assert main(["weights", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path / "weights.csv") in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("no such key = 1\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err

    assert main(["run", "--config", str(cfg_path), "--threads", "0"]) == 1
    assert "config error" in capsys.readouterr().err


def test_main_runtime_error_exit_code(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(serialize_config(replace(TINY, repetitions=1, grid=(0.5,))))
    import fedkme.cli as cli

    def boom(cfg, out_dir, threads=1):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "cmd_run", boom)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "runtime error: disk full" in capsys.readouterr().err


def test_main_seed_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(serialize_config(replace(TINY, repetitions=1, grid=(0.5,))))
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(a_dir)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(b_dir), "--seed", "123"]) == 0
    assert (a_dir / "results.csv").read_bytes() != (b_dir / "results.csv").read_bytes()


def test_cmd_weights_fits_no_model(tmp_path, monkeypatch):
    import fedkme.cli as cli

    for cfg in (TINY, replace(TINY, optimizer="fedavg", model_kind="linear_gd", fedavg_rounds=3)):
        run_dir, weights_dir = tmp_path / f"run-{cfg.optimizer}", tmp_path / f"weights-{cfg.optimizer}"
        run_dir.mkdir()
        weights_dir.mkdir()
        expected = cmd_run(cfg, run_dir)["weights"].read_bytes()
        with monkeypatch.context() as m:
            for owner, name in ((cli, "fit_model"), (cli, "evaluate"), (cli, "moment_risks"),
                                (fedsim, "fit_weighted"), (fedsim, "fedavg")):
                m.setattr(owner, name, lambda *args, _name=name, **kwargs: pytest.fail(f"cmd_weights called {_name}"))
            assert cmd_weights(cfg, weights_dir).read_bytes() == expected


def _write_custom(tmp_path, sizes, scale=1.0, seed=0, label_scale=None):
    g = np.random.default_rng(seed)
    lines = ["agent_id,x_1,x_2,y"]
    for agent, n in enumerate(sizes):
        for _ in range(n):
            x = scale * g.normal(size=2)
            y = x.sum() + scale * g.normal() if label_scale is None else label_scale * g.normal()
            lines.append(f"{agent},{x[0]:.17g},{x[1]:.17g},{y:.17g}")
    for name in ("train.csv", "test.csv"):
        (tmp_path / name).write_text("\n".join(lines) + "\n")


def _custom_config(tmp_path, **overrides):
    cfg = replace(
        TINY, experiment="custom", repetitions=1, grid=(0.0,),
        train_path=str(tmp_path / "train.csv"), test_path=str(tmp_path / "test.csv"), **overrides,
    )
    path = tmp_path / "exp.cfg"
    path.write_text(serialize_config(cfg))
    return path


def test_a_wrong_length_bandwidth_fails_a_synthetic_run_but_each_custom_repetition(tmp_path, capsys):
    # a synthetic run's dimension is data.dim, so the config is refused up front;
    # a custom run's comes from its train file, so each repetition fails instead
    cfg_path = tmp_path / "synthetic.cfg"
    cfg_path.write_text(serialize_config(replace(TINY, bandwidth="1,1")))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "synthetic")]) == 1
    message = "kernel.bandwidth has 2 entries but the embedded points have 4"
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "synthetic").exists()
    _write_custom(tmp_path, [5, 6, 7])
    cfg_path = _custom_config(tmp_path, bandwidth="1,1,1,1")  # the file's (x, y) pairs have 3 coordinates
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "custom")]) == 0
    assert _read(tmp_path / "custom" / "results.csv")[1:] == [["status", "-1", "0", "-1", "error"]]
    assert "ConfigError: kernel.bandwidth has 4 entries but the embedded points have 3" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", ["gaussian", "poly2"])
def test_run_with_a_single_sample_agent_fails_with_a_clear_message(tmp_path, capsys, kernel):
    _write_custom(tmp_path, [6, 1, 6])
    cfg_path = _custom_config(tmp_path, kernel_kind=kernel, bandwidth="isotropic")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert _read(tmp_path / "out" / "results.csv")[1:] == [["status", "-1", "0", "-1", "error"]]
    assert "agent 1 needs at least two samples to act as a target" in capsys.readouterr().err


@pytest.mark.parametrize("model_kind", ["ridge", "linear_gd"])
@pytest.mark.parametrize("label_scale", [None, 1.0], ids=["x_and_y_at_1e160", "x_at_1e160"])
def test_a_fit_on_moments_that_overflow_fails_naming_the_agent(tmp_path, model_kind, label_scale):
    # in a subprocess with a timeout: LAPACK may never return on such moments
    _write_custom(tmp_path, [5, 5], scale=1e160, label_scale=label_scale)
    cfg_path = _custom_config(tmp_path, model_kind=model_kind, bandwidth="isotropic")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "fedkme.cli", "run", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert _read(tmp_path / "out" / "results.csv")[1:] == [["status", "-1", "0", "-1", "error"]]
    (line,) = proc.stderr.splitlines()  # no LAPACK message, no overflow warning
    assert line == (
        "repetition 0 of grid point 0 failed: ValueError: agent 0's second moments overflow "
        "to a non-finite value; scale its features and labels down"
    )
    assert "DLASCL" not in proc.stdout + proc.stderr


def test_run_on_poly2_data_at_1e6(tmp_path):
    _write_custom(tmp_path, [8, 10, 12], scale=1e6, seed=1)
    cfg_path = _custom_config(tmp_path, kernel_kind="poly2", scope="features")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    weights = np.array([[float(v) for v in r[1:]] for r in _read(tmp_path / "out" / "weights.csv")[1:]])
    assert weights.shape == (3, 3)
    assert np.all(weights >= 0.0)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
    results = _read(tmp_path / "out" / "results.csv")[1:]
    assert len(results) == 4 * 3
    assert all(np.isfinite(float(r[4])) for r in results)


def test_custom_run_rejects_test_agents_in_another_order(tmp_path, capsys):
    _write_custom(tmp_path, [5, 6, 7])
    lines = (tmp_path / "test.csv").read_text().splitlines()
    header, body = lines[0], lines[1:]
    swapped = [r for r in body if r.startswith("1,")] + [r for r in body if not r.startswith("1,")]
    (tmp_path / "test.csv").write_text("\n".join([header, *swapped]) + "\n")
    cfg_path = _custom_config(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert _read(tmp_path / "out" / "results.csv")[1:] == [["status", "-1", "0", "-1", "error"]]
    err = capsys.readouterr().err
    assert "test file lists agents ['1', '0', '2'] but train file lists ['0', '1', '2']" in err
    assert "same agent ids in the same order" in err


def test_custom_run_rejects_a_test_file_with_other_features(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_protocol_all", lambda *a: pytest.fail("weights learned before the check"))
    _write_custom(tmp_path, [5, 6, 7])
    lines = (tmp_path / "test.csv").read_text().splitlines()
    dropped = [",".join(cell for j, cell in enumerate(r.split(",")) if j != 2) for r in lines]  # x_2
    (tmp_path / "test.csv").write_text("\n".join(dropped) + "\n")
    cfg_path = _custom_config(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert _read(tmp_path / "out" / "results.csv")[1:] == [["status", "-1", "0", "-1", "error"]]
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        f"repetition 0 of grid point 0 failed: ValueError: test file {tmp_path / 'test.csv'} has 1 feature "
        f"columns but train file {tmp_path / 'train.csv'} has 2; both must have the same feature columns"
    )


@pytest.mark.parametrize(
    "experiment",
    [dict(experiment="concept_shift"), dict(experiment="covariate_shift", group_sizes=(2, 2))],
    ids=["concept_shift", "covariate_shift"],
)
def test_logistic_model_on_synthetic_targets_is_a_config_error(tmp_path, capsys, experiment):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(serialize_config(replace(TINY, model_kind="logistic_gd", **experiment)))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "logistic_gd needs class labels" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_logistic_model_rejects_labels_that_are_not_classes(tmp_path, capsys):
    # y.astype(int) would send -1 to the last class column, so both labels would train as class 1
    _write_custom(tmp_path, [5, 6, 7])
    for name in ("train.csv", "test.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        rows = [r.rsplit(",", 1)[0] + f",{(-1) ** i}" for i, r in enumerate(lines[1:])]
        (tmp_path / name).write_text("\n".join([lines[0], *rows]) + "\n")
    cfg_path = _custom_config(tmp_path, model_kind="logistic_gd")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert _read(tmp_path / "out" / "results.csv")[1:] == [["status", "-1", "0", "-1", "error"]]
    assert "logistic_gd needs labels 0, 1, 2, ...; agent 0 has label -1" in capsys.readouterr().err


@pytest.mark.parametrize("label", [-1.0, 2.0, 0.5])
def test_logistic_model_rejects_test_labels_that_are_not_classes(tmp_path, capsys, monkeypatch, label):
    # training labels 0 and 1 make two classes; accuracy compares y.astype(int)
    # with the predicted class, so these test labels would score silently wrong
    monkeypatch.setattr(cli, "run_protocol_all", lambda *a: pytest.fail("weights learned before the test labels were checked"))
    _write_custom(tmp_path, [5, 6, 7])
    for name in ("train.csv", "test.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        rows = [r.rsplit(",", 1)[0] + f",{i % 2}" for i, r in enumerate(lines[1:])]
        if name == "test.csv":
            rows[7] = rows[7].rsplit(",", 1)[0] + f",{label:g}"  # a row of agent 1
        (tmp_path / name).write_text("\n".join([lines[0], *rows]) + "\n")
    cfg_path = _custom_config(tmp_path, model_kind="logistic_gd")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert _read(tmp_path / "out" / "results.csv")[1:] == [["status", "-1", "0", "-1", "error"]]
    err = capsys.readouterr().err
    assert f"ConfigError: model.kind = logistic_gd scores test labels as classes 0 to 1; " \
        f"agent 1 of {tmp_path / 'test.csv'} has label {label:g}" in err


def test_theory_preset_takes_n_from_the_loaded_data(tmp_path):
    # the config says 6 samples per agent; the files hold 40, and 40 is what counts
    _write_custom(tmp_path, [40, 40, 40], seed=3)
    cfg = replace(TINY, experiment="custom", repetitions=1, grid=(0.0,), preset="theory",
                  train_path=str(tmp_path / "train.csv"), test_path=str(tmp_path / "test.csv"))
    assert cfg.samples_per_agent != 40
    theory = theory_config(3, 40, t=cfg.steps, c=cfg.step_scale)
    assert cli._learn_job(cfg, 0, 0)[1].qagg == theory

    manual = replace(cfg, preset="manual", c_q=theory.c_q, c_p=theory.c_p)
    (tmp_path / "theory").mkdir()
    (tmp_path / "manual").mkdir()
    assert cmd_weights(cfg, tmp_path / "theory").read_bytes() == cmd_weights(manual, tmp_path / "manual").read_bytes()


def test_theory_preset_needs_one_sample_count(tmp_path, capsys):
    _write_custom(tmp_path, [6, 8, 6])
    cfg_path = _custom_config(tmp_path, preset="theory")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert _read(tmp_path / "out" / "results.csv")[1:] == [["status", "-1", "0", "-1", "error"]]
    assert "the theory preset needs one sample count for every agent, got [6, 8]" in capsys.readouterr().err


def test_baseline_resolves_no_weight_program(tmp_path, capsys):
    # the theory preset cannot be resolved on unequal sample counts, and only the weight step needs it
    _write_custom(tmp_path, [6, 8, 7])
    cfg_path = _custom_config(tmp_path, preset="theory")
    assert main(["baseline", "--config", str(cfg_path), "--out", str(tmp_path / "baseline")]) == 0
    assert capsys.readouterr().err == ""
    rows = _read(tmp_path / "baseline" / "results.csv")[1:]
    assert sorted({r[0] for r in rows}) == ["GrandMean", "Local", "Oracle"]
    assert len(rows) == 3 * 3 and all(math.isfinite(float(r[4])) for r in rows)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    assert _read(tmp_path / "run" / "results.csv")[1:] == [["status", "-1", "0", "-1", "error"]]
    assert "the theory preset needs one sample count for every agent, got [6, 7, 8]" in capsys.readouterr().err


def _assert_reuse_changes_no_byte(tmp_path, monkeypatch, cfg, paths):
    ref = run_without_reuse(monkeypatch, cfg, tmp_path / "no-reuse")
    for key in ("results", "weights", "comm"):
        assert paths[key].read_bytes() == ref[key].read_bytes(), key


# entry points that take a batch of rows, by the position of the batch among their arguments
_ROW_ENTRY_POINTS = {"fit_weighted": 1, "fedavg": 1, "moment_risks": 0}


def _counted_run(tmp_path, monkeypatch, cfg, targets):
    """cmd_run with a counter on each (module, name) in ``targets``.

    A fit entry point takes a batch of weight rows, so it counts the rows it
    fits, and the scoring entry point counts the (model, target) pairs it
    scores; anything else counts its calls.
    """
    calls = Counter()
    out = tmp_path / "reuse"
    out.mkdir()
    with monkeypatch.context() as m:
        for owner, name in targets:
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += len(args[_ROW_ENTRY_POINTS[_name]]) if _name in _ROW_ENTRY_POINTS else 1
                return _original(*args, **kwargs)

            m.setattr(owner, name, counted)
        paths = cmd_run(cfg, out)
    return calls, paths


def test_run_fits_each_distinct_weight_row_once(tmp_path, monkeypatch):
    cfg = replace(TINY, preset="default", agents=8, samples_per_agent=4, grid=(0.5,),
                  repetitions=1, d_rff=64, seed=1)
    data, _, wrows, _ = cli._learn_job(cfg, 0, 0)
    B, n_groups = len(wrows), len(set(data.groups))
    assert np.array_equal(weights_matrix(wrows), np.eye(B))  # every Qagg row is e_t
    assert n_groups == 2
    calls, paths = _counted_run(tmp_path, monkeypatch, cfg, [
        (cli, "fit_model"), (fedsim, "fit_weighted"), (cli, "moment_risks"), (cli, "baseline_weights"),
    ])
    # the closed-form Qagg and baseline rows are one batch through the one fit dispatch
    assert calls["fit_model"] == 1
    # one Local model per target (shared with Qagg), one GrandMean, one Oracle per group
    assert calls["fit_weighted"] == B + 1 + n_groups
    # every target's baseline rows come from one call per policy
    assert calls["baseline_weights"] == len(cfg.baselines)
    # a target's Qagg and Local rows share a model and its score
    assert calls["moment_risks"] == 3 * B
    _assert_reuse_changes_no_byte(tmp_path, monkeypatch, cfg, paths)


def test_fedavg_targets_sharing_a_row_are_each_charged(tmp_path, monkeypatch):
    cfg = replace(TINY, optimizer="fedavg", model_kind="linear_gd", fedavg_rounds=3,
                  grid=(0.5,), repetitions=1)
    learn = cli.run_protocol_all

    def forced_rows(pcfg, datasets):
        # targets 0 and 1 share a row, and target 2's row is its Local row
        rows, ledger = learn(pcfg, datasets)
        assert rows[0].w.tobytes() != rows[1].w.tobytes()
        return [rows[0], rows[0], SimplexWeights(np.eye(len(rows))[2]), *rows[3:]], ledger

    monkeypatch.setattr(cli, "run_protocol_all", forced_rows)
    data, _, wrows, _ = cli._learn_job(cfg, 0, 0)
    B = len(wrows)
    baseline_scores = {
        (w.w.tobytes(), t)
        for policy in cfg.baselines
        for t, w in enumerate(fedsim.baseline_weights(policy, data.datasets, data.groups))
    }
    assert len(baseline_scores) < 3 * B  # a one-agent group's Oracle row is its Local row
    calls, paths = _counted_run(tmp_path, monkeypatch, cfg, [
        (cli, "fit_model"), (fedsim, "fit_weighted"), (fedsim, "fedavg"), (cli, "moment_risks"),
    ])
    assert calls["fit_model"] == 2  # one call per fit path
    assert calls["fedavg"] == B - 1
    # a FedAvg model is never reused for a closed-form baseline row, not even Local row 2
    assert calls["fit_weighted"] == len({row for row, _ in baseline_scores})
    # targets 0 and 1 share a FedAvg model but not a score
    assert calls["moment_risks"] == B + len(baseline_scores)
    trips = [r for r in _read(paths["comm"])[1:] if r[3] == "model_round_trip"]
    support = [int(np.count_nonzero(w.w)) for w in wrows]
    assert len(trips) == cfg.fedavg_rounds * sum(support)  # target 1 is charged for its rounds too
    _assert_reuse_changes_no_byte(tmp_path, monkeypatch, cfg, paths)


def test_fedavg_run_bytes_do_not_depend_on_threads(tmp_path):
    cfg = ExperimentConfig(
        experiment="covariate_shift", repetitions=3, test_size=30, agents=6, samples_per_agent=8,
        dim=3, group_sizes=(2, 2), kernel_kind="poly2", scope="features", optimizer="fedavg",
        fedavg_rounds=4, fedavg_local_steps=2, fedavg_lr=0.01, model_kind="linear_gd",
        model_lr=0.01, model_epochs=10, seed=5,
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(serialize_config(cfg))
    argv = ["run", "--config", str(cfg_path)]
    assert main(argv + ["--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
    assert main(argv + ["--out", str(tmp_path / "t3"), "--threads", "3"]) == 0
    for name in ("results.csv", "weights.csv", "comm.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t3" / name).read_bytes(), name
    assert any(r[3] == "model_round_trip" for r in _read(tmp_path / "t1" / "comm.csv")[1:])


@st.composite
def _small_configs(draw):
    scope = draw(st.sampled_from(["full", "features"]))
    return ExperimentConfig(
        experiment=draw(st.sampled_from(["concept_shift", "covariate_shift"])),
        grid=(draw(st.sampled_from([0.0, 0.5, 1.0])),),
        repetitions=draw(st.integers(1, 2)),
        test_size=draw(st.integers(1, 5)),
        agents=draw(st.integers(1, 6)),
        samples_per_agent=draw(st.integers(1, 5)),
        dim=draw(st.integers(1, 3)),
        group_sizes=(draw(st.integers(0, 2)), draw(st.integers(0, 2))),
        kernel_kind=draw(st.sampled_from(["gaussian", "poly2"])),
        bandwidth="concept" if scope == "full" and draw(st.booleans()) else "isotropic",
        d_rff=draw(st.integers(1, 20)),
        scope=scope,
        optimizer=draw(st.sampled_from(["closed_form", "fedavg"])),
        fedavg_rounds=draw(st.integers(0, 3)),
        fedavg_local_steps=draw(st.integers(1, 2)),
        preset=draw(st.sampled_from(["default", "ones", "theory", "manual"])),
        model_kind=draw(st.sampled_from(["ridge", "linear_gd", "logistic_gd"])),
        model_epochs=draw(st.integers(1, 5)),
        seed=draw(st.sampled_from([0, 1, 2**64 - 1])),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=_small_configs())
def test_small_runs_exit_cleanly_with_checked_outputs(cfg):
    # every run exits 0 or 1 (a config error); a run that exits 0 writes finite
    # results or status rows, simplex weights and the closed-form ledger total,
    # with the same bytes at --threads 1 and 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "exp.cfg").write_text(serialize_config(cfg))
        codes = [
            main(["run", "--config", str(tmp / "exp.cfg"), "--out", str(tmp / f"t{n}"), "--threads", str(n)])
            for n in (1, 2)
        ]
        assert codes[0] == codes[1] and codes[0] in (0, 1)
        if codes[0] == 1:
            return
        out = tmp / "t1"
        for name in checks.OUTPUT_FILES:
            assert (out / name).read_bytes() == (tmp / "t2" / name).read_bytes(), name
        rows = checks.read_results(out / "results.csv")
        assert all(
            r["mse_or_accuracy"] == "error" if r["method"] == checks.STATUS_METHOD
            else math.isfinite(float(r["mse_or_accuracy"]))
            for r in rows
        )
        weights = checks.read_weights(out / "weights.csv")
        for row in weights:
            assert min(row) >= 0.0 and abs(math.fsum(row) - 1.0) <= 1e-9
        # a failed snapshot repetition writes no weights and an empty ledger; a
        # lone agent is its own only target and uploads nothing, which the
        # closed form does not model
        if weights and cfg.agents > 1:
            assert sum(checks.comm_totals(out / "comm.csv").values()) == checks.expected_comm(cfg, weights)
