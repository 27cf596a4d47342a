"""Config parsing, the four subcommands, and exit-code behavior."""

import csv
from dataclasses import replace

import numpy as np
import pytest

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


def test_cmd_weights_single_agent(tmp_path):
    cfg = replace(TINY, agents=1)
    path = cmd_weights(cfg, tmp_path)
    rows = _read(path)
    assert rows[1] == ["0", "1"]


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
