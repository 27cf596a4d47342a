"""Command-line front end: generate data, run experiments, emit CSV results.

Subcommands
    gen       write a synthetic dataset to train.csv
    run       full experiment grid: collaboration weights, models, baselines
    weights   only the weight-learning step, emitting weights.csv
    baseline  baseline policies only (no weight learning)

Configuration is a flat text file of dotted ``key = value`` lines; ``#``
starts a comment.  Every key has a default, so the empty file is a valid
config.  ``fedkme run`` writes three files into the output directory:

    results.csv   method, param, repetition, target_agent, mse_or_accuracy
    weights.csv   learned weight matrix of the first grid point, repetition 0
    comm.csv      communication ledger of that same repetition

A repetition that raises is recorded as a single status row (method
``status``, value ``error``), its exception is printed as one stderr line,
and the run continues.  All rows are buffered and sorted before writing, so
output bytes never depend on --threads.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import rng
from .data import AgentDataset
from .datagen import (
    ConceptShiftSpec,
    CovariateShiftSpec,
    CsvSchema,
    concept_shift_test_sets,
    covariate_shift_test_sets,
    gen_concept_shift,
    gen_covariate_shift,
    load_csv,
    write_csv,
)
from .fedsim import (
    CLOSED_FORM,
    FEDAVG,
    GRAND_MEAN,
    LOCAL,
    ORACLE,
    CommLedger,
    ProtocolConfig,
    baseline_weights,
    fit_model,
    run_protocol_all,
)
from .kernels import (
    GAUSSIAN,
    POLY2,
    KernelSpec,
    concept_shift_kernel,
    gaussian_kernel,
    isotropic_gaussian_kernel,
    poly2_kernel,
)
from .models import ACCURACY, LOGISTIC_GD, MSE, ModelSpec, evaluate, fit_weighted
from .qagg import SimplexWeights, default_config, ones_config, theory_config, weights_matrix

CONCEPT = "concept_shift"
COVARIATE = "covariate_shift"
CUSTOM = "custom"

_METHOD_NAMES = {LOCAL: "Local", GRAND_MEAN: "GrandMean", ORACLE: "Oracle"}
_QAGG_METHOD = "Qagg"
_STATUS_METHOD = "status"

RESULT_COLUMNS = ("method", "param", "repetition", "target_agent", "mse_or_accuracy")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration (exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat bag of every experiment knob; defaults reproduce the full-scale
    concept-shift setup (100 agents, 10 samples each, 20 features)."""

    experiment: str = CONCEPT
    grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    repetitions: int = 100
    test_size: int = 1000
    train_path: str = ""
    test_path: str = ""
    groups: tuple[int, ...] = ()
    agents: int = 100
    samples_per_agent: int = 10
    dim: int = 20
    noise_var: float = 2.0
    group_sizes: tuple[int, ...] = (30, 30)
    center_var1: float = 0.01
    center_var2: float = 0.3
    group_var1: float = 1.0
    group_var2: float = 1.0
    group2_center: float = 2.0
    kernel_kind: str = GAUSSIAN
    bandwidth: str = "concept"
    d_rff: int = 500
    scope: str = "full"
    optimizer: str = CLOSED_FORM
    fedavg_rounds: int = 200
    fedavg_local_steps: int = 5
    fedavg_lr: float = 0.05
    preset: str = "default"
    c_q: float = 1.0
    c_p: float = 1.0
    steps: int = 1000
    step_scale: float = 0.5
    model_kind: str = "ridge"
    ridge_penalty: float = 0.0
    model_lr: float = 0.1
    model_epochs: int = 100
    baselines: tuple[str, ...] = (LOCAL, GRAND_MEAN, ORACLE)
    seed: int = 0
    output_dir: str = "out"


# (config key, field name, value codec)
_SCHEMA = (
    ("experiment.kind", "experiment", "str"),
    ("experiment.grid", "grid", "floats"),
    ("experiment.repetitions", "repetitions", "int"),
    ("experiment.test_size", "test_size", "int"),
    ("experiment.train_path", "train_path", "str"),
    ("experiment.test_path", "test_path", "str"),
    ("experiment.groups", "groups", "ints"),
    ("data.agents", "agents", "int"),
    ("data.samples_per_agent", "samples_per_agent", "int"),
    ("data.dim", "dim", "int"),
    ("data.noise_var", "noise_var", "float"),
    ("data.group_sizes", "group_sizes", "ints"),
    ("data.center_var1", "center_var1", "float"),
    ("data.center_var2", "center_var2", "float"),
    ("data.group_var1", "group_var1", "float"),
    ("data.group_var2", "group_var2", "float"),
    ("data.group2_center", "group2_center", "float"),
    ("kernel.kind", "kernel_kind", "str"),
    ("kernel.bandwidth", "bandwidth", "str"),
    ("protocol.random_features", "d_rff", "int"),
    ("protocol.scope", "scope", "str"),
    ("protocol.optimizer", "optimizer", "str"),
    ("protocol.fedavg_rounds", "fedavg_rounds", "int"),
    ("protocol.fedavg_local_steps", "fedavg_local_steps", "int"),
    ("protocol.fedavg_lr", "fedavg_lr", "float"),
    ("qagg.preset", "preset", "str"),
    ("qagg.c_q", "c_q", "float"),
    ("qagg.c_p", "c_p", "float"),
    ("qagg.steps", "steps", "int"),
    ("qagg.step_scale", "step_scale", "float"),
    ("model.kind", "model_kind", "str"),
    ("model.ridge_penalty", "ridge_penalty", "float"),
    ("model.learning_rate", "model_lr", "float"),
    ("model.epochs", "model_epochs", "int"),
    ("baselines", "baselines", "strs"),
    ("seed", "seed", "int"),
    ("output_dir", "output_dir", "str"),
)


def _encode(value, codec: str) -> str:
    if codec == "str":
        return str(value)
    if codec == "int":
        return str(int(value))
    if codec == "float":
        return repr(float(value))
    if codec == "floats":
        return ",".join(repr(float(v)) for v in value)
    if codec == "ints":
        return ",".join(str(int(v)) for v in value)
    if codec == "strs":
        return ",".join(value)
    raise AssertionError(codec)


def _decode(text: str, codec: str, key: str):
    try:
        if codec == "str":
            return text
        if codec == "int":
            return int(text)
        if codec == "float":
            return float(text)
        tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
        if codec == "floats":
            return tuple(float(tok) for tok in tokens)
        if codec == "ints":
            return tuple(int(tok) for tok in tokens)
        if codec == "strs":
            return tuple(tokens)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from None
    raise AssertionError(codec)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [f"{key} = {_encode(getattr(cfg, field), codec)}" for key, field, codec in _SCHEMA]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    by_key = {key: (field, codec) for key, field, codec in _SCHEMA}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in by_key:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field, codec = by_key[key]
        if field in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[field] = _decode(value.strip(), codec, key)
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def validate_config(cfg: ExperimentConfig) -> None:
    def need(cond: bool, message: str) -> None:
        if not cond:
            raise ConfigError(message)

    need(cfg.experiment in (CONCEPT, COVARIATE, CUSTOM), f"unknown experiment.kind {cfg.experiment!r}")
    need(cfg.repetitions >= 1, "experiment.repetitions must be at least 1")
    need(len(cfg.grid) >= 1, "experiment.grid must be non-empty")
    need(cfg.test_size >= 1, "experiment.test_size must be at least 1")
    need(cfg.agents >= 1, "data.agents must be at least 1")
    need(cfg.samples_per_agent >= 1, "data.samples_per_agent must be at least 1")
    need(cfg.dim >= 1, "data.dim must be at least 1")
    if cfg.experiment == CONCEPT:
        need(all(0.0 <= s <= 1.0 for s in cfg.grid), "concept-shift grid values must lie in [0, 1]")
        need(cfg.noise_var > 0, "data.noise_var must be positive")
    if cfg.experiment == COVARIATE:
        need(cfg.dim >= 2, "covariate shift needs data.dim >= 2")
        need(len(cfg.group_sizes) == 2, "data.group_sizes must list the two Gaussian group sizes")
        k1, k2 = cfg.group_sizes
        need(k1 >= 0 and k2 >= 0 and k1 + k2 <= cfg.agents, "group sizes must be non-negative and fit in data.agents")
        for name in ("center_var1", "center_var2", "group_var1", "group_var2"):
            need(getattr(cfg, name) > 0, f"data.{name} must be positive")
    if cfg.experiment == CUSTOM:
        need(bool(cfg.train_path), "custom experiment needs experiment.train_path")
        need(bool(cfg.test_path), "custom experiment needs experiment.test_path")
    need(cfg.kernel_kind in (GAUSSIAN, POLY2), f"unknown kernel.kind {cfg.kernel_kind!r}")
    need(cfg.scope in ("full", "features"), "protocol.scope must be 'full' or 'features'")
    if cfg.kernel_kind == GAUSSIAN:
        if cfg.bandwidth == "concept":
            need(cfg.scope == "full", "the concept bandwidth embeds (x, y) pairs; protocol.scope must be 'full'")
        elif cfg.bandwidth != "isotropic":
            values = _decode(cfg.bandwidth, "floats", "kernel.bandwidth")
            need(len(values) > 0 and all(v > 0 for v in values), "explicit bandwidths must be positive")
        need(cfg.d_rff >= 1, "protocol.random_features must be at least 1")
    need(cfg.optimizer in (CLOSED_FORM, FEDAVG), f"unknown protocol.optimizer {cfg.optimizer!r}")
    need(cfg.fedavg_rounds >= 0, "protocol.fedavg_rounds must be non-negative")
    need(cfg.fedavg_local_steps >= 1, "protocol.fedavg_local_steps must be at least 1")
    need(cfg.fedavg_lr > 0, "protocol.fedavg_lr must be positive")
    need(cfg.preset in ("default", "ones", "theory", "manual"), f"unknown qagg.preset {cfg.preset!r}")
    if cfg.preset == "manual":
        need(cfg.c_q > 0 and cfg.c_p > 0, "manual preset needs positive qagg.c_q and qagg.c_p")
    need(cfg.steps >= 1, "qagg.steps must be at least 1")
    need(cfg.step_scale > 0, "qagg.step_scale must be positive")
    need(cfg.model_kind in ("ridge", "linear_gd", "logistic_gd"), f"unknown model.kind {cfg.model_kind!r}")
    need(cfg.ridge_penalty >= 0, "model.ridge_penalty must be non-negative")
    need(cfg.model_lr > 0, "model.learning_rate must be positive")
    need(cfg.model_epochs >= 1, "model.epochs must be at least 1")
    for policy in cfg.baselines:
        need(policy in _METHOD_NAMES, f"unknown baseline policy {policy!r}")
    need(0 <= cfg.seed < 2**64, "seed must fit in an unsigned 64-bit integer")


def _resolve_kernel(cfg: ExperimentConfig, dim: int) -> KernelSpec:
    ambient = dim if cfg.scope == "features" else dim + 1
    if cfg.kernel_kind == POLY2:
        return poly2_kernel(ambient)
    if cfg.bandwidth == "concept":
        return concept_shift_kernel(dim)
    if cfg.bandwidth == "isotropic":
        return isotropic_gaussian_kernel(ambient)
    values = _decode(cfg.bandwidth, "floats", "kernel.bandwidth")
    if len(values) != ambient:
        raise ConfigError(f"kernel.bandwidth has {len(values)} entries but the embedded points have {ambient}")
    return gaussian_kernel(values)


def _resolve_qagg(cfg: ExperimentConfig, n_agents: int):
    overrides = {"t": cfg.steps, "c": cfg.step_scale}
    if cfg.preset == "default":
        return default_config(n_agents, **overrides)
    if cfg.preset == "ones":
        return ones_config(**overrides)
    if cfg.preset == "theory":
        return theory_config(n_agents, cfg.samples_per_agent, **overrides)
    return ones_config(c_q=cfg.c_q, c_p=cfg.c_p, **overrides)


def _resolve_model(cfg: ExperimentConfig, datasets: list[AgentDataset]) -> ModelSpec:
    classes = 2
    if cfg.model_kind == LOGISTIC_GD:
        top = max(int(np.max(ds.y)) for ds in datasets if ds.has_labels)
        classes = max(2, top + 1)
    return ModelSpec(
        kind=cfg.model_kind,
        lam=cfg.ridge_penalty,
        lr=cfg.model_lr,
        epochs=cfg.model_epochs,
        classes=classes,
    )


def _protocol_config(cfg: ExperimentConfig, dim: int, seed: int, model: ModelSpec) -> ProtocolConfig:
    return ProtocolConfig(
        kernel=_resolve_kernel(cfg, dim),
        d_rff=cfg.d_rff,
        seed=seed,
        qagg=_resolve_qagg(cfg, cfg.agents),
        model=model,
        embedding_scope=cfg.scope,
        optimizer_path=cfg.optimizer,
        fedavg_rounds=cfg.fedavg_rounds,
        fedavg_local_steps=cfg.fedavg_local_steps,
        fedavg_lr=cfg.fedavg_lr,
    )


class _JobData(NamedTuple):
    datasets: list[AgentDataset]
    tests: list[AgentDataset]
    groups: list[int]
    params: list[float]  # results.csv param column, one entry per target


def _build_data(cfg: ExperimentConfig, gi: int, rep: int) -> _JobData:
    data_seed = rng.derive_seed(cfg.seed, "experiment-data", gi, rep)
    if cfg.experiment == CONCEPT:
        spec = ConceptShiftSpec(
            sigma_c2=cfg.grid[gi], b=cfg.agents, n_k=cfg.samples_per_agent,
            d=cfg.dim, sigma_y2=cfg.noise_var, seed=data_seed,
        )
        datasets, _, groups = gen_concept_shift(spec)
        tests = concept_shift_test_sets(spec, cfg.test_size)
        params = [cfg.grid[gi]] * cfg.agents
    elif cfg.experiment == COVARIATE:
        k1, k2 = cfg.group_sizes
        spec = CovariateShiftSpec(
            b=cfg.agents, n_k=cfg.samples_per_agent, d=cfg.dim, k1=k1, k2=k2,
            v1_sq=cfg.center_var1, v2_sq=cfg.center_var2,
            sigma1_sq=cfg.group_var1, sigma2_sq=cfg.group_var2,
            mu0=(cfg.group2_center,) * cfg.dim, seed=data_seed,
        )
        datasets, groups = gen_covariate_shift(spec)
        tests = covariate_shift_test_sets(spec, cfg.test_size)
        params = [float(g) for g in groups]
    else:
        datasets = load_csv(cfg.train_path, CsvSchema())
        tests = load_csv(cfg.test_path, CsvSchema())
        if len(tests) != len(datasets):
            raise ValueError(
                f"train file has {len(datasets)} agents but test file has {len(tests)}"
            )
        groups = list(cfg.groups) if cfg.groups else [0] * len(datasets)
        if len(groups) != len(datasets):
            raise ValueError(f"experiment.groups lists {len(groups)} agents, data has {len(datasets)}")
        params = [float(g) for g in groups]
    return _JobData(datasets, tests, groups, params)


class _JobResult(NamedTuple):
    rows: list[tuple]
    weights: list[SimplexWeights] | None
    ledger: CommLedger | None
    error: str | None  # "ExceptionClass: message" of a failed repetition


def _run_job(cfg: ExperimentConfig, gi: int, rep: int, with_qagg: bool, with_baselines: bool) -> _JobResult:
    data = _build_data(cfg, gi, rep)
    B = len(data.datasets)
    if cfg.experiment == CUSTOM and cfg.agents != B:
        cfg = replace(cfg, agents=B)  # loaded data decides the agent count
    model_spec = _resolve_model(cfg, data.datasets)
    dim = data.datasets[0].dim
    metric = ACCURACY if cfg.model_kind == LOGISTIC_GD else MSE

    rows: list[tuple] = []
    wrows = None
    ledger = None
    if with_qagg:
        proto_seed = rng.derive_seed(cfg.seed, "experiment-protocol", gi, rep)
        pcfg = _protocol_config(cfg, dim, proto_seed, model_spec)
        wrows, ledger = run_protocol_all(pcfg, data.datasets)
        for t in range(B):
            model = fit_model(pcfg, wrows[t], data.datasets, ledger)
            value = evaluate(model, data.tests[t], metric)
            rows.append((_QAGG_METHOD, data.params[t], rep, t, value))
    if with_baselines:
        for policy in cfg.baselines:
            name = _METHOD_NAMES[policy]
            for t in range(B):
                w = baseline_weights(policy, data.datasets, t, data.groups)
                model = fit_weighted(model_spec, w, data.datasets)
                value = evaluate(model, data.tests[t], metric)
                rows.append((name, data.params[t], rep, t, value))
    return _JobResult(rows, wrows, ledger, None)


def _safe_job(cfg: ExperimentConfig, gi: int, rep: int, with_qagg: bool, with_baselines: bool) -> _JobResult:
    try:
        return _run_job(cfg, gi, rep, with_qagg, with_baselines)
    except Exception as exc:
        param = cfg.grid[gi] if cfg.experiment == CONCEPT else 0.0
        return _JobResult([(_STATUS_METHOD, param, rep, -1, "error")], None, None, f"{type(exc).__name__}: {exc}")


def _grid_size(cfg: ExperimentConfig) -> int:
    return len(cfg.grid) if cfg.experiment == CONCEPT else 1


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _write_results(path, rows: list[tuple]) -> None:
    rows = sorted(rows, key=lambda r: (r[0], float(r[1]), int(r[2]), int(r[3])))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for method, param, rep, target, value in rows:
            cell = value if isinstance(value, str) else _fmt(value)
            writer.writerow((method, _fmt(param), rep, target, cell))


def _write_weights(path, wrows: list[SimplexWeights] | None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        n = len(wrows) if wrows else 0
        writer.writerow(["target_id"] + [f"w_{k}" for k in range(1, n + 1)])
        if wrows:
            matrix = weights_matrix(wrows)
            for t in range(n):
                writer.writerow([str(t)] + [_fmt(v) for v in matrix[t]])


def _write_comm(path, ledger: CommLedger | None) -> None:
    (ledger or CommLedger()).write_csv(path)


def cmd_gen(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Write the training dataset of the first grid point to train.csv."""
    if cfg.experiment == CUSTOM:
        raise ConfigError("gen is only meaningful for the synthetic experiments")
    data = _build_data(cfg, 0, 0)
    out_path = out_dir / "train.csv"
    write_csv(data.datasets, out_path)
    return out_path


def _collect(cfg: ExperimentConfig, threads: int, with_qagg: bool, with_baselines: bool):
    jobs = [(gi, rep) for gi in range(_grid_size(cfg)) for rep in range(cfg.repetitions)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda j: _safe_job(cfg, j[0], j[1], with_qagg, with_baselines), jobs))
    else:
        results = [_safe_job(cfg, gi, rep, with_qagg, with_baselines) for gi, rep in jobs]
    for (gi, rep), res in zip(jobs, results):
        if res.error is not None:
            print(f"repetition {rep} of grid point {gi} failed: {res.error}", file=sys.stderr)
    rows = [row for res in results for row in res.rows]
    snapshot = results[0]  # jobs are ordered, so index 0 is grid point 0, repetition 0
    return rows, snapshot


def cmd_run(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> dict[str, Path]:
    """Full grid: learned weights plus baselines, three output files."""
    rows, snapshot = _collect(cfg, threads, with_qagg=True, with_baselines=True)
    paths = {
        "results": out_dir / "results.csv",
        "weights": out_dir / "weights.csv",
        "comm": out_dir / "comm.csv",
    }
    _write_results(paths["results"], rows)
    _write_weights(paths["weights"], snapshot.weights)
    _write_comm(paths["comm"], snapshot.ledger)
    return paths


def cmd_weights(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Weight learning only, on the first grid point's repetition 0."""
    result = _run_job(cfg, 0, 0, with_qagg=True, with_baselines=False)
    out_path = out_dir / "weights.csv"
    _write_weights(out_path, result.weights)
    return out_path


def cmd_baseline(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> Path:
    """Baseline policies only; results.csv without Qagg rows."""
    rows, _ = _collect(cfg, threads, with_qagg=False, with_baselines=True)
    out_path = out_dir / "results.csv"
    _write_results(out_path, rows)
    return out_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedkme", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen", "generate a synthetic dataset"),
        ("run", "run the full experiment grid"),
        ("weights", "learn collaboration weights only"),
        ("baseline", "run baseline policies only"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", default=None, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, metavar="U64", help="master seed (overrides config)")
        p.add_argument("--out", metavar="DIR", default=None, help="output directory (overrides config)")
        p.add_argument("--threads", type=int, default=1, metavar="N", help="worker threads (never changes output bytes)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        validate_config(cfg)
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "gen":
            path = cmd_gen(cfg, out_dir)
            print(path)
        elif args.command == "run":
            for path in cmd_run(cfg, out_dir, threads=args.threads).values():
                print(path)
        elif args.command == "weights":
            print(cmd_weights(cfg, out_dir))
        else:
            print(cmd_baseline(cfg, out_dir, threads=args.threads))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
