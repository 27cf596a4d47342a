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

A synthetic results.csv value is the target's exact population risk; a
custom one is the MSE or accuracy on the target's rows of the test file.

A repetition that raises is recorded as a single status row (method
``status``, value ``error``), its exception is printed as one stderr line,
and the run continues.  All rows are buffered and sorted before writing, so
output bytes never depend on --threads.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import rng
from .data import AgentDataset
from .datagen import (
    ConceptShiftSpec,
    CovariateShiftSpec,
    concept_shift_moments,
    covariate_shift_moments,
    gen_concept_shift,
    gen_covariate_shift,
    load_csv_agents,
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
    charge_fedavg,
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
from .models import (
    ACCURACY,
    LOGISTIC_GD,
    MSE,
    NON_FINITE,
    FittedModel,
    ModelSpec,
    evaluate,
    moment_risks,
)
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


def _key(name: str, default):
    """A config field whose value is read from and written to the line ``name = value``."""
    return field(default=default, metadata={"key": name})


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat bag of every experiment knob; defaults reproduce the full-scale
    concept-shift setup (100 agents, 10 samples each, 20 features).

    Each field declares its dotted config key, and its annotated type gives
    the value's syntax: a str, int or float, or a comma-separated tuple of one.
    """

    experiment: str = _key("experiment.kind", CONCEPT)
    grid: tuple[float, ...] = _key("experiment.grid", (0.0, 0.25, 0.5, 0.75, 1.0))
    repetitions: int = _key("experiment.repetitions", 100)
    # validated but read by no job: a synthetic job scores by exact risk, and a custom one on its test file
    test_size: int = _key("experiment.test_size", 1000)
    train_path: str = _key("experiment.train_path", "")
    test_path: str = _key("experiment.test_path", "")
    groups: tuple[int, ...] = _key("experiment.groups", ())
    agents: int = _key("data.agents", 100)
    samples_per_agent: int = _key("data.samples_per_agent", 10)
    dim: int = _key("data.dim", 20)
    noise_var: float = _key("data.noise_var", 2.0)
    group_sizes: tuple[int, ...] = _key("data.group_sizes", (30, 30))
    center_var1: float = _key("data.center_var1", 0.01)
    center_var2: float = _key("data.center_var2", 0.3)
    group_var1: float = _key("data.group_var1", 1.0)
    group_var2: float = _key("data.group_var2", 1.0)
    group2_center: float = _key("data.group2_center", 2.0)
    kernel_kind: str = _key("kernel.kind", GAUSSIAN)
    bandwidth: str = _key("kernel.bandwidth", "concept")
    d_rff: int = _key("protocol.random_features", 500)
    scope: str = _key("protocol.scope", "full")
    optimizer: str = _key("protocol.optimizer", CLOSED_FORM)
    fedavg_rounds: int = _key("protocol.fedavg_rounds", 200)
    fedavg_local_steps: int = _key("protocol.fedavg_local_steps", 5)
    fedavg_lr: float = _key("protocol.fedavg_lr", 0.05)
    preset: str = _key("qagg.preset", "default")
    c_q: float = _key("qagg.c_q", 1.0)
    c_p: float = _key("qagg.c_p", 1.0)
    steps: int = _key("qagg.steps", 1000)
    step_scale: float = _key("qagg.step_scale", 0.5)
    model_kind: str = _key("model.kind", "ridge")
    ridge_penalty: float = _key("model.ridge_penalty", 0.0)
    model_lr: float = _key("model.learning_rate", 0.1)
    model_epochs: int = _key("model.epochs", 100)
    baselines: tuple[str, ...] = _key("baselines", (LOCAL, GRAND_MEAN, ORACLE))
    seed: int = _key("seed", 0)
    output_dir: str = _key("output_dir", "out")


_SCALARS = (str, int, float)


def _syntax(name: str, annotation) -> tuple[type, bool]:
    """A field's value syntax from its annotation: (scalar type, whether the value is a comma-separated tuple)."""
    if annotation in _SCALARS:
        return annotation, False
    args = get_args(annotation)
    if get_origin(annotation) is tuple and len(args) == 2 and args[0] in _SCALARS and args[1] is Ellipsis:
        return args[0], True
    raise TypeError(f"ExperimentConfig.{name} is annotated {annotation!r}, which has no config syntax")


_SYNTAX = {name: _syntax(name, hint) for name, hint in get_type_hints(ExperimentConfig).items()}


def _encode(value, kind: type, many: bool) -> str:
    # str(float) is its shortest round-tripping repr
    return ",".join(str(kind(v)) for v in value) if many else str(kind(value))


def _decode(text: str, kind: type, many: bool, key: str):
    try:
        if many:
            return tuple(kind(tok) for tok in map(str.strip, text.split(",")) if tok)
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from None


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [f"{f.metadata['key']} = {_encode(getattr(cfg, f.name), *_SYNTAX[f.name])}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    by_key = {f.metadata["key"]: f.name for f in fields(ExperimentConfig)}
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
        name = by_key[key]
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[name] = _decode(value.strip(), *_SYNTAX[name], key)
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

    # an inf or nan passes or fails the range checks below without naming its key
    for f in fields(cfg):
        kind, many = _SYNTAX[f.name]
        value = getattr(cfg, f.name)
        if kind is float and not all(map(math.isfinite, value if many else (value,))):
            raise ConfigError(f"{f.metadata['key']} must be finite, got {_encode(value, kind, many)}")
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
    if cfg.bandwidth not in ("concept", "isotropic"):
        # an explicit diagonal is checked under every kernel, though only the Gaussian reads it
        values = _decode(cfg.bandwidth, float, True, "kernel.bandwidth")
        need(all(map(math.isfinite, values)), f"kernel.bandwidth must be finite, got {cfg.bandwidth}")
        need(len(values) > 0 and all(v > 0 for v in values), "explicit bandwidths must be positive")
    if cfg.kernel_kind == GAUSSIAN:
        if cfg.bandwidth == "concept":
            need(cfg.scope == "full", "the concept bandwidth embeds (x, y) pairs; protocol.scope must be 'full'")
        need(cfg.d_rff >= 1, "protocol.random_features must be at least 1")
    if cfg.experiment != CUSTOM:
        # a custom run's dimension comes from its file, so its jobs check the bandwidth's length
        _resolve_kernel(cfg, cfg.dim)
    need(cfg.optimizer in (CLOSED_FORM, FEDAVG), f"unknown protocol.optimizer {cfg.optimizer!r}")
    need(cfg.fedavg_rounds >= 0, "protocol.fedavg_rounds must be non-negative")
    need(cfg.fedavg_local_steps >= 1, "protocol.fedavg_local_steps must be at least 1")
    need(cfg.fedavg_lr > 0, "protocol.fedavg_lr must be positive")
    need(cfg.preset in ("default", "ones", "theory", "manual"), f"unknown qagg.preset {cfg.preset!r}")
    # checked under every preset, though only manual reads them
    need(cfg.c_q > 0 and cfg.c_p > 0, "qagg.c_q and qagg.c_p must be positive")
    need(cfg.steps >= 1, "qagg.steps must be at least 1")
    need(cfg.step_scale > 0, "qagg.step_scale must be positive")
    need(cfg.model_kind in ("ridge", "linear_gd", "logistic_gd"), f"unknown model.kind {cfg.model_kind!r}")
    if cfg.model_kind == LOGISTIC_GD:
        # the synthetic experiments draw real-valued targets, which are not classes
        need(cfg.experiment == CUSTOM, "model.kind = logistic_gd needs class labels, so it runs only on custom data")
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
    values = _decode(cfg.bandwidth, float, True, "kernel.bandwidth")
    if len(values) != ambient:
        raise ConfigError(f"kernel.bandwidth has {len(values)} entries but the embedded points have {ambient}")
    return gaussian_kernel(values)


def _resolve_qagg(cfg: ExperimentConfig, datasets: list[AgentDataset]):
    """The weight program's constants; the loaded data, not the config, gives a custom run's B and n."""
    overrides = {"t": cfg.steps, "c": cfg.step_scale}
    if cfg.preset == "default":
        return default_config(len(datasets), **overrides)
    if cfg.preset == "ones":
        return ones_config(**overrides)
    if cfg.preset == "theory":
        sizes = sorted({ds.n for ds in datasets})
        if len(sizes) != 1:
            raise ValueError(f"the theory preset needs one sample count for every agent, got {sizes}")
        return theory_config(len(datasets), sizes[0], **overrides)
    return ones_config(c_q=cfg.c_q, c_p=cfg.c_p, **overrides)


def _resolve_model(cfg: ExperimentConfig, data: _JobData) -> ModelSpec:
    """The model spec; under logistic_gd the training labels define the classes.

    Accuracy scores a label as a class index, so every training and test
    label must be one of 0, ..., classes - 1; this runs before any learning.
    """
    classes = 2
    if cfg.model_kind == LOGISTIC_GD:
        for k, ds in enumerate(data.datasets):
            bad = ds.y[(ds.y < 0) | (ds.y != np.rint(ds.y))]
            if bad.size:
                raise ConfigError(f"model.kind = logistic_gd needs labels 0, 1, 2, ...; agent {k} has label {bad[0]:g}")
        top = max(int(np.max(ds.y)) for ds in data.datasets)
        classes = max(2, top + 1)
        for k, ds in enumerate(data.tests):
            bad = ds.y[(ds.y < 0) | (ds.y >= classes) | (ds.y != np.rint(ds.y))]
            if bad.size:
                raise ConfigError(
                    f"model.kind = logistic_gd scores test labels as classes 0 to {classes - 1}; "
                    f"agent {k} of {cfg.test_path} has label {bad[0]:g}"
                )
    return ModelSpec(
        kind=cfg.model_kind,
        lam=cfg.ridge_penalty,
        lr=cfg.model_lr,
        epochs=cfg.model_epochs,
        classes=classes,
    )


def _protocol_config(cfg: ExperimentConfig, data: _JobData, seed: int) -> ProtocolConfig:
    return ProtocolConfig(
        kernel=_resolve_kernel(cfg, data.datasets[0].dim),
        d_rff=cfg.d_rff,
        seed=seed,
        qagg=_resolve_qagg(cfg, data.datasets),
        model=_resolve_model(cfg, data),
        embedding_scope=cfg.scope,
        optimizer_path=cfg.optimizer,
        fedavg_rounds=cfg.fedavg_rounds,
        fedavg_local_steps=cfg.fedavg_local_steps,
        fedavg_lr=cfg.fedavg_lr,
    )


class _JobData(NamedTuple):
    datasets: list[AgentDataset]
    tests: list[AgentDataset]  # a custom run's test sets, by agent; a synthetic job has none
    moments: np.ndarray | None  # a synthetic job's population moment of every agent, stacked; a custom one has none
    groups: list[int]
    params: list[float]  # results.csv param column, one entry per target


def _synthetic_spec(cfg: ExperimentConfig, gi: int, rep: int) -> ConceptShiftSpec | CovariateShiftSpec:
    """The generator parameters of one synthetic job."""
    data_seed = rng.derive_seed(cfg.seed, "experiment-data", gi, rep)
    if cfg.experiment == CONCEPT:
        return ConceptShiftSpec(
            sigma_c2=cfg.grid[gi], b=cfg.agents, n_k=cfg.samples_per_agent,
            d=cfg.dim, sigma_y2=cfg.noise_var, seed=data_seed,
        )
    k1, k2 = cfg.group_sizes
    return CovariateShiftSpec(
        b=cfg.agents, n_k=cfg.samples_per_agent, d=cfg.dim, k1=k1, k2=k2,
        v1_sq=cfg.center_var1, v2_sq=cfg.center_var2,
        sigma1_sq=cfg.group_var1, sigma2_sq=cfg.group_var2,
        mu0=(cfg.group2_center,) * cfg.dim, seed=data_seed,
    )


def _build_data(cfg: ExperimentConfig, gi: int, rep: int) -> _JobData:
    """One job's training sets, and what scores its models (see :func:`_score`).

    A synthetic job keeps every agent's population augmented second moment,
    formed once as one stack, so no held-out row is drawn and
    ``experiment.test_size`` is not read.  A custom job keeps the test file's
    sets.
    """
    tests: list[AgentDataset] = []
    moments = None
    if cfg.experiment == CONCEPT:
        spec = _synthetic_spec(cfg, gi, rep)
        datasets, betas, groups = gen_concept_shift(spec)
        moments = concept_shift_moments(spec, betas)
        params = [cfg.grid[gi]] * cfg.agents
    elif cfg.experiment == COVARIATE:
        spec = _synthetic_spec(cfg, gi, rep)
        datasets, groups = gen_covariate_shift(spec)
        moments = covariate_shift_moments(spec)
        params = [float(g) for g in groups]
    else:
        train_by_id = load_csv_agents(cfg.train_path)
        test_by_id = load_csv_agents(cfg.test_path)
        if list(test_by_id) != list(train_by_id):
            # agents pair with their test sets by position, so ids and order must both match
            raise ValueError(
                f"test file lists agents {list(test_by_id)} but train file lists {list(train_by_id)}; "
                "both must list the same agent ids in the same order"
            )
        datasets, tests = list(train_by_id.values()), list(test_by_id.values())
        if tests[0].dim != datasets[0].dim:
            # a model fitted on the train file's features cannot score other features
            raise ValueError(
                f"test file {cfg.test_path} has {tests[0].dim} feature columns but train file "
                f"{cfg.train_path} has {datasets[0].dim}; both must have the same feature columns"
            )
        groups = list(cfg.groups) if cfg.groups else [0] * len(datasets)
        if len(groups) != len(datasets):
            raise ValueError(f"experiment.groups lists {len(groups)} agents, data has {len(datasets)}")
        params = [float(g) for g in groups]
    return _JobData(datasets, tests, moments, groups, params)


class _JobResult(NamedTuple):
    rows: list[tuple]
    weights: list[SimplexWeights] | None
    ledger: CommLedger | None
    error: str | None  # "ExceptionClass: message" of a failed repetition


def _learn_job(
    cfg: ExperimentConfig, gi: int, rep: int,
) -> tuple[_JobData, ProtocolConfig, list[SimplexWeights], CommLedger]:
    """Protocol steps 1-5 of one job: every agent's weight row and the ledger; no model is fitted."""
    data = _build_data(cfg, gi, rep)
    pcfg = _protocol_config(cfg, data, rng.derive_seed(cfg.seed, "experiment-protocol", gi, rep))
    return (data, pcfg, *run_protocol_all(pcfg, data.datasets))


def _check_finite(cfg: ExperimentConfig, path: str, fitted: list[FittedModel]) -> None:
    """Fail the repetition if a gradient fit diverged, naming the step-size key that drove it."""
    if any(m.status == NON_FINITE for m in fitted):
        if path == FEDAVG:
            what, key, value = "FedAvg", "protocol.fedavg_lr", cfg.fedavg_lr
        else:
            what, key, value = cfg.model_kind, "model.learning_rate", cfg.model_lr
        raise ValueError(f"{what} diverged to a non-finite model; lower {key} (now {value!r})")


def _run_job(cfg: ExperimentConfig, gi: int, rep: int, with_qagg: bool) -> _JobResult:
    """One repetition's results.csv rows: Qagg (if ``with_qagg``) and every baseline.

    Weight rows repeat within a job (a vertex Qagg row is that target's Local
    row, every GrandMean row is the same), so each distinct (fit path, weight
    row) is fitted once and each distinct (model, target) is scored once.
    The job collects every row first and fits each path's distinct rows in
    one call; then it charges FedAvg per Qagg target, in target order, and
    scores every distinct (model, target) pair in one :func:`_score` call.
    Fitting and scoring are deterministic, a row's model does not depend on
    the other rows of its call, and a pair's score does not depend on the
    other pairs scored, so reuse changes no output byte.
    """
    if with_qagg:
        data, pcfg, wrows, ledger = _learn_job(cfg, gi, rep)
        model_spec = pcfg.model
    else:
        data, wrows, ledger = _build_data(cfg, gi, rep), None, None
        model_spec = _resolve_model(cfg, data)

    # (method, target, fit key) of every results.csv row, and each path's distinct rows
    entries: list[tuple[str, int, tuple[str, bytes]]] = []
    distinct: dict[str, dict[bytes, SimplexWeights]] = {CLOSED_FORM: {}, FEDAVG: {}}

    def collect(method: str, path: str, rows: list[SimplexWeights]) -> None:
        for t, w in enumerate(rows):
            key = (path, w.w.tobytes())
            distinct[path].setdefault(key[1], w)
            entries.append((method, t, key))

    if with_qagg:
        collect(_QAGG_METHOD, pcfg.optimizer_path, wrows)
    for policy in cfg.baselines:
        collect(_METHOD_NAMES[policy], CLOSED_FORM, baseline_weights(policy, data.datasets, data.groups))

    models: dict[tuple[str, bytes], FittedModel] = {}
    for path, rows in distinct.items():
        if not rows:
            continue
        fitted = fit_model(
            path, model_spec, list(rows.values()), data.datasets,
            rounds=cfg.fedavg_rounds, local_steps=cfg.fedavg_local_steps, lr=cfg.fedavg_lr,
        )
        _check_finite(cfg, path, fitted)
        models.update(zip(((path, row) for row in rows), fitted))

    if with_qagg:
        for w in wrows:
            charge_fedavg(pcfg, w, models[pcfg.optimizer_path, w.w.tobytes()], ledger)
    pairs = list(dict.fromkeys((key, t) for _, t, key in entries))  # distinct (fit key, target), in row order
    scores = _score(cfg, data, [models[key] for key, _ in pairs], [t for _, t in pairs])
    values = dict(zip(pairs, scores))
    rows = [(method, data.params[t], rep, t, values[key, t]) for method, t, key in entries]
    return _JobResult(rows, wrows, ledger, None)


def _score(cfg: ExperimentConfig, data: _JobData, fitted: list[FittedModel], targets: list[int]) -> list[float]:
    """The results.csv value of each model ``fitted[i]`` at its target ``targets[i]``.

    A synthetic pair's value is the model's exact risk under the target's
    population moment, every pair in one stacked :func:`moment_risks` call; a
    custom pair's is the MSE or accuracy on the target's rows of the test
    file.  No pair's value depends on the other pairs.
    """
    if data.moments is not None:
        return moment_risks(fitted, data.moments[targets]).tolist()
    metric = ACCURACY if cfg.model_kind == LOGISTIC_GD else MSE
    return [evaluate(model, data.tests[t], metric) for model, t in zip(fitted, targets)]


def _safe_job(cfg: ExperimentConfig, gi: int, rep: int, with_qagg: bool) -> _JobResult:
    try:
        return _run_job(cfg, gi, rep, with_qagg)
    except Exception as exc:
        # a covariate or custom repetition spans every group, so it gets none
        param = cfg.grid[gi] if cfg.experiment == CONCEPT else -1.0
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
            # the matrix repeats few values (at the vertices only 0 and 1), so
            # each distinct value is formatted once, keyed by its bits so that
            # 0.0 and -0.0 keep their own cells
            matrix = weights_matrix(wrows)
            bits = matrix.view(np.uint64)
            distinct = dict(zip(bits.ravel().tolist(), matrix.ravel().tolist()))
            cells = {key: _fmt(value) for key, value in distinct.items()}
            for t, row in enumerate(bits.tolist()):
                writer.writerow([str(t)] + [cells[key] for key in row])


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


def _collect(cfg: ExperimentConfig, threads: int, with_qagg: bool):
    jobs = [(gi, rep) for gi in range(_grid_size(cfg)) for rep in range(cfg.repetitions)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda j: _safe_job(cfg, j[0], j[1], with_qagg), jobs))
    else:
        results = [_safe_job(cfg, gi, rep, with_qagg) for gi, rep in jobs]
    for (gi, rep), res in zip(jobs, results):
        if res.error is not None:
            print(f"repetition {rep} of grid point {gi} failed: {res.error}", file=sys.stderr)
    rows = [row for res in results for row in res.rows]
    snapshot = results[0]  # jobs are ordered, so index 0 is grid point 0, repetition 0
    return rows, snapshot


def cmd_run(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> dict[str, Path]:
    """Full grid: learned weights plus baselines, three output files."""
    rows, snapshot = _collect(cfg, threads, with_qagg=True)
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
    """Weight learning only, on the first grid point's repetition 0; no model is fitted."""
    _, _, wrows, _ = _learn_job(cfg, 0, 0)
    out_path = out_dir / "weights.csv"
    _write_weights(out_path, wrows)
    return out_path


def cmd_baseline(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> Path:
    """Baseline policies only; results.csv without Qagg rows."""
    rows, _ = _collect(cfg, threads, with_qagg=False)
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
