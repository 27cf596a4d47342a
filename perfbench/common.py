"""What every benchmark script shares: where the program lives, the BLAS pin,
and the three workloads with the config file each one feeds to ``fedkme run``.

Only the standard library is imported here, so a script can pin the BLAS
thread count before numpy is loaded.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# one BLAS thread, and every workload runs at --threads 1, so a sample
# needs one core of the two and no GIL hand-offs between pool workers
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_fedkme():
    """Import fedkme from this checkout's ``src``, never from site-packages."""
    pkg_dir = SRC / "fedkme"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: fedkme sources not found under {SRC.name}/ of the checkout")
    sys.path.insert(0, str(SRC))
    import fedkme

    if Path(fedkme.__file__).resolve().parent != pkg_dir.resolve():
        raise SystemExit(f"perfbench: imported fedkme from {fedkme.__file__}, not from the checkout")
    return fedkme


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    config: dict[str, str]
    tiny: dict[str, str]  # overrides for the warm-up and the self-tests

    def config_text(self, seed: int, tiny: bool = False) -> str:
        values = {**self.config, **(self.tiny if tiny else {}), "seed": str(seed)}
        return "".join(f"{key} = {value}\n" for key, value in values.items())


# The values that size the work are pinned, so a change of a CLI default
# does not silently change the benchmark.
WORKLOADS = {
    # the paper's default concept-shift job, one repetition per sample; the
    # extragradient solver dominates.  It runs at --threads 1: the job is
    # GIL-bound, two workers were no faster than one, and one thread
    # leaves the second core to other load on the host
    "concept_default": Workload(
        name="concept_default",
        threads=1,
        config={
            "experiment.kind": "concept_shift",
            "experiment.grid": "0.5",
            "experiment.repetitions": "1",
            "experiment.test_size": "1000",
            "data.agents": "100",
            "data.samples_per_agent": "10",
            "data.dim": "20",
            "data.noise_var": "2.0",
            "kernel.kind": "gaussian",
            "kernel.bandwidth": "concept",
            "protocol.random_features": "500",
            "protocol.scope": "full",
            "protocol.optimizer": "closed_form",
            "qagg.preset": "default",
            "qagg.step_scale": "0.5",
            "baselines": "local,grand_mean,oracle",
            "qagg.steps": "1000",
            "model.kind": "ridge",
            "model.ridge_penalty": "0.0",
        },
        tiny={
            "data.agents": "8", "data.samples_per_agent": "5", "data.dim": "3",
            "experiment.test_size": "50", "protocol.random_features": "20", "qagg.steps": "20",
        },
    ),
    # few agents with many samples and wide random features: RFF
    # featurization dominates and the solver loop is short
    "covariate_wide": Workload(
        name="covariate_wide",
        threads=1,
        config={
            "experiment.kind": "covariate_shift",
            "experiment.repetitions": "1",
            "experiment.test_size": "1000",
            "data.agents": "16",
            "data.group_sizes": "6,6",
            "data.samples_per_agent": "400",
            "data.dim": "8",
            "kernel.kind": "gaussian",
            "kernel.bandwidth": "isotropic",
            "protocol.random_features": "2000",
            "protocol.scope": "full",
            "protocol.optimizer": "closed_form",
            "qagg.preset": "default",
            "qagg.step_scale": "0.5",
            "baselines": "local,grand_mean,oracle",
            "qagg.steps": "300",
            "model.kind": "ridge",
            "model.ridge_penalty": "0.05",
        },
        tiny={
            "data.agents": "6", "data.group_sizes": "2,2", "data.samples_per_agent": "20",
            "data.dim": "3", "experiment.test_size": "50", "protocol.random_features": "30",
            "qagg.steps": "20",
        },
    ),
    # poly2 moment summaries with iterative trainers: FedAvg and GD fits
    # dominate, and the ledger is written entry by entry
    "poly2_fedavg": Workload(
        name="poly2_fedavg",
        threads=1,
        config={
            "experiment.kind": "covariate_shift",
            "experiment.repetitions": "1",
            "experiment.test_size": "1000",
            "data.agents": "30",
            "data.group_sizes": "10,10",
            "data.samples_per_agent": "20",
            "data.dim": "6",
            "kernel.kind": "poly2",
            "protocol.scope": "features",
            "protocol.optimizer": "fedavg",
            "protocol.fedavg_rounds": "50",
            "protocol.fedavg_local_steps": "2",
            "protocol.fedavg_lr": "0.01",
            "qagg.preset": "default",
            "qagg.step_scale": "0.5",
            "baselines": "local,grand_mean,oracle",
            "qagg.steps": "1000",
            "model.kind": "linear_gd",
            "model.learning_rate": "0.01",
            "model.epochs": "100",
        },
        tiny={
            "data.agents": "6", "data.group_sizes": "2,2", "data.samples_per_agent": "8",
            "data.dim": "3", "experiment.test_size": "50", "protocol.fedavg_rounds": "3",
            "qagg.steps": "20", "model.epochs": "5",
        },
    ),
}


def input_path(workload: str, tiny: bool = False) -> Path:
    return WORK / workload / ("tiny.cfg" if tiny else "input.cfg")


def write_inputs(workload: Workload, seed: int, tiny: bool = False) -> Path:
    """Write the workload's config file, the only input ``fedkme run`` gets."""
    path = input_path(workload.name, tiny)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(workload.config_text(seed, tiny))
    return path
