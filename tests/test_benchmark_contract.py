"""The benchmark harness in perfbench/ still runs against the package.

Each workload's tiny config goes through ``fedkme run``, and perfbench's own
per-target assembly (``objective.certify``) rebuilds every target's program
and scores the rows of the written ``weights.csv``.  This catches a change
that drops a name the harness imports, and checks the CLI's batched weights
against a separate one-target assembly of the same programs.  The same
config run through the one-row-per-fit reference job must write the same
``results.csv`` and ``comm.csv``, so the batched fits keep every byte.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import common  # noqa: E402
import objective  # noqa: E402

from fedkme import cli  # noqa: E402
from reference_job import run_without_reuse  # noqa: E402


@pytest.mark.parametrize("name", sorted(common.WORKLOADS))
def test_workload_weights_solve_perfbench_programs(name, tmp_path, monkeypatch):
    workload = common.WORKLOADS[name]
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(workload.config_text(seed=3, tiny=True))
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg_path), "--out", str(out), "--threads", str(workload.threads)]
    assert cli.main(argv) == 0
    quality = objective.certify(cli.load_config(cfg_path), checks.read_weights(out / "weights.csv"))
    assert math.isfinite(quality["qagg_objective"])
    assert quality["fw_gap"] <= 1e-9
    reference = run_without_reuse(monkeypatch, cli.load_config(cfg_path), tmp_path / "reference")
    for key in ("results", "comm"):
        assert (out / f"{key}.csv").read_bytes() == reference[key].read_bytes(), key
