"""The benchmark harness in perfbench/ still runs against the package.

Each workload's tiny config goes through ``fedkme run``, and perfbench's
certificate (``objective.certify``) rebuilds every target's program through
``qagg.build_problem`` and scores the rows of the written ``weights.csv``.
This catches a change that drops a name the harness imports, and checks that
the CLI's batched weights solve the programs that ``build_problem`` returns,
which are the ones ``learn_weights`` solves, bit for bit.  The same
config run through the one-row-per-fit reference job must write the same
``results.csv`` and ``comm.csv``, so the batched fits keep every byte.

The RFF workloads' weights are also checked against the textbook cosine
map, and the harness's featurization span against the agent count.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import common  # noqa: E402
import objective  # noqa: E402
import spans  # noqa: E402

from fedkme import cli, embedding  # noqa: E402
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


def _textbook_featurize(params, Z, out=None):
    F = np.sqrt(2.0 / params.D) * np.cos(np.asarray(Z, dtype=float) @ params.W.T + params.b)
    if out is None:
        return F
    out[...] = F
    return out


# n_k = 30 at sigma_c2 = 0 is where README's "When the weights borrow" shows pooling
_BORROWING = replace(
    common.WORKLOADS["concept_default"], tiny={"experiment.grid": "0.0", "data.samples_per_agent": "30"}
).config_text(seed=3, tiny=True)
_RFF_CONFIGS = {
    "concept_default": common.WORKLOADS["concept_default"].config_text(seed=3, tiny=True),
    "covariate_wide": common.WORKLOADS["covariate_wide"].config_text(seed=3, tiny=True),
    "borrowing": _BORROWING,
}


@pytest.mark.parametrize("name", sorted(_RFF_CONFIGS))
def test_weights_match_the_textbook_cosine_map(name, monkeypatch):
    cfg = cli.parse_config(_RFF_CONFIGS[name])
    rows = [w.w for w in cli._learn_job(cfg, 0, 0)[2]]
    monkeypatch.setattr(embedding, "featurize_matrix", _textbook_featurize)
    reference = [w.w for w in cli._learn_job(cfg, 0, 0)[2]]
    if name == "borrowing":
        assert any(np.count_nonzero(w) > 1 for w in rows)
    for t, (w, want) in enumerate(zip(rows, reference, strict=True)):
        assert np.array_equal(np.flatnonzero(w), np.flatnonzero(want)), t
        assert np.abs(w - want).max() <= 1e-12, t


def test_trace_records_one_featurization_per_agent(tmp_path):
    workload = common.WORKLOADS["covariate_wide"]
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(workload.config_text(seed=3, tiny=True))
    argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--threads", "1"]
    with spans.Tracer().patched() as tracer:
        assert cli.main(argv) == 0
    featurized = [s.extra[0] for s in tracer.spans if s.name == "rff.featurize_matrix"]
    assert featurized == [int(workload.tiny["data.samples_per_agent"])] * int(workload.tiny["data.agents"])
