"""Protocol orchestration, the communication ledger, and baseline weights."""

from dataclasses import replace

import numpy as np
import pytest

import fedkme.fedsim as fedsim
from fedkme.data import AgentDataset
from fedkme.datagen import ConceptShiftSpec, gen_concept_shift
from fedkme.embedding import POLY2, embed, local_features
from fedkme.fedsim import (
    CLOSED_FORM,
    FEDAVG,
    GRAND_MEAN,
    LOCAL,
    ORACLE,
    CommLedger,
    ProtocolConfig,
    baseline_weights,
    fit_model,
    run_protocol,
    run_protocol_all,
)
from fedkme.kernels import concept_shift_kernel, isotropic_gaussian_kernel, kernel_bound, poly2_kernel
from fedkme.models import ModelSpec
from fedkme.qagg import build_problem, default_config, ones_config


def _agents(seed, B=5, n=8, d=2, shift=0.0):
    g = np.random.default_rng(seed)
    out = []
    for k in range(B):
        X = g.normal(loc=k * shift, size=(n, d))
        y = X.sum(axis=1) + 0.1 * g.normal(size=n)
        out.append(AgentDataset(X, y))
    return out


def _cfg(d=2, D=64, seed=0, **overrides):
    base = dict(
        kernel=isotropic_gaussian_kernel(d + 1),
        d_rff=D,
        seed=seed,
        qagg=ones_config(),
        model=ModelSpec(kind="ridge", lam=0.1),
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(d_rff=0)
    with pytest.raises(ValueError):
        _cfg(embedding_scope="tuples")
    with pytest.raises(ValueError):
        _cfg(optimizer_path="sgd")


def test_ledger_is_append_only_accounting():
    led = CommLedger()
    led.log("sampling", "server", "agent_0", "rff_coefficients", 10)
    led.log("kme_upload", "agent_0", "server", "kme", 4)
    assert led.total() == 14
    assert led.total("kme") == 4
    assert led.entries[0] == ("sampling", "server", "agent_0", "rff_coefficients", 10)
    with pytest.raises(ValueError):
        led.log("x", "a", "b", "kme", -1)


def test_ledger_log_each_is_one_log_per_entry_in_order():
    bulk, single = CommLedger(), CommLedger()
    rounds, receivers = ["fedavg_0", "fedavg_1"], ["agent_2", "agent_0", "agent_5"]
    bulk.log_each(rounds, "server", receivers, "model_round_trip", np.int64(8))
    for label in rounds:
        for receiver in receivers:
            single.log(label, "server", receiver, "model_round_trip", 8)
    assert bulk.entries == single.entries
    assert all(type(e[4]) is int for e in bulk.entries)
    with pytest.raises(ValueError):
        bulk.log_each(rounds, "server", receivers, "model_round_trip", -1)
    assert len(bulk.entries) == 6  # a rejected batch appends nothing


def test_ledger_csv(tmp_path):
    led = CommLedger()
    led.log("sampling", "server", "agent_0", "rff_coefficients", 10)
    path = tmp_path / "comm.csv"
    led.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round_label,sender,receiver,payload_kind,scalar_count"
    assert lines[1] == "sampling,server,agent_0,rff_coefficients,10"


def test_single_agent_run():
    datasets = _agents(0, B=1)
    result = run_protocol(_cfg(), datasets, target=0)
    np.testing.assert_allclose(result.weights.w, [1.0])
    assert result.ledger.total("kme") == 0
    kinds = {e[3] for e in result.ledger.entries}
    assert kinds == {"rff_coefficients"}
    # as the only target, the lone agent uploads to nobody in the all-targets run too
    rows, ledger = run_protocol_all(_cfg(), datasets)
    np.testing.assert_allclose(rows[0].w, [1.0])
    assert ledger.total("kme") == 0
    assert ledger.entries == result.ledger.entries


def test_kme_upload_totals():
    datasets = _agents(1, B=5)
    cfg = _cfg(D=500)
    result = run_protocol(cfg, datasets, target=0)
    assert result.ledger.total("kme") == 4 * 500
    # every agent receives the coefficient broadcast
    receivers = {e[2] for e in result.ledger.entries if e[3] == "rff_coefficients"}
    assert receivers == {f"agent_{k}" for k in range(5)}
    assert result.ledger.total("rff_coefficients") == 5 * 500 * (3 + 1)


def test_doubling_d_doubles_kme_upload():
    datasets = _agents(2, B=4)
    small = run_protocol(_cfg(D=100), datasets, target=0).ledger.total("kme")
    large = run_protocol(_cfg(D=200), datasets, target=0).ledger.total("kme")
    assert large == 2 * small


def test_poly2_payload_and_bound_entries():
    datasets = _agents(3, B=3)
    cfg = _cfg(kernel=poly2_kernel(3))
    result = run_protocol(cfg, datasets, target=0)
    p = 3  # ambient tuple (x1, x2, y): mean plus symmetric second moment
    assert result.ledger.total("kme") == 2 * (p + p * (p + 1) // 2)
    assert result.ledger.total("kernel_bound") == 2
    assert result.ledger.total("rff_coefficients") == 0


def test_run_protocol_determinism():
    datasets = _agents(4, B=4)
    cfg = _cfg(D=128, seed=9)
    a = run_protocol(cfg, datasets, target=1)
    b = run_protocol(cfg, datasets, target=1)
    np.testing.assert_array_equal(a.weights.w, b.weights.w)
    np.testing.assert_array_equal(a.model.coefficients, b.model.coefficients)
    assert a.ledger.entries == b.ledger.entries


def test_identical_agents_share_weight():
    g = np.random.default_rng(5)
    X = g.normal(size=(20, 2))
    y = X.sum(axis=1)
    datasets = [AgentDataset(X.copy(), y.copy()) for _ in range(6)]
    result = run_protocol(_cfg(D=256), datasets, target=0)
    assert result.weights.w[0] < 1.0
    # A = 0 and every peer's b is 0 while b_0 = 2 tr(Sigma_0)/n_0 > 0, so every
    # minimiser leaves the target out; the minimum-norm one splits the rest evenly
    np.testing.assert_allclose(result.weights.w, [0.0, 0.2, 0.2, 0.2, 0.2, 0.2], rtol=0.0, atol=1e-12)


def test_far_shifted_agent_gets_little_weight():
    datasets = _agents(6, B=2, n=60, shift=25.0)
    result = run_protocol(_cfg(D=512), datasets, target=0)
    assert result.weights.w[1] <= 0.05


def test_target_validation():
    datasets = _agents(7, B=3)
    cfg = _cfg()
    with pytest.raises(ValueError):
        run_protocol(cfg, datasets, target=3)
    with pytest.raises(ValueError):
        run_protocol(cfg, datasets, target=-1)
    with pytest.raises(ValueError):
        run_protocol(cfg, [], target=0)
    tiny = [AgentDataset(np.zeros((1, 2)), np.zeros(1))] + datasets[1:]
    with pytest.raises(ValueError):
        run_protocol(cfg, tiny, target=0)


def test_concept_shift_weights_leave_the_target_vertex_as_samples_grow():
    # sigma_c^2 = 0 and the default penalties at the default study's scale: with
    # 10 samples per agent the target's own cost b_t = 2 tr(Sigma_t)/n_t is the
    # cheapest, so every target keeps all its weight; with 100 it is not, and
    # every target borrows (median self-weight about 0.45, about 10 agents)
    B, d = 100, 20
    for n_k, pooled in ((10, False), (100, True)):
        datasets = gen_concept_shift(ConceptShiftSpec(sigma_c2=0.0, b=B, n_k=n_k, d=d, seed=5))[0]
        cfg = ProtocolConfig(
            kernel=concept_shift_kernel(d), d_rff=500, seed=5, qagg=default_config(B),
            model=ModelSpec(kind="ridge", lam=0.0),
        )
        rows, _ = run_protocol_all(cfg, datasets)
        at_vertex = [row.w[t] == 1.0 for t, row in enumerate(rows)]
        assert not any(at_vertex) if pooled else all(at_vertex), n_k


def test_large_poly2_data_and_single_sample_peers():
    # poly2 lifts of data at 1e3 and 1e6 reach 1e12 and 1e24: every row must
    # still be the certified minimiser of its target's program
    kernel = poly2_kernel(3)
    for magnitude in (1e3, 1e6):
        datasets = [AgentDataset(magnitude * ds.X, magnitude * ds.y) for ds in _agents(11, B=6, n=30, shift=0.3)]
        cfg = _cfg(kernel=kernel, qagg=default_config(6))
        rows, _ = run_protocol_all(cfg, datasets)
        embs = [embed(ds, POLY2) for ds in datasets]
        qcfg = replace(cfg.qagg, m=kernel_bound(kernel, datasets))
        for t, row in enumerate(rows):
            problem = build_problem(embs, local_features(datasets[t], POLY2), replace(qcfg, target_index=t))
            g = problem.gradient(row.w)
            lam = float(g @ row.w)
            tol = 1e-9 * max(float(np.abs(problem.A).max()), float(problem.b.max()))
            on = row.w > 0.0
            np.testing.assert_allclose(g[on], lam, rtol=0.0, atol=tol)
            assert np.all(g[~on] >= lam - tol)
    # a non-target with one sample has no covariance, and needs none
    datasets = _agents(12, B=4)
    datasets[2] = AgentDataset(datasets[2].X[:1], datasets[2].y[:1])
    for cfg in (_cfg(), _cfg(kernel=kernel)):
        result = run_protocol(cfg, datasets, target=0)
        assert abs(float(result.weights.w.sum()) - 1.0) <= 1e-12
        assert result.model.status == "ok"


def test_hygiene_guard_catches_foreign_raw_reads(monkeypatch):
    datasets = _agents(8, B=3)
    real = fedsim.learn_weights

    def leaky(embs, locals_, qcfg):
        datasets[2].X.sum()  # a non-target raw read the protocol forbids
        return real(embs, locals_, qcfg)

    monkeypatch.setattr(fedsim, "learn_weights", leaky)
    with pytest.raises(RuntimeError, match="non-target"):
        run_protocol(_cfg(), datasets, target=0)


def test_hygiene_guard_allows_target_reads():
    datasets = _agents(9, B=3)
    result = run_protocol(_cfg(), datasets, target=2)
    assert result.model.status == "ok"


def test_run_protocol_all_matches_per_target_weights():
    datasets = _agents(10, B=4)
    # both fit paths; one test id, so the closed-form check keeps its name
    for path, kind in ((CLOSED_FORM, "ridge"), (FEDAVG, "linear_gd")):
        cfg = _cfg(D=128, seed=3, optimizer_path=path, model=ModelSpec(kind=kind, lam=0.1), fedavg_rounds=5)
        rows, ledger = run_protocol_all(cfg, datasets)
        assert len(rows) == 4
        # uploads charged once per agent, not once per target
        assert ledger.total("kme") == 4 * 128
        for t, row in enumerate(rows):
            single = run_protocol(cfg, datasets, target=t)
            np.testing.assert_array_equal(row.w, single.weights.w)
            before = len(ledger.entries)
            model = fit_model(cfg, row, datasets, ledger)
            np.testing.assert_array_equal(model.coefficients, single.model.coefficients)
            np.testing.assert_array_equal(model.intercept, single.model.intercept)
            trips = sum(e[3] == "model_round_trip" for e in single.ledger.entries)
            assert len(ledger.entries) - before == trips
            assert trips == (5 * int(np.sum(row.w > 0.0)) if path == FEDAVG else 0)


def test_run_protocol_all_server_hygiene(monkeypatch):
    datasets = _agents(11, B=3)
    real = fedsim.learn_weights

    def leaky(embs, locals_, qcfg):
        datasets[0].y.sum()
        return real(embs, locals_, qcfg)

    monkeypatch.setattr(fedsim, "learn_weights", leaky)
    with pytest.raises(RuntimeError, match="server-side"):
        run_protocol_all(_cfg(), datasets)


def test_fedavg_path_traffic():
    datasets = _agents(12, B=3, n=10)
    cfg = _cfg(
        optimizer_path=FEDAVG,
        fedavg_rounds=7,
        fedavg_local_steps=2,
        fedavg_lr=0.05,
        model=ModelSpec(kind="linear_gd", lam=0.1),
    )
    result = run_protocol(cfg, datasets, target=0)
    trips = [e for e in result.ledger.entries if e[3] == "model_round_trip"]
    participants = int(np.sum(result.weights.w > 0.0))
    assert len(trips) == 7 * participants
    assert all(e[4] == 2 * (2 + 1) for e in trips)  # d coefficients + intercept
    labels = {e[0] for e in trips}
    assert labels == {f"fedavg_{r}" for r in range(7)}


def test_closed_form_path_has_no_model_traffic():
    datasets = _agents(13, B=3)
    result = run_protocol(_cfg(optimizer_path=CLOSED_FORM), datasets, target=0)
    assert result.ledger.total("model_round_trip") == 0


def test_baseline_local():
    datasets = _agents(14, B=3)
    w = baseline_weights(LOCAL, datasets, target=1)
    np.testing.assert_array_equal(w.w, [0.0, 1.0, 0.0])


def test_baseline_grand_mean():
    datasets = [
        AgentDataset(np.zeros((10, 2)), np.zeros(10)),
        AgentDataset(np.zeros((30, 2)), np.zeros(30)),
    ]
    w = baseline_weights(GRAND_MEAN, datasets, target=0)
    np.testing.assert_allclose(w.w, [0.25, 0.75])


def test_baseline_oracle():
    datasets = [AgentDataset(np.zeros((5, 2)), np.zeros(5)) for _ in range(3)]
    w = baseline_weights(ORACLE, datasets, target=0, groups=[0, 0, 1])
    np.testing.assert_allclose(w.w, [0.5, 0.5, 0.0])


def test_baseline_errors():
    datasets = _agents(15, B=2)
    with pytest.raises(ValueError):
        baseline_weights(ORACLE, datasets, target=0)
    with pytest.raises(ValueError):
        baseline_weights(ORACLE, datasets, target=0, groups=[0])
    with pytest.raises(ValueError):
        baseline_weights("median", datasets, target=0)
    with pytest.raises(ValueError):
        baseline_weights(LOCAL, datasets, target=5)
