"""A reference ``fedkme run`` job: every row fitted, charged and evaluated on its own.

``cli._run_job`` fits each distinct weight row of a job once, in one batched
call per fit path, and draws each target's held-out set when it scores that
target.  This job fits one row per call, reuses nothing, and draws every
held-out set up front through datagen's all-agents form, so a run with it in
place of ``cli._run_job`` must write the same bytes.
"""

from fedkme import cli, datagen, fedsim, models


def eager_test_sets(cfg, gi, rep):
    """Every held-out set of one job, drawn (or loaded) at once, in agent order."""
    if cfg.experiment == cli.CONCEPT:
        spec = cli._synthetic_spec(cfg, gi, rep)
        _, betas, _ = datagen.gen_concept_shift(spec)
        return datagen.concept_shift_test_sets(spec, betas, cfg.test_size)
    if cfg.experiment == cli.COVARIATE:
        return datagen.covariate_shift_test_sets(cli._synthetic_spec(cfg, gi, rep), cfg.test_size)
    return list(datagen.load_csv_agents(cfg.test_path).values())


def job_without_reuse(cfg, gi, rep, with_qagg):
    """The job loop as if no weight row repeated: one fit, charge and evaluation per target and method."""
    tests = eager_test_sets(cfg, gi, rep)
    data, pcfg, wrows, ledger = cli._learn_job(cfg, gi, rep)
    metric = models.ACCURACY if cfg.model_kind == models.LOGISTIC_GD else models.MSE

    def fit_one(path, w):
        return fedsim.fit_model(
            path, pcfg.model, [w], data.datasets,
            rounds=pcfg.fedavg_rounds, local_steps=pcfg.fedavg_local_steps, lr=pcfg.fedavg_lr,
        )[0]

    rows = []
    for t, w in enumerate(wrows):
        model = fit_one(pcfg.optimizer_path, w)
        fedsim.charge_fedavg(pcfg, w, model, ledger)
        rows.append(("Qagg", data.params[t], rep, t, models.evaluate(model, tests[t], metric)))
    for policy in cfg.baselines:
        for t, w in enumerate(fedsim.baseline_weights(policy, data.datasets, data.groups)):
            model = fit_one(fedsim.CLOSED_FORM, w)
            value = models.evaluate(model, tests[t], metric)
            rows.append((cli._METHOD_NAMES[policy], data.params[t], rep, t, value))
    return cli._JobResult(rows, wrows, ledger, None)


def run_without_reuse(monkeypatch, cfg, out_dir):
    """``cmd_run`` into a new ``out_dir`` with :func:`job_without_reuse` as every job; returns its output paths."""
    out_dir.mkdir()
    with monkeypatch.context() as m:
        m.setattr(cli, "_run_job", job_without_reuse)
        return cli.cmd_run(cfg, out_dir)
