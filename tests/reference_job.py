"""A reference ``fedkme run`` job: every row fitted, charged and scored on its own.

``cli._run_job`` fits each distinct weight row of a job once, in one batched
call per fit path, and scores every distinct (model, target) pair in one
stacked call against the all-agents stack of population moments.  This job
fits one row per call, reuses nothing, and scores each model alone, against
its target's moment formed through datagen's one-agent form (or on the
target's test set of a custom run), so a run with it in place of
``cli._run_job`` must write the same bytes.
"""

from functools import partial

from fedkme import cli, datagen, fedsim, models


def eager_scorers(cfg, gi, rep):
    """Every target's scorer of one job, in agent order, each from the target's own moment or test set."""
    if cfg.experiment == cli.CUSTOM:
        metric = models.ACCURACY if cfg.model_kind == models.LOGISTIC_GD else models.MSE
        tests = datagen.load_csv_agents(cfg.test_path).values()
        return [partial(models.evaluate, test=test, metric=metric) for test in tests]
    spec = cli._synthetic_spec(cfg, gi, rep)
    if cfg.experiment == cli.CONCEPT:
        _, betas, _ = datagen.gen_concept_shift(spec)
        moments = [datagen.concept_shift_moments(spec, betas, [t])[0] for t in range(spec.b)]
    else:
        moments = [datagen.covariate_shift_moments(spec, [t])[0] for t in range(spec.b)]
    return [partial(models.moment_risk, moment=moment) for moment in moments]


def job_without_reuse(cfg, gi, rep, with_qagg):
    """The job loop as if no weight row repeated: one fit, charge and score per target and method."""
    scorers = eager_scorers(cfg, gi, rep)
    data, pcfg, wrows, ledger = cli._learn_job(cfg, gi, rep)

    def fit_one(path, w):
        return fedsim.fit_model(
            path, pcfg.model, [w], data.datasets,
            rounds=pcfg.fedavg_rounds, local_steps=pcfg.fedavg_local_steps, lr=pcfg.fedavg_lr,
        )[0]

    rows = []
    for t, w in enumerate(wrows):
        model = fit_one(pcfg.optimizer_path, w)
        fedsim.charge_fedavg(pcfg, w, model, ledger)
        rows.append(("Qagg", data.params[t], rep, t, scorers[t](model)))
    for policy in cfg.baselines:
        for t, w in enumerate(fedsim.baseline_weights(policy, data.datasets, data.groups)):
            model = fit_one(fedsim.CLOSED_FORM, w)
            rows.append((cli._METHOD_NAMES[policy], data.params[t], rep, t, scorers[t](model)))
    return cli._JobResult(rows, wrows, ledger, None)


def run_without_reuse(monkeypatch, cfg, out_dir):
    """``cmd_run`` into a new ``out_dir`` with :func:`job_without_reuse` as every job; returns its output paths."""
    out_dir.mkdir()
    with monkeypatch.context() as m:
        m.setattr(cli, "_run_job", job_without_reuse)
        return cli.cmd_run(cfg, out_dir)
