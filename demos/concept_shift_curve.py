"""Adaptation between two regimes of task heterogeneity.

Thirty agents share one of three regression vectors, perturbed per agent
with dispersion sigma_c2.  At sigma_c2 = 0 the best policy is to pool the
whole group; at sigma_c2 = 1 no other agent is worth much and local
training wins.  The learned weights move between the two without being
told the groups.  Each model is scored by its exact risk under its target's
law, so no held-out draw adds noise; the training draws still do.
Desk-scale version of the synthetic study: a handful of repetitions, so
expect noise around the printed means.
"""

import numpy as np

from fedkme.datagen import ConceptShiftSpec, concept_shift_moments, gen_concept_shift
from fedkme.fedsim import ProtocolConfig, baseline_weights, run_protocol
from fedkme.kernels import concept_shift_kernel
from fedkme.models import ModelSpec, fit_weighted, moment_risk
from fedkme.qagg import default_config


def main() -> None:
    b, n_k, d = 30, 10, 10
    mspec = ModelSpec(kind="ridge", lam=0.07)
    base = default_config(b)
    qcfg = default_config(b, c_q=base.c_q * 0.6, c_p=base.c_p * 0.3)

    print("sigma_c2   Qagg  Oracle   Local")
    for sc2 in (0.0, 0.3, 0.5, 0.7, 1.0):
        mse = {"Qagg": [], "Oracle": [], "Local": []}
        for rep in range(5):
            spec = ConceptShiftSpec(
                sigma_c2=sc2, b=b, n_k=n_k, d=d, sigma_y2=8.0, seed=1000 + rep
            )
            datasets, betas, groups = gen_concept_shift(spec)
            moments = concept_shift_moments(spec, betas)
            cfg = ProtocolConfig(
                kernel=concept_shift_kernel(d), d_rff=200, seed=7,
                qagg=qcfg, model=mspec,
            )
            targets = (0, 10, 20)
            oracle = baseline_weights("oracle", datasets, groups=groups)
            local = baseline_weights("local", datasets)
            policies = {
                "Qagg": [run_protocol(cfg, datasets, t).weights for t in targets],
                "Oracle": [oracle[t] for t in targets],
                "Local": [local[t] for t in targets],
            }
            for name, rows in policies.items():
                # one call fits every target's row of the policy
                for target, model in zip(targets, fit_weighted(mspec, rows, datasets)):
                    mse[name].append(moment_risk(model, moments[target]))
        print(
            f"{sc2:8.2f} {np.mean(mse['Qagg']):6.2f}"
            f" {np.mean(mse['Oracle']):7.2f} {np.mean(mse['Local']):7.2f}"
        )


if __name__ == "__main__":
    main()
