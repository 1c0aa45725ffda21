#!/usr/bin/env python3
"""Bayesian change-point agreement between the flu series and proxies.

Each series is standardized and sampled with the product-partition Gibbs
sampler (500 iterations, priors p0 = w0 = 0.1). Positions whose posterior
change probability exceeds 50% count as change points; proxy change
points within one week of a flu change point are true positives, and the
sensitivity / positive-predictive-value pair summarizes the agreement.

Run:  python3 demos/05_changepoint.py   (about 3 s on 2 CPUs)
"""

import numpy as np

from flunowcast import (
    BcpConfig,
    ProxyConfig,
    SynthConfig,
    bcp_posterior,
    detect,
    gen_flu,
    gen_proxy,
    score_resource,
)
from flunowcast.rng import derive_seed
from flunowcast.series import align

SEED = 5

flu = gen_flu(SynthConfig(years=3, seed=SEED))
queries = [
    gen_proxy(flu, ProxyConfig(name="faithful", lead_weeks=0, gain=0.05,
                               noise_sd=120.0, seed=derive_seed(SEED, 1))),
    gen_proxy(flu, ProxyConfig(name="noisy", lead_weeks=0, gain=0.05,
                               noise_sd=900.0, seed=derive_seed(SEED, 2))),
    gen_proxy(flu, ProxyConfig(name="outage", lead_weeks=0, gain=0.05,
                               noise_sd=120.0, dropout=(60, 10),
                               seed=derive_seed(SEED, 3))),
]
panel = align([flu, *queries])

post = bcp_posterior(panel["flu"], BcpConfig(seed=1))
flu_cps = detect(post.probabilities)
# smooth epidemic ramps register as runs of consecutive boundaries in a
# piecewise-constant-mean model; that is expected, not a defect
print(f"flu change points (week offsets): {flu_cps}")
print(f"posterior mass > 0.9 at {int((post.probabilities > 0.9).sum())} positions, "
      f"median probability {np.median(post.probabilities):.3f}")

score = score_resource(panel["flu"], [panel[q.name] for q in queries],
                       panel["flu"], BcpConfig(seed=1), top_k=3)
print(f"\n{'query':10s} {'r':>7s} {'TP':>3s} {'FP':>3s} {'FN':>3s} "
      f"{'sens %':>7s} {'ppv %':>7s}")
for q in score.queries:
    rep = q.report
    sens = f"{rep.sensitivity:.0f}" if rep.sensitivity is not None else "n/a"
    ppv = f"{rep.ppv:.0f}" if rep.ppv is not None else "n/a"
    print(f"{q.term:10s} {q.correlation:7.3f} {rep.true_positive:3d} "
          f"{rep.false_positive:3d} {rep.false_negative:3d} {sens:>7s} {ppv:>7s}")

agg = score.aggregate
print(f"\npooled: TP={agg.true_positive} FP={agg.false_positive} "
      f"FN={agg.false_negative}  sensitivity="
      f"{agg.sensitivity if agg.sensitivity is not None else 'n/a'}  "
      f"ppv={agg.ppv if agg.ppv is not None else 'n/a'}")
