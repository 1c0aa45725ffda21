#!/usr/bin/env python3
"""Leave-one-resource-out comparison under the Huber model.

Six rows: everything, then drop each proxy resource's query columns, then
drop the whole 52-lag flu-history block. With informative proxies the
history block is what carries the accuracy: removing any single proxy
barely moves R^2, removing the past collapses it.

Run:  python3 demos/04_ablation.py
"""

from flunowcast import ModelSpec, ProxyConfig, SynthConfig, gen_flu, gen_proxy
from flunowcast.evaluation import backtest, drop_labels
from flunowcast.features import SplitPlan
from flunowcast.rng import derive_seed
from flunowcast.series import ResourceKind, align

SEED = 33
UGC = [ResourceKind.SEARCH_QUERY, ResourceKind.SOCIAL_MEDIA,
       ResourceKind.SHOPPING, ResourceKind.QA_SERVICE]

flu = gen_flu(SynthConfig(years=5, seed=SEED))
proxies = [
    gen_proxy(flu, ProxyConfig(name=f"q_{kind.value}", resource=kind,
                               lead_weeks=0, gain=0.04, noise_sd=400.0,
                               seed=derive_seed(SEED, i + 1)))
    for i, kind in enumerate(UGC)
]
panel = align([flu, *proxies])
selected = {kind: [f"q_{kind.value}"] for kind in UGC}
plan = SplitPlan.of(panel.start + 53, [(panel.start + 218, panel.start + 237)])

print(f"{'dropped':10s} {'R^2':>8s} {'MAE':>10s} {'MAPE %':>8s}")
for label in drop_labels():
    result = backtest(panel, selected, ModelSpec("huber"), plan,
                      drop=label, seed=0)[0]
    m = result.metrics
    print(f"{label:10s} {m.r2:8.3f} {m.mae:10.1f} {m.mape:8.1f}")
