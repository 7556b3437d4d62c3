"""Calibrating label-correlated missingness.

The rate injectors sample a per-(series, attribute) missing rate from a
uniform interval shifted by E * c_v * (label - 1); the strength E controls
how strongly the rates correlate with the labels. This script sweeps E,
shows the correlation curve, and tunes E to hit specific targets.
"""
import numpy as np

from tck.data import Dataset
from tck.synth import (inject_rate_mar, inject_rate_mnar,
                       tune_informativeness)
from tck.synth import _label_rate_correlation

print(__doc__)

rng = np.random.default_rng(0)
n = 600
values = rng.normal(size=(n, 2, 12))
data = Dataset(values, np.ones_like(values, dtype=np.uint8),
               (np.arange(n) % 2 + 1).astype(np.int64), 2, np.arange(1, n + 1))

print("strength E -> mean |corr(rate, label)| (20 replicates):")
for strength in (0.0, 0.05, 0.1, 0.2, 0.3, 0.5):
    corr = _label_rate_correlation("rate_mar", data.labels, 2, strength,
                                   seed=1, replicates=20)
    bar = "#" * int(round(40 * corr))
    print(f"  E={strength:4.2f}  {corr:5.3f}  {bar}")

print("\ntuning E for the standard targets:")
for target in (0.2, 0.4, 0.6, 0.8):
    strength = tune_informativeness(data, "rate_mar", target, seed=2)
    out, info = inject_rate_mar(data, strength, seed=3)
    achieved = np.mean([abs(np.corrcoef(info.rates[:, v], data.labels)[0, 1])
                        for v in range(2)])
    print(f"  target {target}: E = {strength:.4f}, achieved |corr| = "
          f"{achieved:.3f}, overall missing = {info.missing_fraction:.3f}")

print("\nthe value-dependent variant only ever removes above-average cells:")
out, info = inject_rate_mnar(data, 0.05, seed=4)
dropped = (data.mask == 1) & (out.mask == 0)
means = data.values.mean(axis=(0, 2))
above = data.values[dropped] > means[np.nonzero(dropped)[1]]
print(f"  removed cells above their attribute mean: {above.all()} "
      f"(missing fraction {info.missing_fraction:.3f})")
