"""Measure forward-pass runtime and peak memory as the window grows.

Both paths run on prefix accumulators, so cost should grow roughly
linearly with the lookback length: each doubling of T should roughly
double time and memory rather than quadruple them.
"""

from dema.model import ModelConfig
from dema.pipeline import TrainConfig, bench_scaling

cfg = TrainConfig(n_variates=7,
                  model=ModelConfig(d_model=64, n_blocks=2, seed=0))
lengths = [192, 384, 768, 1536]
rows = bench_scaling(lengths, cfg, repeats=3)

print(f"{'T':>6} {'ms':>10} {'MiB':>8} {'time x':>7} {'mem x':>7}")
prev = None
for row in rows:
    tx = f"{row['ms'] / prev['ms']:.2f}" if prev else "-"
    mx = f"{row['bytes'] / prev['bytes']:.2f}" if prev else "-"
    print(f"{row['T']:>6} {row['ms']:>10.1f} "
          f"{row['bytes'] / 2**20:>8.1f} {tx:>7} {mx:>7}")
    prev = row
print("\nlinear scaling would show ratios near 2.0 per doubling")
