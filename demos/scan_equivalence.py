"""Show that the chunked scan reproduces the step-by-step recurrence.

The blocked form evaluates the same lower-triangular semiseparable product
with intra-chunk matmuls plus a carried state, so any chunk size must give
the same output as stepping one token at a time.
"""

import time

import numpy as np

from dema import tensor as T
from dema.ssd import DiscreteSSM, ssd_blocked, ssm_scan_reference

rng = np.random.default_rng(0)
N, L, Dh, Du = 4, 256, 16, 8

A_bar = rng.uniform(0.05, 0.95, (N, L, Dh))
d = DiscreteSSM(log_A_bar=T.Tensor(np.log(A_bar)),
                B_bar=T.Tensor(rng.standard_normal((N, L, Dh))))
C = T.Tensor(rng.standard_normal((N, L, Dh)))
x = T.Tensor(rng.standard_normal((N, L, Du)))

t0 = time.perf_counter()
ref = ssm_scan_reference(d, C, x)
t_ref = time.perf_counter() - t0

print(f"reference recurrence ({L} steps): {t_ref * 1000:.1f} ms")
for chunk in (1, 16, 64, 256):
    t0 = time.perf_counter()
    with T.no_grad():
        out = ssd_blocked(d, C, x, chunk).data
    dt = time.perf_counter() - t0
    diff = np.max(np.abs(out - ref))
    print(f"chunk {chunk:4d}: {dt * 1000:6.1f} ms, max diff {diff:.2e}")
