"""Two-sample statistics used by the verification harness.

Both are coded here, not taken from scipy.stats: importing scipy.stats adds
0.65-0.84 s to `import sievesim.cli` (3 runs, 2-vCPU Xeon VM), about the
whole wall time of a fixed-level run at alpha = 0.8 with 10^4 replicas."""

from __future__ import annotations

import numpy as np

__all__ = ["ks_two_sample", "rank_correlation"]


def ks_two_sample(a, b) -> float:
    """Exact two-sample Kolmogorov-Smirnov distance.

    Sup distance between the two empirical CDFs evaluated by a merge scan
    over the pooled sample; ties are handled exactly.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("both samples must be finite")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def rank_correlation(a, b) -> float:
    """Spearman rank correlation (Pearson correlation of midranks)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size or a.size < 2:
        raise ValueError("samples must have equal size >= 2")

    def midranks(x):
        # tied values share the mean of the 1-based ranks they span
        _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
        first = np.cumsum(counts) - counts
        return (first + (counts - 1) / 2 + 1)[inverse]

    ra, rb = midranks(a), midranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra ** 2).sum() * (rb ** 2).sum())
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)
