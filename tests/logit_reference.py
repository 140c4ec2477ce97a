"""Small-n reference for the logit generator's two formulas.

This is ``generators._logit`` as it was when it evaluated each formula on
its own elements only, through boolean masks: log1p(s) - log1p(-s), with
s = 2(x - 1/2), on [0.3, 0.65], and log(x/(1-x)) elsewhere.  The package
now evaluates both everywhere and picks with ``np.where``; the bits must be
the same.
"""

from __future__ import annotations

import numpy as np


def reference_logit(x):
    with np.errstate(all="ignore"):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        near_half = (x >= 0.3) & (x <= 0.65)
        s = 2.0 * (x[near_half] - 0.5)
        out[near_half] = np.log1p(s) - np.log1p(-s)
        far = x[~near_half]
        out[~near_half] = np.log(far / (1.0 - far))
        return out[()]
