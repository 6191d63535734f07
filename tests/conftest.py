"""Shared fixtures: a desk-scale four-party setup with hand-checkable counts."""

import math
import os

# One BLAS thread, set before numpy loads, as bench/run.py sets it: the suite
# runs numpy's matrix products as the benchmark does and starts no BLAS pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest

from qfnet.core import ChannelModel, Encoding, ProtocolParams, RunConfig, run_pairing
from qfnet.probmodel import four_party_asymmetric
from qfnet.stats import best_threshold

# Operating point used by the Monte Carlo tests and the statistical
# acceptance check: m = 1e5 pulses, dark counts put the Equal mean at
# m * 5e-5 = 5 while eta*mu = 75/(2*delta) drives the brightest Different
# detector to a mean count near 80.
DESK_SEED = 20250819


def desk_mu(delta: float = 0.22) -> float:
    return 75.0 / (2.0 * delta)


@pytest.fixture(scope="session")
def desk_setup():
    pp = ProtocolParams(n=500_000, c=0.2, delta=0.22, epsilon=1e-3, N=4)
    ch = ChannelModel(eta=(1.0, 1.0, 1.0, 1.0), dark_count=5e-5)
    alphas = (math.sqrt(desk_mu(pp.delta)),) * 4
    equal, different = four_party_asymmetric(1, alphas, ch, pp)
    thresholds = tuple(best_threshold(eq, df).threshold for eq, df in zip(equal, different))
    runs = tuple(
        RunConfig(
            alphas=alphas,
            pairing=run_pairing(i),
            thresholds=thresholds,
            encoding=Encoding.SINGLE_BIT,
        )
        for i in (1, 2, 3)
    )
    return pp, ch, runs
