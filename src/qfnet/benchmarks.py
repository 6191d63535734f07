"""Bundled benchmark instances: published operating points to audit against.

Each instance carries the full protocol/channel configuration, the published
per-run amplitudes and thresholds, and the published summary quantities
(total qubit cost, classical bounds).  The reproduce command audits these
rows with evaluate_fixed and runs the optimizer on the same instance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .core import ChannelModel, Encoding, ProtocolParams, RunConfig, run_pairing

__all__ = ["Benchmark", "BENCHMARKS"]


@dataclass(frozen=True)
class Benchmark:
    """One published operating point plus its reported summary values."""

    table_id: str
    description: str
    pp: ProtocolParams
    ch: ChannelModel
    encoding: Encoding
    runs: tuple[RunConfig, ...]
    reported: dict[str, float]


def _bench(table_id: str, description: str, n: int, epsilon: float, ch: ChannelModel,
           encoding: Encoding, rows: Sequence[tuple[Sequence[float], Sequence[int]]],
           reported: dict[str, float]) -> Benchmark:
    """One instance; ``rows`` holds (alphas, thresholds) of each scheduled run."""
    pp = ProtocolParams(n=n, c=0.2, delta=0.22, epsilon=epsilon, N=ch.n_senders)
    runs = tuple(
        RunConfig(alphas, run_pairing(s, pp.N), ths, encoding)
        for s, (alphas, ths) in enumerate(rows, start=1)
    )
    return Benchmark(table_id, description, pp, ch, encoding, runs, reported)


def _two_party(table_id, description, encoding, alphas, threshold, q_r, visibility=1.0):
    # the two-party rows share n, epsilon, the channel and the classical bounds
    ch = ChannelModel.from_sqrt_eta((0.3, 0.4), dark_count=1e-10, visibility=visibility)
    return _bench(table_id, description, 3 * 10**12, 1e-5, ch, encoding, [(alphas, (threshold,))],
                  {"q_r": q_r, "c_o_ae": 1.24e10, "c_l_ae": 1.46e6})


def _build_all() -> dict[str, Benchmark]:
    # The published rows all use c = 0.2; silence the (intentional) c <= 1
    # warning for the bundled data, it still fires for user configs.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        bundled = [
            _bench("T3", "four-party symmetric channels", 10**13, 1e-2,
                   ChannelModel(eta=(0.1, 0.1, 0.1, 0.1), dark_count=1e-11), Encoding.SINGLE_BIT,
                   # published per-sender photon number mu = 4961 in every run
                   [((math.sqrt(4961.0),) * 4, (602, 553, 602))] * 3,
                   {"q_r": 2.57e6, "c_o_ae": 1.29e10, "c_l_ae": 3.04e6}),
            _two_party("T4", "two-party asymmetric channels", Encoding.SINGLE_BIT,
                       (85.0, 78.0), 1685, 5.52e5),
            _two_party("T_twobit", "two-party, two bits per pulse", Encoding.TWO_BIT,
                       (69.0, 70.0), 898, 3.91e5),
            _bench("T_asym4", "four-party asymmetric channels", 10**14, 1e-5,
                   ChannelModel.from_sqrt_eta((0.3, 0.4, 0.5, 0.6), dark_count=1e-11),
                   Encoding.SINGLE_BIT,
                   [((109.0, 109.0, 69.0, 69.0), (5367, 5700, 5332)),
                    ((97.0, 77.0, 99.0, 78.0), (5519, 5600, 5439)),
                    ((90.0, 84.0, 85.0, 91.0), (5699, 5600, 5347))],
                   {"q_r": 4.43e6, "q_r_first_run": 1.55e6, "c_o_ae": 1.01e11, "c_l_ae": 1.19e7}),
            _two_party("T_vis", "two-party with 0.99 interference visibility", Encoding.SINGLE_BIT,
                       (88.0, 77.0), 1695, 5.67e5, visibility=0.99),
        ]
    return {bench.table_id: bench for bench in bundled}


BENCHMARKS: dict[str, Benchmark] = _build_all()
