"""Linear optics of the balanced beam-splitter tree.

The network interfering N = 2**s coherent pulses is a binary tree of 50/50
splitters.  Each splitter takes the running *sum* fields of its two subtrees;
its difference output is tapped straight onto a detector while the sum output
feeds the next level, and the root's sum output gets the last detector.  Only
sums propagate, so for N >= 4 the detector rows are *not* the rows of the
full Sylvester-Hadamard transform: e.g. for N = 4 they are

    D1 = (1,  1,  1,  1)/2        root sum
    D2 = (1, -1,  0,  0)/sqrt(2)  left-pair difference tap
    D3 = (1,  1, -1, -1)/2        root difference
    D4 = (0,  0,  1, -1)/sqrt(2)  right-pair difference tap

The row set is still orthonormal, so total intensity is conserved.  Every
row is (x +- y)/sqrt(2) over a block of ports, x and y being the sums of the
block's two halves.  Its *complement*, the other output of the final splitter
feeding that detector, is (x -+ y)/sqrt(2): the same row with the second half
of its support negated.  With interference visibility nu < 1 a fraction
(1 - nu) of the light behaves as if it exited that complement port instead.

region_click_matrix is the one implementation of the per-pulse click model:
it propagates each worst-case pattern region's joint phases through these
rows and returns the region weights with a (region, detector) matrix of click
probabilities.  oracle_click_profile mixes its rows by weight into one count
law (core.CountModel) per detector; the Monte Carlo draws each region's counts
from it.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ChannelModel,
    CountModel,
    DomainError,
    Encoding,
    ProtocolParams,
    Relationship,
    RunConfig,
    check_network,
    worst_case_regions,
)

__all__ = [
    "transfer_rows",
    "complement_rows",
    "region_click_matrix",
    "oracle_click_profile",
]


def _check_ports(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise DomainError(f"port count must be a power of two >= 2, got {n}")


def transfer_rows(n: int) -> np.ndarray:
    """Detector amplitude rows of the n-port splitter tree (orthonormal, n x n).

    Row ordering: [root sum, left subtree taps..., root difference, right
    subtree taps...], which for n = 4 gives the D1..D4 order above.
    """
    _check_ports(n)
    if n == 2:
        return np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    half = transfer_rows(n // 2)
    sub_sum = half[0]
    zeros = np.zeros(n // 2)
    rows = [np.concatenate([sub_sum, sub_sum]) / math.sqrt(2.0)]
    rows += [np.concatenate([r, zeros]) for r in half[1:]]
    rows.append(np.concatenate([sub_sum, -sub_sum]) / math.sqrt(2.0))
    rows += [np.concatenate([zeros, r]) for r in half[1:]]
    return np.array(rows)


def complement_rows(n: int) -> np.ndarray:
    """Complement-port amplitude rows, aligned with transfer_rows(n).

    Each detector's final splitter has two outputs; the complement row is the
    one the detector does *not* sit on: the transfer row with the second half
    of its support negated.  For n = 4: comp(D1) = D3's row, comp(D3) = D1's
    row, comp(D2) = (1,1,0,0)/sqrt(2), comp(D4) = (0,0,1,1)/sqrt(2).
    """
    rows = transfer_rows(n)
    support = rows != 0.0
    rank = support.cumsum(axis=1)  # position within the row's support, from 1
    rows[support & (rank > rank[:, -1:] // 2)] *= -1.0
    return rows


def region_click_matrix(
    rel: Relationship,
    run: RunConfig,
    channel: ChannelModel,
    protocol: ProtocolParams,
) -> tuple[tuple[float, ...], np.ndarray]:
    """Worst-case pattern regions and their per-pulse click probabilities.

    Returns (weights, P): weights[r] is region r's fraction of the pulse
    positions, and P[r, d] = nu*(1 - exp(-I)) + (1 - nu)*(1 - exp(-I_c)) is
    detector d's click probability on a region-r pulse, where I and I_c are
    the intensities of transfer_rows/complement_rows applied to that region's
    joint phase pattern.  Dark counts and clipping to [0, 1] are left to the
    caller: the oracle adds them after mixing the regions, the Monte Carlo
    per region.
    """
    n = rel.n
    check_network(n, run.n_senders, channel.n_senders, protocol.N, encoding=run.encoding)
    delta = protocol.delta
    if run.encoding is Encoding.SINGLE_BIT:
        regions = worst_case_regions(rel, delta)
        weights = tuple(r.weight for r in regions)
        phases = [tuple(1.0 - 2.0 * b + 0.0j for b in r.bits) for r in regions]
    elif rel.all_equal:
        weights, phases = (1.0,), [(1.0 + 0j, 1.0 + 0j)]
    else:
        # Two-bit encoding: pairs of codeword bits map onto quarter phases, so
        # a sender whose codeword differs on a fraction delta of *bits*
        # differs on one bit of a pair with probability 2*delta*(1-delta)
        # (relative phase +-i) and on both with probability delta**2
        # (relative phase -1).
        weights = ((1.0 - delta) ** 2, delta * (1.0 - delta), delta * (1.0 - delta), delta**2)
        phases = [(1.0 + 0j, p) for p in (1.0 + 0j, 1j, -1j, -1.0 + 0j)]
    pulses = run.encoding.pulses(protocol.m)
    sqrt_eta = channel.sqrt_eta
    amps = np.array(
        [sqrt_eta[s - 1] * run.alphas[s - 1] / math.sqrt(pulses) for s in run.pairing]
    )
    rows = transfer_rows(n)
    crows = complement_rows(n)
    nu = channel.visibility
    out = np.empty((len(phases), n))
    for r, sender_phases in enumerate(phases):
        fields = np.array([sender_phases[s - 1] for s in run.pairing]) * amps
        inten = np.abs(rows @ fields) ** 2
        inten_c = np.abs(crows @ fields) ** 2
        out[r] = nu * -np.expm1(-inten) + (1.0 - nu) * -np.expm1(-inten_c)
    return weights, out


def oracle_click_profile(
    rel: Relationship,
    run: RunConfig,
    channel: ChannelModel,
    protocol: ProtocolParams,
) -> tuple[CountModel, ...]:
    """Every detector's count law by direct enumeration through the tree.

    Mixes region_click_matrix's rows by region weight, then adds dark counts
    and clips.  Independent of the closed-form route, which never touches the
    transfer matrix — the two are compared in tests.
    """
    weights, probs = region_click_matrix(rel, run, channel, protocol)
    probs = np.clip(np.array(weights) @ probs + channel.dark_count, 0.0, 1.0)
    pulses = run.encoding.pulses(protocol.m)
    return tuple(CountModel(pulses, float(p)) for p in probs)
