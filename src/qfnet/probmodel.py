"""Closed-form per-pulse click probabilities.

Every detector's click probability is a weighted mixture of terms

    P = sum_i w_i * [nu*(1 - exp(-I_i)) + (1 - nu)*(1 - exp(-Ic_i))] + P_dark

where the weights w_i are position fractions of the worst-case codeword
patterns, I_i is the mean photon number the pattern sends to the detector,
and Ic_i is what the pattern sends to the detector's complement port (the
other output of its final splitter) — which is where a fraction (1 - nu) of
the light effectively goes when the interference visibility nu is below one.
Each model lists its detectors' (w_i, I_i, Ic_i) terms (_two_party_terms and
_four_party_terms, from attenuated amplitudes), _mix sums them with the
channel's visibility and dark count into click probabilities, and _profile
wraps those in count laws, core.CountModel(pulses, P): the models return
one per detector, and stats reads them as they are.  The optimizer's search
reads the terms and _mix directly.

This module never touches the transfer matrix: intensities come from the
pattern fractions and algebraic port sums, so it forms an independent route
against the enumeration oracle in the optics module.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import (
    _SINGLE_BIT,
    ChannelModel,
    CountModel,
    DomainError,
    Encoding,
    ProtocolParams,
    Relationship,
    check_network,
    relationship_profile,
    run_pairing,
)

__all__ = [
    "four_party_symmetric",
    "two_party_asymmetric",
    "four_party_asymmetric",
]


# One mixture term of a detector: (weight, direct intensity, complement intensity).
_Term = tuple[float, float, float]
_Terms = tuple[list[list[_Term]], list[list[_Term]]]  # each detector's, Equal and Different


def _mix(detectors: Sequence[Sequence[_Term]], channel: ChannelModel) -> list[float]:
    """Each detector's click probability per pulse: its terms plus the dark count."""
    nu = channel.visibility
    probs = []
    for terms in detectors:
        p = 0.0
        for w, i, ic in terms:
            p += w * (nu * -math.expm1(-i) + (1.0 - nu) * -math.expm1(-ic))
        probs.append(min(1.0, max(0.0, p + channel.dark_count)))
    return probs


def _profile(
    detectors: Sequence[Sequence[_Term]], channel: ChannelModel, pulses: int
) -> tuple[CountModel, ...]:
    """Each detector's count law."""
    return tuple([CountModel(pulses, p) for p in _mix(detectors, channel)])


def four_party_symmetric(
    rel: Relationship,
    mu: float,
    channel: ChannelModel,
    protocol: ProtocolParams,
    pairing: Sequence[int] | None = None,
) -> tuple[CountModel, ...]:
    """All four detectors' count laws for one relationship, equal channels.

    Every sender uses mean photon number mu over m pulses through identical
    transmission eta.  Per position class the detectors see (in units of
    e1 = eta*mu/m):

        detector 1: 4*e1 when all ports agree, e1 when exactly one disagrees,
                    0 on a 2-2 split (complement: the mirror of detector 3)
        detector 2: 2*e1 when ports 1,2 differ, else 0 (complement mirrored)
        detector 3: mirror of detector 1 (pair-split bright, all-agree dark)
        detector 4: like detector 2 for ports 3,4
    """
    check_network(4, protocol.N, channel.n_senders)
    if not channel.symmetric():
        raise DomainError("channel transmissions differ: use four_party_asymmetric")
    if not (mu >= 0.0 and math.isfinite(mu)):
        raise DomainError(f"mu must be finite and >= 0, got {mu!r}")
    if pairing is None:
        pairing = run_pairing(1, 4)
    fr = relationship_profile(rel, pairing, protocol.delta)
    e1 = channel.eta[0] * mu / protocol.m
    # 2-2 splits that are not along the (1,2)(3,4) pair boundary send nothing
    # to detectors 1 and 3 or their complements.
    w_cross = max(0.0, fr.d_total - fr.d_single - fr.d_pairs)
    w_agree = max(0.0, 1.0 - fr.d_total)
    d1 = [
        (w_agree, 4 * e1, 0.0),
        (fr.d_single, e1, e1),
        (fr.d_pairs, 0.0, 4 * e1),
        (w_cross, 0.0, 0.0),
    ]
    d2 = [(fr.d12, 2 * e1, 0.0), (1.0 - fr.d12, 0.0, 2 * e1)]
    d3 = [
        (w_agree, 0.0, 4 * e1),
        (fr.d_single, e1, e1),
        (fr.d_pairs, 4 * e1, 0.0),
        (w_cross, 0.0, 0.0),
    ]
    d4 = [(fr.d34, 2 * e1, 0.0), (1.0 - fr.d34, 0.0, 2 * e1)]
    return _profile([d1, d2, d3, d4], channel, protocol.m)


def _attenuated(
    alphas: Sequence[float], channel: ChannelModel, order: Sequence[int]
) -> list[float]:
    """Attenuated amplitudes sqrt(eta_s)*alpha_s of the senders in port order."""
    if len(alphas) != channel.n_senders:
        raise DomainError(f"need {channel.n_senders} amplitudes, got {len(alphas)}")
    for a in alphas:
        if not 0.0 <= float(a) < math.inf:  # False for NaN
            raise DomainError(f"amplitudes must be finite and >= 0, got {a!r}")
    sqrt_eta = channel.sqrt_eta
    return [sqrt_eta[s - 1] * float(alphas[s - 1]) for s in order]


def _pair_terms(
    ba: float, bb: float, delta: float, m: int
) -> tuple[list[_Term], list[_Term]]:
    """Equal/Different terms of a difference port fed by two senders.

    Equal sees (ba - bb)**2/(2m) with complement (ba + bb)**2/(2m); Different
    swaps the two on a fraction delta of positions.
    """
    i_diff = (ba - bb) ** 2 / (2 * m)
    i_sum = (ba + bb) ** 2 / (2 * m)
    return [(1.0, i_diff, i_sum)], [(delta, i_sum, i_diff), (1.0 - delta, i_diff, i_sum)]


def two_party_asymmetric(
    alphas: Sequence[float],
    channel: ChannelModel,
    protocol: ProtocolParams,
    encoding: Encoding = Encoding.SINGLE_BIT,
) -> tuple[tuple[CountModel, ...], tuple[CountModel, ...]]:
    """Two-party Equal/Different count laws of the one observed detector.

    With attenuated amplitudes beta_k = sqrt(eta_k)*alpha_k the difference
    port sees per-pulse intensity (b1 - b2)**2 / (2m) on agreeing positions
    and (b1 + b2)**2 / (2m) on disagreeing ones.  The two-bit encoding packs
    bit pairs into quarter phases over m/2 pulses: agreeing pairs keep the
    difference intensity (b1 - b2)**2 / m, fully flipped pairs the sum
    intensity, and half-flipped pairs (relative phase +-i) land on the
    self-complementary cross intensity (b1**2 + b2**2) / m.
    """
    check_network(2, protocol.N, channel.n_senders)
    b1, b2 = _attenuated(alphas, channel, (1, 2))
    eq, diff = _two_party_terms(b1, b2, protocol.delta, protocol.m, encoding)
    pulses = encoding.pulses(protocol.m)
    return _profile(eq, channel, pulses), _profile(diff, channel, pulses)


def _two_party_terms(b1: float, b2: float, delta: float, m: int, encoding: Encoding) -> _Terms:
    if encoding is _SINGLE_BIT:
        eq, diff = _pair_terms(b1, b2, delta, m)
    else:
        i_diff = (b1 - b2) ** 2 / m
        i_sum = (b1 + b2) ** 2 / m
        i_cross = (b1**2 + b2**2) / m
        eq = [(1.0, i_diff, i_sum)]
        diff = [
            ((1.0 - delta) ** 2, i_diff, i_sum),
            (2.0 * delta * (1.0 - delta), i_cross, i_cross),
            (delta**2, i_sum, i_diff),
        ]
    return [eq], [diff]


def four_party_asymmetric(
    run_index: int,
    alphas: Sequence[float],
    channel: ChannelModel,
    protocol: ProtocolParams,
) -> tuple[tuple[CountModel, ...], tuple[CountModel, ...]]:
    """Equal/Different count laws of one run with per-sender amplitudes.

    alphas[s - 1] is sender s's amplitude.  Ports hold senders (i,j,k,l) =
    run_pairing(run_index); with b_x = sqrt(eta_x)*alpha_x the observed
    detectors see

        detector 2:  Equal (b_i - b_j)**2/(2m);  Different mixes the flipped
                     pair (b_i + b_j)**2/(2m) with weight delta
        detector 4:  same for (b_k, b_l)
        detector 3:  Equal (b_i + b_j - b_k - b_l)**2/(4m); Different flips
                     the single sender that leaves the smallest magnitude
                     |±b_i ± b_j - b_k - b_l| (the adversary's best choice),
                     with weight delta

    Complement intensities flip the sign of the second operand (detector 2:
    the port-j field; detector 3: the right-pair sum; detector 4: the port-l
    field).  With equal amplitudes and transmissions the Equal laws are
    four_party_symmetric's AAAA laws at the observed detectors, and each
    detector's Different law its law under a single-sender split that the
    detector sees.
    """
    check_network(4, protocol.N, channel.n_senders)
    fields = _attenuated(alphas, channel, run_pairing(run_index, 4))
    eq, diff = _four_party_terms(*fields, protocol.delta, protocol.m)
    return _profile(eq, channel, protocol.m), _profile(diff, channel, protocol.m)


def _four_party_terms(bi: float, bj: float, bk: float, bl: float, delta: float, m: int) -> _Terms:
    eq2, df2 = _pair_terms(bi, bj, delta, m)
    eq4, df4 = _pair_terms(bk, bl, delta, m)

    i_eq3 = (bi + bj - bk - bl) ** 2 / (4 * m)
    i_eq3c = (bi + bj + bk + bl) ** 2 / (4 * m)
    # Single-sender flips change one sign in (b_i + b_j) - (b_k + b_l); the
    # worst case (hardest to distinguish from Equal) minimizes the magnitude.
    flips = [
        ((-bi + bj) - (bk + bl), (-bi + bj) + (bk + bl)),
        ((bi - bj) - (bk + bl), (bi - bj) + (bk + bl)),
        ((bi + bj) - (-bk + bl), (bi + bj) + (-bk + bl)),
        ((bi + bj) - (bk - bl), (bi + bj) + (bk - bl)),
    ]
    x, xc = min(flips, key=lambda f: abs(f[0]))
    eq3 = [(1.0, i_eq3, i_eq3c)]
    df3 = [(delta, x**2 / (4 * m), xc**2 / (4 * m)), (1.0 - delta, i_eq3, i_eq3c)]
    return [eq2, eq3, eq4], [df2, df3, df4]
