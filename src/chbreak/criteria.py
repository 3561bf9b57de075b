"""Energy-based wave-breaking criteria and their certified time bounds.

Everything here is determined by the initial state and the damping ceiling
delta >= sup lambda. The H^1 energy E0 controls the bounded part of the
slope dynamics through

    forcing_constant(E0) = (sqrt(2)/2) E0^(3/2) + (5/2) E0,

and a datum breaks in finite time whenever its slope somewhere beats the
threshold -delta - sqrt(delta^2 + 2 K). The two-sided variant asks the
slope to beat the local amplitude as well and pays for it with a sharper
localization of the breaking point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericsError
from .grid import Field, deriv, h1_norm_sq
from .riccati import omega_bound, two_sided_bound

if TYPE_CHECKING:
    from .model import InitialDatum


def forcing_constant(energy: float) -> float:
    """Ceiling K on the bounded slope forcing, from the H^1 energy."""
    if energy < 0.0:
        raise ValueError("energy must be nonnegative")
    return (math.sqrt(2.0) / 2.0) * energy ** 1.5 + 2.5 * energy


def slope_threshold(delta: float, forcing: float) -> float:
    """Breaking threshold -delta - sqrt(delta^2 + 2 forcing)."""
    return -delta - math.sqrt(delta * delta + 2.0 * forcing)


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of testing a datum against one breaking criterion."""

    kind: str                 # "slope_only" or "mixed"
    satisfied: bool
    delta: float
    energy: float
    forcing_bound: float      # K
    threshold: float
    point: float              # where the criterion was tested
    slope_at_point: float
    amp_at_point: float
    extreme: float            # slope, or slope + |u|, at the point
    margin: float             # (threshold - extreme)/|threshold|
    t_bound: float | None     # certified breaking-time bound when satisfied
    g0: float | None = None                      # mixed only
    location: tuple[float, float] | None = None  # mixed only
    speed_bound: float | None = None             # mixed only


@dataclass(frozen=True, kw_only=True)
class BreakingSearchResult(CriterionReport):
    """The report of the datum find_breaking_datum picked, tested on the line."""

    datum: InitialDatum


def _assess(kind: str, delta: float, energy: float, point: float, slope: float,
            amp: float) -> CriterionReport:
    """The one verdict: criterion kind at a point where u0' = slope, u0 = amp.

    The mixed criterion, when it holds, also certifies g0 = sqrt(slope^2 -
    amp^2), the transport speed ceiling sqrt(E0/2) and the interval that
    must contain the breaking location.
    """
    big_k = forcing_constant(energy)
    threshold = slope_threshold(delta, big_k)
    extreme = slope if kind == "slope_only" else slope + abs(amp)
    satisfied = extreme < threshold
    g0 = location = speed = None
    if kind == "slope_only":
        t_bound = omega_bound(delta, big_k, slope)
    elif not satisfied:
        t_bound = None
    else:
        spread = slope * slope - amp * amp
        if spread <= 0.0:
            # impossible when the condition truly holds; guards float noise
            raise NumericsError(f"two-sided condition held at x = {point:.6g} but the "
                                "slope does not dominate the amplitude there")
        g0 = math.sqrt(spread)
        t_bound = two_sided_bound(delta, big_k, g0)
        if t_bound is not None:
            speed = math.sqrt(energy / 2.0)
            location = (point - speed * t_bound, point + speed * t_bound)
    return CriterionReport(
        kind=kind, satisfied=satisfied, delta=delta, energy=energy,
        forcing_bound=big_k, threshold=threshold, point=point, slope_at_point=slope,
        amp_at_point=amp, extreme=extreme,
        # zero threshold only for the zero datum; any scale works there
        margin=(threshold - extreme) / max(abs(threshold), 1.0e-30),
        t_bound=t_bound, g0=g0, location=location, speed_bound=speed)


def check_criterion1(u0: Field, delta: float) -> CriterionReport:
    """Slope-only criterion at the grid argmin of the initial slope."""
    ux = deriv(u0)
    energy = h1_norm_sq(u0, ux)
    j = int(np.argmin(ux.values))
    return _assess("slope_only", delta, energy, float(u0.grid.x[j]),
                   float(ux.values[j]), float(u0.values[j]))


def check_criterion2(u0: Field, delta: float) -> CriterionReport:
    """Two-sided criterion: slope beats amplitude plus threshold at the grid
    node minimizing u0' + |u0|.

    When satisfied, the report carries the certified breaking-time bound,
    the transport speed ceiling sqrt(E0/2), and the interval that must
    contain the breaking location.
    """
    ux = deriv(u0)
    energy = h1_norm_sq(u0, ux)
    j = int(np.argmin(ux.values + np.abs(u0.values)))
    return _assess("mixed", delta, energy, float(u0.grid.x[j]),
                   float(ux.values[j]), float(u0.values[j]))
