"""The closed slope law at the slope argmin, the one route the slope-law
audits (acceptance item 10, test_criteria) read it by."""

import numpy as np

from chbreak import bounded_forcing, deriv


def slope_law_at_argmin(u, lam: float) -> tuple[float, float]:
    """(d/dt m, H) at the slope argmin of u under damping rate lam.

    With m = min u_x and B the bounded forcing there, the convective term
    drops and d/dt m = -m^2/2 - lam m + B. H = B + lam^2/2 is the forcing
    felt by the completed square m + lam, bounded by forcing_constant(E0) +
    delta^2/2 while the solution is smooth. Ties resolve to the smallest
    grid point.
    """
    ux = deriv(u)
    j = int(np.argmin(ux.values))
    m, b = float(ux.values[j]), float(bounded_forcing(u).values[j])
    return -0.5 * m * m - lam * m + b, b + 0.5 * lam * lam
