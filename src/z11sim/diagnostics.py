"""Randomized invariant suite: multiplier identities and the cone-mass
study for compactly supported bumps. All randomness is drawn from one
seeded generator so a diagnostics run is reproducible bit for bit."""

from __future__ import annotations

import numpy as np

from .evolution import gaussian_bump
from .spectral import (
    Grid,
    RealField,
    _real_fft,
    apply_z11,
    apply_z22,
    cone_mass_ratio,
    inner,
    l2_norm,
    quadratic_form,
)

__all__ = ["run_diagnostics"]

# The cone-mass study: random bumps per run, and the k of its frequency
# cone 1/k < lam1/lam2 < k.
_CONE_TRIALS = 100
_CONE_K = 2.0


def multiplier_identity_report(grid: Grid, rng: np.random.Generator) -> dict:
    """Max errors of the defining multiplier identities on one grid.

    Pure waves in x1 pass through unchanged, pure waves in x2 are
    annihilated, and the two companion multipliers sum to the identity on
    mean-zero fields. Also checks the transform round trip, the Parseval
    identity, and agreement of the quadratic form with the inner product
    against the applied operator.
    """
    x1, x2 = grid.coords()
    freq = 2.0 * np.pi / grid.box_length
    wave1 = RealField(grid, np.cos(3.0 * freq * x1) + np.sin(freq * x1))
    wave2 = RealField(grid, np.cos(2.0 * freq * x2) + np.sin(5.0 * freq * x2))

    random_values = rng.standard_normal((grid.n, grid.n))
    random_values -= random_values.mean()
    mean_zero = RealField(grid, random_values)

    z11_plus_z22 = apply_z11(mean_zero).values + apply_z22(mean_zero).values
    roundtrip = _real_fft(mean_zero.values, np.ones((grid.n, grid.n)))

    parseval_lhs = l2_norm(mean_zero) ** 2
    parseval_rhs = grid.box_length**2 * float(np.sum(_real_fft(mean_zero.values)))
    qf = quadratic_form(mean_zero)
    qf_direct = inner(apply_z11(mean_zero), mean_zero)

    return {
        "x1_wave_identity_error": float(
            np.max(np.abs(apply_z11(wave1).values - wave1.values))
        ),
        "x2_wave_annihilation_error": float(np.max(np.abs(apply_z11(wave2).values))),
        "completeness_error": float(np.max(np.abs(z11_plus_z22 - mean_zero.values))),
        "roundtrip_error": float(np.max(np.abs(roundtrip - mean_zero.values))),
        "parseval_relative_error": abs(parseval_lhs - parseval_rhs) / parseval_lhs,
        "quadratic_form_relative_error": abs(qf - qf_direct) / abs(qf),
    }


def cone_mass_study(grid: Grid, rng: np.random.Generator) -> list[dict]:
    """Cone-mass ratios at k = _CONE_K for _CONE_TRIALS random compactly
    supported bumps.

    Bumps are truncated Gaussians with random center and width, all
    supported inside the disk of radius box_length/8 about the origin.
    Returns one record per trial; ratios are expected strictly positive
    but no fixed lower constant is asserted.
    """
    support_radius = grid.box_length / 8.0
    records = []
    for trial in range(_CONE_TRIALS):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        distance = support_radius * 0.5 * np.sqrt(rng.uniform())
        center = (distance * np.cos(angle), distance * np.sin(angle))
        width = support_radius * rng.uniform(0.05, 0.3)
        cutoff = support_radius - distance
        bump = gaussian_bump(grid, center=center, width=width,
                             amplitude=rng.uniform(0.5, 2.0), cutoff=cutoff)
        records.append({
            "trial": trial,
            "center_x": float(center[0]),
            "center_y": float(center[1]),
            "width": float(width),
            "ratio": cone_mass_ratio(bump, _CONE_K),
        })
    return records


def run_diagnostics(grid: Grid, seed: int) -> dict:
    """Run the full suite and collect a serializable summary."""
    # numpy loads numpy.random on this first use; no other command needs it
    rng = np.random.default_rng(seed)
    identities = multiplier_identity_report(grid, rng)
    cone = cone_mass_study(grid, rng)
    ratios = np.array([record["ratio"] for record in cone])
    summary = {
        "grid_n": grid.n,
        "box_length": grid.box_length,
        "seed": seed,
        "multiplier_identities": identities,
        "cone_mass": {
            "k": _CONE_K,
            "trials": _CONE_TRIALS,
            "min": float(ratios.min()),
            "max": float(ratios.max()),
            "mean": float(ratios.mean()),
            "quartiles": [float(q) for q in np.percentile(ratios, [25, 50, 75])],
            "all_positive": bool(np.all(ratios > 0.0)),
        },
    }
    return {"summary": summary, "cone_trials": cone}
