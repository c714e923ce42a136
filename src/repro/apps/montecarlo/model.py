"""Monte-Carlo kernels: the scientific workload of section 2.

The paper motivates coordination languages with "the majority of
scientific applications, from Monte-Carlo simulations [28], to protein
folding" — vectorizable sub-computations embedded in a parallel frame.
Two classic estimators, both NumPy-vectorized:

* **dartboard π** — fraction of uniform points inside the unit circle;
* **European call option** — mean discounted payoff of a geometric
  Brownian motion (Black-Scholes world), whose closed form provides an
  independent accuracy oracle.

Parallel determinism is the interesting part: each batch derives its
random stream from ``(seed, batch_index)`` — a counter-based scheme — so
the estimate is bit-identical no matter how batches are scheduled, which
processor runs them, or how the reduction tree is shaped (the prelude's
``par_reduce`` associates by index range, never by completion order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """The per-batch stream: independent of scheduling by construction."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))
    )


# ---------------------------------------------------------------------------
# Dartboard pi
# ---------------------------------------------------------------------------

def pi_batch(seed: int, batch_index: int, batch_size: int) -> tuple[int, int]:
    """(hits inside the quarter circle, samples) for one batch."""
    rng = batch_rng(seed, batch_index)
    xy = rng.random((batch_size, 2))
    x, y = xy[:, 0], xy[:, 1]
    return int(np.count_nonzero(x * x + y * y <= 1.0)), batch_size


def pi_estimate(hits: int, samples: int) -> float:
    return 4.0 * hits / samples if samples else 0.0


# ---------------------------------------------------------------------------
# European call option (geometric Brownian motion)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptionSpec:
    """Black-Scholes parameters for a European call."""

    spot: float = 100.0
    strike: float = 105.0
    rate: float = 0.03
    volatility: float = 0.2
    maturity: float = 1.0

    def closed_form(self) -> float:
        """Black-Scholes price — the accuracy oracle."""
        s, k, r, v, t = (
            self.spot,
            self.strike,
            self.rate,
            self.volatility,
            self.maturity,
        )
        d1 = (math.log(s / k) + (r + v * v / 2) * t) / (v * math.sqrt(t))
        d2 = d1 - v * math.sqrt(t)
        phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2)))  # noqa: E731
        return s * phi(d1) - k * math.exp(-r * t) * phi(d2)


def option_batch(
    spec: OptionSpec, seed: int, batch_index: int, batch_size: int
) -> tuple[float, int]:
    """(sum of discounted payoffs, samples) for one batch."""
    rng = batch_rng(seed, batch_index)
    z = rng.standard_normal(batch_size)
    drift = (spec.rate - 0.5 * spec.volatility**2) * spec.maturity
    diffusion = spec.volatility * math.sqrt(spec.maturity) * z
    terminal = spec.spot * np.exp(drift + diffusion)
    payoff = np.maximum(terminal - spec.strike, 0.0)
    discounted = math.exp(-spec.rate * spec.maturity) * payoff
    return float(discounted.sum()), batch_size


# ---------------------------------------------------------------------------
# Sequential oracles
# ---------------------------------------------------------------------------


def _balanced_reduce(leaf, lo: int, hi: int):
    """Combine (sum, count) pairs over a balanced tree on [lo, hi).

    This mirrors the prelude's ``par_reduce`` association exactly, so the
    oracles are *bit-identical* to the Delirium programs.  A left-to-right
    fold would differ in the last float bits — both are deterministic, but
    determinism is per-association-tree, and the coordination framework
    fixes the tree by index range.
    """
    if hi - lo == 1:
        return leaf(lo)
    mid = (lo + hi) // 2
    a = _balanced_reduce(leaf, lo, mid)
    b = _balanced_reduce(leaf, mid, hi)
    return (a[0] + b[0], a[1] + b[1])


def pi_sequential(seed: int, n_batches: int, batch_size: int) -> float:
    hits, samples = _balanced_reduce(
        lambda b: pi_batch(seed, b, batch_size), 0, n_batches
    )
    return pi_estimate(hits, samples)


def option_sequential(
    spec: OptionSpec, seed: int, n_batches: int, batch_size: int
) -> float:
    total, samples = _balanced_reduce(
        lambda b: option_batch(spec, seed, b, batch_size), 0, n_batches
    )
    return total / samples
