"""Closed-form attacker utilities — the paper's proofs, transcribed.

Each function returns the analytic value of sup_A u_A(Π, A) (or the per-t
best) that the corresponding theorem/lemma establishes; the registry
claims (``repro.verify``) check the Monte-Carlo measurements against these.
"""

from __future__ import annotations

from ..core.payoff import PayoffVector


def u_naive_contract(gamma: PayoffVector) -> float:
    """Π1 (introduction): a corrupted p2 always collects γ10."""
    gamma.require_fair()
    return gamma.gamma10


def u_coin_contract(gamma: PayoffVector) -> float:
    """Π2 (introduction): the coin halves the unfair branch.

    The attacker's options: play out the coin and lock-watch —
    (γ10 + max(γ00, γ11))/2, since when the coin favours the honest party
    the attacker picks the better of completing (γ11) or refusing to open
    (γ00) — or abort the coin toss outright (γ00), or stay passive (γ11).
    """
    gamma.require_fair()
    return max(
        (gamma.gamma10 + max(gamma.gamma00, gamma.gamma11)) / 2.0,
        gamma.gamma00,
        gamma.gamma11,
    )


def u_opt_2sfe(gamma: PayoffVector) -> float:
    """Theorems 3 and 4: (γ10 + γ11)/2, tight for fswp."""
    gamma.require_fair()
    return (gamma.gamma10 + gamma.gamma11) / 2.0


def u_single_round(gamma: PayoffVector) -> float:
    """Lemma 10: one reconstruction round concedes γ10 outright."""
    gamma.require_fair()
    return gamma.gamma10


def u_dummy(gamma: PayoffVector, t: int, n: int) -> float:
    """ΦFsfe: γ01 for t = 0; otherwise max(γ00, γ11) (γ11 under Γ+fair)."""
    gamma.require_fair()
    if t == 0:
        return gamma.gamma01
    return max(gamma.gamma00, gamma.gamma11)


def u_opt_nsfe(gamma: PayoffVector, n: int, t: int) -> float:
    """Lemma 11/13: (t·γ10 + (n−t)·γ11)/n for a best t-adversary."""
    gamma.require_fair_plus()
    if not 1 <= t <= n - 1:
        raise ValueError(f"t must be in [1, n-1], got t={t}")
    return (t * gamma.gamma10 + (n - t) * gamma.gamma11) / n


def u_threshold_gmw(gamma: PayoffVector, n: int, t: int) -> float:
    """Lemma 17's profile for Π½GMW: γ10 once t ≥ ⌈n/2⌉, γ11 below."""
    gamma.require_fair_plus()
    if not 1 <= t <= n - 1:
        raise ValueError(f"t must be in [1, n-1], got t={t}")
    if t >= (n + 1) // 2:
        return gamma.gamma10
    return gamma.gamma11


def u_unbalanced_opt(gamma: PayoffVector, n: int, t: int) -> float:
    """Lemma 18's profile for the optimal-but-unbalanced protocol.

    A t-adversary with t ≤ n−2 baits the tails-branch: aborting when it
    holds the output (probability t/n) and deviating otherwise, where the
    coin gives γ10 or γ11 evenly.  The (n−1)-adversary gains nothing by
    deviating (the only honest party is the holder and keeps its output),
    so it matches the ΠOptnSFE profile.
    """
    gamma.require_fair_plus()
    if not 1 <= t <= n - 1:
        raise ValueError(f"t must be in [1, n-1], got t={t}")
    if t == n - 1:
        return u_opt_nsfe(gamma, n, t)
    deviate = (
        t * gamma.gamma10 + (n - t) * (gamma.gamma10 + gamma.gamma11) / 2.0
    ) / n
    return max(deviate, u_opt_nsfe(gamma, n, t))


def threshold_gmw_balance_sum(gamma: PayoffVector, n: int) -> float:
    """Σ_t u(Π½GMW, A_t): the Lemma-17 sum.

    Exceeds the balanced optimum by (γ10 − γ11)/2 for even n and meets it
    exactly for odd n.
    """
    return sum(u_threshold_gmw(gamma, n, t) for t in range(1, n))


def threshold_gmw_overshoot(gamma: PayoffVector, n: int) -> float:
    """The exact even-n excess of the Lemma-17 sum over the balanced bound.

    The paper's display writes the looser "+(γ10 − γ11)", but its own
    per-t counting — (n/2)·γ10 + (n/2 − 1)·γ11 against the optimum
    (n−1)(γ10+γ11)/2 — gives exactly (γ10 − γ11)/2 for even n and 0 for
    odd n.  This corrected constant is what the measurements reproduce
    (EXPERIMENTS.md E7, "Known deviations" item 4).
    """
    gamma.require_fair_plus()
    if n < 2:
        raise ValueError("need at least two parties")
    if n % 2:
        return 0.0
    return (gamma.gamma10 - gamma.gamma11) / 2.0


def opt_nsfe_corruption_cost(gamma: PayoffVector, n: int, t: int) -> float:
    """Theorem 6 / Lemma 22: the derived cost c(t) = φ(t) − s(t) for
    ΠOptnSFE, where φ(t) is the Lemma-11 per-t profile and s(t) = γ11 is
    the best t-adversary's payoff against the fully fair dummy."""
    return u_opt_nsfe(gamma, n, t) - gamma.gamma11


def gk_round_count(p: int, size: int, variant: str = "domain") -> int:
    """Theorems 23/24 round counts with our truncation margin of 20.

    The domain variant reveals for 20·p·|Y| rounds, the range variant for
    20·p²·|Z| rounds — the shapes O(p·|Y|) / O(p²·|Z|) of the paper, with
    the e⁻²⁰ truncation constant made explicit (EXPERIMENTS.md E10).
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if size < 1:
        raise ValueError("codomain size must be positive")
    if variant == "domain":
        return 20 * p * size
    if variant == "range":
        return 20 * p * p * size
    raise ValueError(f"variant must be 'domain' or 'range', got {variant!r}")


def gk_known_output_win_probability(alpha: float, q: float) -> float:
    """Pr[the first y-occurrence is exactly i*] for geometric(α) i* and
    per-round fake-hit probability q — the Theorem-23 stopping bound."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if not 0 <= q <= 1:
        raise ValueError("q must be in [0, 1]")
    # Stop at the first y-occurrence; it falls on i* iff no fake hit y
    # earlier: Σ_i α(1−α)^{i−1}(1−q)^{i−1} = α / (α + q − αq).
    return alpha / (1 - (1 - alpha) * (1 - q))


def gk_fixed_round_win_probability(alpha: float, j: int) -> float:
    """Pr[i* = j+1] for a stop at reveal index j (geometric pmf)."""
    if j < 0:
        raise ValueError("reveal index must be non-negative")
    return alpha * (1 - alpha) ** j


def gk_known_output_e10(alpha: float, q_corrupted: float, q_honest: float) -> float:
    """Exact Pr[E10] for the known-output stopper.

    The adversary must stop exactly at i* (probability
    :func:`gk_known_output_win_probability` with the corrupted stream's
    hit rate), *and* the honest party's independently drawn banked fake
    must differ from its true output (probability 1 − q_honest).
    """
    return gk_known_output_win_probability(alpha, q_corrupted) * (
        1 - q_honest
    )
