"""Inequality verification for pressure, power/truncation rules, and factors.

Every check produces InequalityReport records.  Finite-scale inequalities
(the per-n forms carrying their (n+1) constants) are verified with exact
partition sums; limit statements are compared at the asymptotic-proxy
level between growth-rate estimates under a declared analytic tolerance.

The finite-scale checks run over every word of their length, and solve
them on pressure's batch path (batched_word_orbits), as the curves do:
one orbit pass and one potential evaluation per step for all the words
of a check, eps-balls, where the kind the check solves reads them, built
a tile of matrices at a time, and each orbit freed once its word is
solved.  check_basic_properties sums its derived
potentials (_derived_terms) on it, check_power_rule takes every n-th
step of each base orbit as the power system's orbit (stride n), and
check_truncation_monotonicity solves each word at 2 eps and each
distinct tail once at eps, read back for every word that has it.  Each
solve goes through _solve_*_weighted, one per (word, eps, potential) as
in a per-word loop, so each word's sums and each report are the bits
they have when every word is solved alone.

One table, VERDICTS, judges every row that can fail, from whether its
claim holds, whether its inputs are exact and whether it declares a tol:
a claim that holds reads holds_exact only on exact inputs with no tol
declared, else holds_within_tol; a claim that fails reads violated on
exact inputs and inconclusive_inexact on inexact ones.  comparison_report
builds every comparison row from slack = rhs - lhs and the slack the
claim may lose: REL_TOL_EXACT (REL_TOL_EQUALITY for an equality) times
max(1, scale) on a finite row, exactly 0 on the integer counts of
truncation/net-counting, and the declared tol on a proxy row (|lhs - rhs|
<= tol for a proxy equality).  The proxy rows and factor/semiconjugacy
(deviation <= tol and pi onto) declare a tol.  Two rows cannot fail and
keep a fixed holds_within_tol: pressure/finiteness-link, since the solves
refuse non-finite Birkhoff sums, and system/equicontinuity, since every
modulus is > 0.
"""

from __future__ import annotations

import functools
import logging
import math
import random
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .naifs import (
    FactorMapSpec,
    GenerationSchedule,
    MapSpec,
    Word,
    apply_factor_batch,
    apply_map,
    check_semiconjugacy,
    enumerate_words,
    fiber_indices,
    generation_at,
    power_system,
    reachable_batches,
    truncate_system,
    validate_step_count,
)
from .pressure import (
    PressureCurve,
    _birkhoff_vector,
    _BowenOrbit,
    _solve_separated_weighted,
    _solve_spanning_weighted,
    batched_word_orbits,
    logsumexp,
    pressure_estimate,
    spanning_lower_bound,
    sup_entropy_estimate,
    sup_orbit,
    validate_eps_list,
    validate_n_range,
)
from .space import (
    FINITE,
    PointCloud,
    Potential,
    Pullback,
    SpaceSpec,
    build_cloud,
    eval_potential_batch,
    paired_distances,
)

log = logging.getLogger("naifslab.theorems")

# perfbench/spans.py traces the theorems -> pressure boundary by these names
# in this namespace (THEOREMS_BOUNDARY); since the word loops take their
# Birkhoff vectors from the batch path, _birkhoff_vector has no call here
_TRACED_PRESSURE_NAMES = (_BowenOrbit, _birkhoff_vector, _solve_separated_weighted, _solve_spanning_weighted)

HOLDS_EXACT = "holds_exact"
HOLDS_WITHIN_TOL = "holds_within_tol"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive_inexact"

FINITE_LEVEL = "finite_n_exact"
PROXY_LEVEL = "asymptotic_proxy"

REL_TOL_EXACT = 1e-9
REL_TOL_EQUALITY = 1e-12


@dataclass
class InequalityReport:
    """One verified inequality instance; lhs <= rhs is the claim.

    Multiplicative statements are recorded in log space, so slack is the
    log of the ratio; proxy statements are recorded as growth rates.  tol
    is the slack a proxy comparison allows (None where there is none); it
    is read by summarize_reports and not written to verdicts.csv.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    verdict: str
    level: str
    context: str
    tol: float | None = None


def default_proxy_tol(n_max: int, cloud_size: int) -> float:
    """Declared analytic slack for proxy comparisons: a fixed 0.05 plus the
    finite-horizon resolution budget 2 log(#cloud)/n_max."""
    return 0.05 + 2.0 * math.log(cloud_size) / n_max


def _ctx(**kw) -> str:
    return ";".join(f"{k}={kw[k]!r}" for k in sorted(kw))


# The verdict of every row that can fail:
# (claim holds, inputs exact, tolerance declared) -> verdict.
VERDICTS = {
    (True, True, False): HOLDS_EXACT,
    (True, True, True): HOLDS_WITHIN_TOL,
    (True, False, False): HOLDS_WITHIN_TOL,
    (True, False, True): HOLDS_WITHIN_TOL,
    (False, True, False): VIOLATED,
    (False, True, True): VIOLATED,
    (False, False, False): INCONCLUSIVE,
    (False, False, True): INCONCLUSIVE,
}


def comparison_report(
    name: str, lhs: float, rhs: float, exact_inputs: bool, context: str, tol: float | None = None, *,
    equality: bool = False, counts: bool = False, scale: float | None = None, slack: float | None = None,
) -> InequalityReport:
    """The row of the claim lhs <= rhs (lhs = rhs when equality), judged by
    VERDICTS: it holds when slack = rhs - lhs (-|slack| for an equality) is
    >= -allowance, the allowance being tol on a proxy row, 0 on counts
    recorded as their logs, and REL_TOL_EXACT or REL_TOL_EQUALITY times
    max(1, scale) on any other finite row, scale defaulting to
    max(|lhs|, |rhs|).  A row that records its slack in another form of
    rhs - lhs passes it."""
    if slack is None:
        slack = rhs - lhs
    if tol is not None:
        allowance = tol
    elif counts:
        allowance = 0.0
    else:
        if scale is None:
            scale = max(abs(lhs), abs(rhs))
        allowance = (REL_TOL_EQUALITY if equality else REL_TOL_EXACT) * max(1.0, scale)
    holds = (-abs(slack) if equality else slack) >= -allowance
    return InequalityReport(
        name=name, lhs=lhs, rhs=rhs, slack=slack, verdict=VERDICTS[holds, exact_inputs, tol is not None],
        level=FINITE_LEVEL if tol is None else PROXY_LEVEL, context=context, tol=tol,
    )


def _exact_curves(*curves: PressureCurve) -> bool:
    """Whether comparisons of these curves may read violated: every entry
    solved exactly and averaged over all words, not a Monte Carlo sample."""
    return all(e.exact and e.word_mode == "exact" for curve in curves for e in curve.entries)


# ---------------------------------------------------------------------------
# basic pressure properties at fixed (n, eps)


# the potentials of check_basic_properties, in the order of _derived_terms' rows
DERIVED = ("phi", "psi", "dominating", "mix", "phi_plus_c", "c_phi", "phi_plus_psi", "abs_phi", "neg_abs_phi", "zero")


def _derived_terms(space, phi: Potential, psi: Potential, p: float, c: float, points: np.ndarray) -> np.ndarray:
    """phi, psi and the potentials derived from them pointwise at the
    points, one row per name of DERIVED: the terms whose _birkhoff_vectors
    are the derived Birkhoff vectors.  phi and psi are evaluated once."""
    f = eval_potential_batch(space, phi, points)
    g = eval_potential_batch(space, psi, points)
    return np.stack(
        [f, g, np.maximum(f, g), p * f + (1.0 - p) * g, f + c, c * f, f + g, np.abs(f), -np.abs(f), np.zeros_like(f)]
    )


def _reachable_values(cloud: PointCloud, schedule: GenerationSchedule, pot: Potential, steps: int) -> np.ndarray:
    """pot at every point reachable within steps."""
    return np.concatenate([eval_potential_batch(cloud.space, pot, B) for B in reachable_batches(cloud, schedule, steps)])


def check_basic_properties(
    cloud: PointCloud,
    schedule: GenerationSchedule,
    phi: Potential,
    psi: Potential,
    eps: float,
    n: int,
    p: float,
    c: float,
) -> list[InequalityReport]:
    """Finite-scale forms of the elementary pressure properties.

    Emits eight finite-level reports (monotonicity under pointwise
    domination, the entropy sandwich, the Lipschitz bound in the potential,
    convexity, the additive-constant identity, the product bound for sums,
    the power-scaling bound, and the absolute-value envelope) plus one
    proxy-level finiteness link.  Equality-type checks need exact partition
    sums; greedy inputs downgrade failures to inconclusive_inexact.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    n = validate_step_count(n)
    words, word_mode, total = enumerate_words(schedule, 1, n, None, seed=0)
    fphi = _reachable_values(cloud, schedule, phi, n)
    fpsi = _reachable_values(cloud, schedule, psi, n)
    dist_norm = float(np.max(np.abs(fphi - fpsi)))
    inf_phi, sup_phi = float(fphi.min()), float(fphi.max())

    sums: list[list[float]] = [[] for _ in DERIVED]
    exact_inputs = True
    terms = functools.partial(_derived_terms, cloud.space, phi, psi, p, c)
    for [(ctx, S)] in batched_word_orbits(cloud, schedule, words, n, "separated", [eps], terms):
        for values, s in zip(sums, S):
            value, _, _, ok = _solve_separated_weighted(ctx, s, eps)
            values.append(value)
            exact_inputs = exact_inputs and ok
    logP = {name: np.array(values) for name, values in zip(DERIVED, sums)}

    logW = math.log(len(words))
    avg = {name: logsumexp(vals) - logW for name, vals in logP.items()}
    base_ctx = _ctx(n=n, eps=eps, words=len(words), word_mode=word_mode, p=p, c=c)

    def row(name: str, lhs: float, rhs: float, context: str = "", **kw) -> InequalityReport:
        return comparison_report(name, lhs, rhs, exact_inputs, base_ctx + context, **kw)

    low = (n + 1) * inf_phi + avg["zero"]
    high = (n + 1) * sup_phi + avg["zero"]
    if avg["phi"] - low <= high - avg["phi"]:
        entropy_bounds = row("pressure/entropy-bounds", low, avg["phi"], ";side='lower'")
    else:
        entropy_bounds = row("pressure/entropy-bounds", avg["phi"], high, ";side='upper'")

    worst_gap = float(np.max(np.abs(logP["phi"] - logP["psi"])))
    # the gap is a max of absolute differences and its slack is the negated
    # gap, which reads -0.0 at a zero gap
    shift_gap = float(np.max(np.abs(logP["phi_plus_c"] - (logP["phi"] + (n + 1) * c))))
    shift_scale = float(np.max(np.abs(logP["phi"]))) + abs((n + 1) * c)

    gaps = []
    if c >= 1.0:
        gaps.append(float(np.max(logP["c_phi"] - c * logP["phi"])))
    if c <= 1.0:
        gaps.append(float(np.max(c * logP["phi"] - logP["c_phi"])))

    if avg["phi"] - avg["neg_abs_phi"] <= avg["abs_phi"] - avg["phi"]:
        abs_envelope = row("pressure/abs-envelope", avg["neg_abs_phi"], avg["phi"], ";side='lower'")
    else:
        abs_envelope = row("pressure/abs-envelope", avg["phi"], avg["abs_phi"], ";side='upper'")

    # _solve_setup refuses non-finite Birkhoff sums, so both rates are finite
    # and this row cannot fail
    rate_lhs = avg["phi"] / n
    rate_rhs = avg["zero"] / n + (n + 1) / n * sup_phi
    finiteness = InequalityReport(
        name="pressure/finiteness-link", lhs=rate_lhs, rhs=rate_rhs, slack=rate_rhs - rate_lhs,
        verdict=HOLDS_WITHIN_TOL, level=PROXY_LEVEL, context=base_ctx,
    )
    return [
        row("pressure/monotone-in-potential", avg["phi"], avg["dominating"]),
        entropy_bounds,
        row("pressure/lipschitz-in-potential", worst_gap, (n + 1) * dist_norm, f";norm={dist_norm!r}"),
        row("pressure/convexity", avg["mix"], p * avg["phi"] + (1.0 - p) * avg["psi"]),
        row(
            "pressure/additive-constant", shift_gap, 0.0, ";equality=True",
            equality=True, scale=shift_scale, slack=-shift_gap,
        ),
        row("pressure/subadditive-product", avg["phi_plus_psi"], math.log(total) + avg["phi"] + avg["psi"]),
        row("pressure/power-scaling", max(gaps), 0.0, f";direction={'ge1' if c >= 1 else 'le1'}"),
        abs_envelope,
        finiteness,
    ]


# ---------------------------------------------------------------------------
# power rule


def require_power_potential(cloud: PointCloud, schedule: GenerationSchedule, psi: Potential, steps: int) -> None:
    """Refuse (ValueError) a potential that is negative at a point reachable
    within steps: the power rule's spanning transfer needs psi >= 0."""
    if np.any(_reachable_values(cloud, schedule, psi, steps) < 0.0):
        raise ValueError("power-rule spanning transfer needs a nonnegative potential")


def check_power_rule(
    cloud: PointCloud,
    schedule: GenerationSchedule,
    psi: Potential,
    n: int,
    m_range: Sequence[int],
    eps_list: Sequence[float],
    word_budget: int | None = 4096,
    seed: int = 0,
    tol: float | None = None,
    include_proxy: bool = True,
) -> list[InequalityReport]:
    """Spanning-set transfer to the n-step power system, exactly per word,
    plus proxy comparisons of the power-system pressure against n times the
    base pressure (and their equality for constant potentials)."""
    n = validate_step_count(n)
    ms = validate_n_range(m_range, "m_range")
    eps_list = validate_eps_list(eps_list)
    require_power_potential(cloud, schedule, psi, n * ms[-1])

    binding: tuple[float, float] | None = None
    exact_all = True
    checked = 0
    terms = functools.partial(eval_potential_batch, cloud.space, psi)
    for m in ms:
        words, _, _ = enumerate_words(schedule, 1, m * n, None, seed)
        # the power system's orbit along the blocked word is every n-th base step
        for (ctx_base, s_base), (ctx_pow, s_pow) in batched_word_orbits(cloud, schedule, words, m * n, "spanning", eps_list, terms, strides=(1, n)):
            for eps in eps_list:
                q_base, _, _, ok_b = _solve_spanning_weighted(ctx_base, s_base, eps)
                q_pow, _, _, ok_p = _solve_spanning_weighted(ctx_pow, s_pow, eps)
                exact_all = exact_all and ok_b and ok_p
                checked += 1
                if binding is None or q_base - q_pow < binding[1] - binding[0]:
                    binding = (q_pow, q_base)
    reports = [
        comparison_report(
            "power/spanning-transfer",
            binding[0],
            binding[1],
            exact_all,
            _ctx(n=n, m_range=tuple(ms), eps_list=tuple(eps_list), instances=checked),
        )
    ]
    if not include_proxy:
        return reports

    pow_sched = power_system(schedule, n)
    base_ns = [m * n for m in ms]
    est_base = pressure_estimate(cloud, schedule, psi, base_ns, eps_list, word_budget=word_budget, seed=seed)
    est_pow = pressure_estimate(cloud, pow_sched, psi, ms, eps_list, word_budget=word_budget, seed=seed)
    if tol is None:
        tol = default_proxy_tol(max(base_ns), len(cloud))
    reports.append(
        comparison_report(
            "power/upper-bound-proxy", est_pow.estimate, n * est_base.estimate,
            _exact_curves(est_base, est_pow), _ctx(n=n, m_range=tuple(ms), tol=tol), tol,
        )
    )
    if psi.kind == "constant":
        const = psi.params[0]
        est_pow_scaled = pressure_estimate(
            cloud, pow_sched, Potential("constant", (n * const,)), ms, eps_list,
            word_budget=word_budget, seed=seed,
        )
        reports.append(
            comparison_report(
                "power/constant-potential-equality", est_pow_scaled.estimate, n * est_base.estimate,
                _exact_curves(est_base, est_pow_scaled), _ctx(n=n, c=const, tol=tol, equality=True), tol, equality=True,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# truncation monotonicity


def _zero_terms(points: np.ndarray) -> np.ndarray:
    """The zero potential at the points: counts are sums of unit weights."""
    return np.zeros(len(points))


def net_counting_length(n_max: int) -> int:
    """Word length of the truncation net-counting inequality for n_range up to n_max."""
    return max(2, min(n_max, 4))


def check_truncation_monotonicity(
    cloud: PointCloud,
    schedule: GenerationSchedule,
    psi: Potential,
    i: int,
    j: int,
    n_range: Sequence[int],
    eps_list: Sequence[float],
    word_budget: int | None = 4096,
    seed: int = 0,
    tol: float | None = None,
    include_proxy: bool = True,
) -> list[InequalityReport]:
    """Pressure of the system truncated at i against the one truncated at j
    (proxy level), plus the exact net-counting inequality
    r_n(w, 2 eps) <= #net * r_{n-1}(w', eps) for each consecutive truncation."""
    i, j = validate_step_count(i, "i"), validate_step_count(j, "j")
    if not i < j:
        raise ValueError(f"need 1 <= i < j, got i={i}, j={j}")
    eps_list = validate_eps_list(eps_list)
    ns = validate_n_range(n_range)
    reports: list[InequalityReport] = []

    n_count = net_counting_length(ns[-1])
    # first-fit maximal eps-separated sets in the base metric (n = 0): their
    # closed eps-balls cover the cloud
    base = _BowenOrbit(cloud, [cloud.batch])
    net_size = {eps: len(_solve_separated_weighted(base, np.zeros(len(cloud)), eps, "greedy")[1]) for eps in eps_list}
    binding: tuple[int, int] | None = None
    exact_all = True
    for k in range(i, j):
        sched_k = truncate_system(schedule, k)
        sched_k1 = truncate_system(schedule, k + 1)
        words, _, _ = enumerate_words(sched_k, 1, n_count, None, seed)
        tails = [Word(start=1, symbols=w.symbols[1:]) for w in words]
        # words that differ only in their first symbol share a tail: each
        # distinct tail is solved once per eps
        distinct = list(dict.fromkeys(tails))
        small = {}
        for tail, [(ctx_tail, zeros)] in zip(distinct, batched_word_orbits(cloud, sched_k1, distinct, n_count - 1, "spanning", eps_list, _zero_terms), strict=True):
            for eps in eps_list:
                _, idxs, _, exact = _solve_spanning_weighted(ctx_tail, zeros, eps)
                small[tail, eps] = spanning_lower_bound(ctx_tail, eps, len(idxs), exact), exact
        big = batched_word_orbits(cloud, sched_k, words, n_count, "spanning", [2.0 * eps for eps in eps_list], _zero_terms)
        for tail, [(ctx_w, zeros)] in zip(tails, big, strict=True):
            for eps in eps_list:
                _, big_idxs, _, big_exact = _solve_spanning_weighted(ctx_w, zeros, 2.0 * eps)
                small_lower, small_exact = small[tail, eps]
                exact_all = exact_all and big_exact and small_exact
                # r_n(w, 2 eps) from above and r_{n-1}(w', eps) from below
                lhs = len(big_idxs)
                rhs = net_size[eps] * small_lower
                if binding is None or rhs - lhs < binding[1] - binding[0]:
                    binding = (lhs, rhs)
    reports.append(
        comparison_report(
            "truncation/net-counting", math.log(binding[0]), math.log(binding[1]), exact_all,
            _ctx(i=i, j=j, n=n_count, eps_list=tuple(eps_list)), counts=True,
        )
    )
    if not include_proxy:
        return reports

    if tol is None:
        tol = default_proxy_tol(ns[-1], len(cloud))

    est_i, est_j = (
        pressure_estimate(cloud, truncate_system(schedule, k), psi, ns, eps_list, word_budget=word_budget, seed=seed)
        for k in (i, j)
    )
    reports.insert(
        0,
        comparison_report(
            "truncation/monotonicity-proxy", est_i.estimate, est_j.estimate, _exact_curves(est_i, est_j),
            _ctx(i=i, j=j, n_range=tuple(ns), tol=tol), tol,
        ),
    )
    return reports


# ---------------------------------------------------------------------------
# factor maps


def default_semiconjugacy_tol(factor: FactorMapSpec, n_max: int) -> float:
    if factor.kind == "binary_expansion":
        depth = factor.source.cloud.space.resolution
        return 2.0 ** (-(depth - n_max))
    return 1e-9


def pullback_potential(factor: FactorMapSpec, phi_on_target: Potential) -> Pullback:
    """phi o pi on the source, evaluated on each batch it is read on."""
    return Pullback(phi_on_target, factor.target.cloud.space, functools.partial(apply_factor_batch, factor))


# The factor checks of one run share their set-up and curves through a memo
# held on the FactorMapSpec (which is not changed after construction).  Each
# key holds every input that reaches its entry; phi enters by identity, and
# the entry keeps a reference to phi so that its id is not reused.


def _factor_memo(factor: FactorMapSpec, key: tuple, compute):
    memo = getattr(factor, "_memo", None)
    if memo is None:
        memo = factor._memo = {}
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _semiconjugacy(factor: FactorMapSpec, tol: float):
    """check_semiconjugacy at tol; the deviation and surjectivity do not
    depend on tol and are measured once per factor."""
    semi = _factor_memo(factor, ("semiconjugacy",), lambda: check_semiconjugacy(factor, tol))
    return replace(semi, tol=tol)


def _factor_setup(factor: FactorMapSpec, n_range: Sequence[int], eps_list: Sequence[float], tol: float | None) -> tuple:
    """Shared start of the factor checks: validated eps list and n values, a
    passed semiconjugacy and the proxy tolerance."""
    eps_list = validate_eps_list(eps_list)
    ns = validate_n_range(n_range)
    semi = _semiconjugacy(factor, default_semiconjugacy_tol(factor, ns[-1]))
    if not semi.passed:
        raise ValueError(f"semiconjugacy check failed: {semi.detail}")
    if tol is None:
        tol = default_proxy_tol(ns[-1], max(len(factor.source.cloud), len(factor.target.cloud)))
    return eps_list, ns, semi, tol


def _factor_estimates(factor: FactorMapSpec, phi_on_target: Potential, n_values: list[int], eps_list: list[float], word_budget: int | None, seed: int) -> tuple:
    """Pressure curves of phi on the target and of its pullback on the source."""

    def compute():
        kw = dict(word_budget=word_budget, seed=seed)
        pulled = pullback_potential(factor, phi_on_target)
        est_t = pressure_estimate(factor.target.cloud, factor.target.schedule, phi_on_target, n_values, eps_list, **kw)
        est_s = pressure_estimate(factor.source.cloud, factor.source.schedule, pulled, n_values, eps_list, **kw)
        return phi_on_target, (est_t, est_s)

    key = ("curves", id(phi_on_target), tuple(n_values), tuple(eps_list), word_budget, seed)
    return _factor_memo(factor, key, compute)[1]


def check_factor_lower(
    factor: FactorMapSpec,
    phi_on_target: Potential,
    n_range: Sequence[int],
    eps_list: Sequence[float],
    word_budget: int | None = 4096,
    seed: int = 0,
    tol: float | None = None,
) -> InequalityReport:
    """Target pressure of phi is bounded by source pressure of the pullback
    phi o pi (proxy level).  Requires a verified semiconjugacy."""
    eps_list, ns, semi, tol = _factor_setup(factor, n_range, eps_list, tol)

    est_t, est_s = _factor_estimates(factor, phi_on_target, ns, eps_list, word_budget, seed)
    return comparison_report(
        "factor/pullback-lower", est_t.estimate, est_s.estimate, _exact_curves(est_t, est_s),
        _ctx(n_range=tuple(ns), eps_list=tuple(eps_list), tol=tol, semiconjugacy=semi.detail), tol,
    )


def require_invertible(factor: FactorMapSpec) -> None:
    """Refuse (ValueError) a factor with no computable inverse: only a
    bijective index table and a coordinate projection have one."""
    if factor.kind == "index_table":
        if sorted(factor.table) != list(range(len(factor.target.cloud))):
            raise ValueError("factor is not invertible: index table is not a bijection")
    elif factor.kind != "coordinate_projection":
        raise ValueError(f"factor kind {factor.kind!r} has no computable inverse")


def check_factor_conjugacy(
    factor: FactorMapSpec,
    phi_on_target: Potential,
    n_range: Sequence[int],
    eps_list: Sequence[float],
    word_budget: int | None = 4096,
    seed: int = 0,
    tol: float | None = None,
) -> list[InequalityReport]:
    """For an invertible factor the two pullback bounds combine into the
    equality of pressures; emitted as both one-sided reports plus the
    symmetric equality report."""
    require_invertible(factor)
    eps_list, ns, _, tol = _factor_setup(factor, n_range, eps_list, tol)
    est_t, est_s = _factor_estimates(factor, phi_on_target, ns, eps_list, word_budget, seed)
    exact = _exact_curves(est_t, est_s)
    base = _ctx(n_range=tuple(ns), tol=tol)
    return [
        comparison_report("factor/pullback-lower", est_t.estimate, est_s.estimate, exact, base + ";direction='forward'", tol),
        comparison_report("factor/pullback-lower", est_s.estimate, est_t.estimate, exact, base + ";direction='backward'", tol),
        comparison_report(
            "factor/conjugacy-equality", est_t.estimate, est_s.estimate, exact, base + ";equality=True", tol, equality=True
        ),
    ]


def check_factor_upper(
    factor: FactorMapSpec,
    phi_on_target: Potential,
    n_range: Sequence[int],
    eps_list: Sequence[float],
    fiber_sample: int = 8,
    word_budget: int | None = 4096,
    seed: int = 0,
    tol: float | None = None,
) -> InequalityReport:
    """Source pressure of the pullback against target pressure plus the
    largest fiber sup-entropy over sampled target points (proxy level)."""
    fiber_sample = validate_step_count(fiber_sample, "fiber_sample")
    eps_list, ns, _, tol = _factor_setup(factor, n_range, eps_list, tol)

    tgt_cloud = factor.target.cloud
    count = min(fiber_sample, len(tgt_cloud))
    sample_idx = sorted(set(int(round(v)) for v in np.linspace(0, len(tgt_cloud) - 1, count)))
    h_term = 0.0
    fiber_sizes = []
    h_exact = True
    for yi in sample_idx:
        fiber = fiber_indices(factor, yi)
        fiber_sizes.append(len(fiber))
        if not fiber:
            continue
        # the fiber term takes its own eps -> 0 limit; on a finite fiber the
        # limit is attained once eps drops below the smallest pairwise
        # sup-metric distance, so the schedule is extended to that scale
        fiber_eps = _fiber_eps_schedule(factor.source.cloud, factor.source.schedule, fiber, eps_list)
        h = sup_entropy_estimate(factor.source.cloud, factor.source.schedule, fiber, ns, fiber_eps)
        h_exact = h_exact and h.all_exact
        h_term = max(h_term, h.estimate)

    est_t, est_s = _factor_estimates(factor, phi_on_target, ns, eps_list, word_budget, seed)
    return comparison_report(
        "factor/fiber-upper",
        est_s.estimate,
        est_t.estimate + h_term,
        _exact_curves(est_s, est_t) and h_exact,
        _ctx(n_range=tuple(ns), eps_list=tuple(eps_list), tol=tol, h_term=h_term, fiber_sizes=tuple(fiber_sizes)),
        tol,
    )


def _fiber_eps_schedule(cloud: PointCloud, schedule: GenerationSchedule, fiber: Sequence[int], eps_list: Sequence[float]) -> list[float]:
    """Extend the eps schedule by dyadic halving until it resolves every
    pair of the fiber in the one-step sup metric (distances only grow with
    n, so the separated counts are stable from there on)."""
    ctx = sup_orbit(cloud, schedule, 1, list(fiber))
    floor = ctx.min_pair_distance(np.arange(ctx.n_points)) / 2.0
    out = list(eps_list)
    while out[-1] > floor:
        out.append(out[-1] / 2.0)
    return out


# point pairs that the equicontinuity diagnostic reads at most
PAIR_CAP = 200_000
PAIR_SEED = 0


def _sample_pairs(n: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Index pairs of distinct points: all pairs i < j when n * n <= PAIR_CAP,
    else PAIR_CAP seeded draws less those with i = j.  The flag tells which."""
    if n * n <= PAIR_CAP:
        return (*np.triu_indices(n, k=1), False)
    rng = np.random.default_rng(PAIR_SEED)
    ia = rng.integers(0, n, size=PAIR_CAP)
    ib = rng.integers(0, n, size=PAIR_CAP)
    keep = ia != ib
    return ia[keep], ib[keep], True


# ---------------------------------------------------------------------------
# equicontinuity


@dataclass
class EquicontinuityReport:
    """Empirical modulus table: for each eps the largest delta below which
    no sampled pair expands past eps under any single map of the horizon."""

    table: tuple[tuple[float, float], ...]
    detail: str


def check_equicontinuity(cloud: PointCloud, schedule: GenerationSchedule, eps_list: Sequence[float]) -> EquicontinuityReport:
    """The modulus table of the maps of one horizon over sampled cloud pairs.

    Every delta in the table is > 0: two points at distance 0 are one point
    and have one image, so every pair whose images reach eps > 0 has a
    positive base distance."""
    eps_list = validate_eps_list(eps_list)
    batch = cloud.batch
    ia, ib, sampled = _sample_pairs(len(cloud))
    base = paired_distances(cloud, batch[ia], batch[ib])
    img_max = np.zeros_like(base)
    for j in range(1, schedule.horizon + 1):
        for m in generation_at(schedule, j):
            image = apply_map(cloud.space, m, batch)
            np.maximum(img_max, paired_distances(cloud, image[ia], image[ib]), out=img_max)
    diam = cloud.diameter()
    table = []
    for eps in eps_list:
        bad = base[img_max >= eps]
        delta = float(bad.min()) if bad.size else diam
        table.append((eps, delta))
    detail = f"pairs={len(ia)};sampled={sampled};seed={PAIR_SEED}"
    return EquicontinuityReport(table=tuple(table), detail=detail)


def equicontinuity_report(cloud: PointCloud, schedule: GenerationSchedule, eps_list: Sequence[float]) -> InequalityReport:
    """check_equicontinuity as a verdict record; rhs is the smallest modulus.
    The verdict always holds, since every modulus is > 0."""
    eq = check_equicontinuity(cloud, schedule, eps_list)
    delta = min(d for _, d in eq.table)
    table = ";".join(f"delta({eps!r})={d!r}" for eps, d in eq.table)
    return InequalityReport(
        name="system/equicontinuity", lhs=0.0, rhs=delta, slack=delta,
        verdict=HOLDS_WITHIN_TOL, level=PROXY_LEVEL, context=table + ";" + eq.detail,
    )


def semiconjugacy_report(factor: FactorMapSpec, n_max: int, tol: float | None = None) -> InequalityReport:
    """check_semiconjugacy as a verdict record, at the default tolerance for
    n_max unless tol is given.  The claim is deviation <= tol and pi onto,
    measured exactly under a declared tol, so it reads holds_within_tol or
    violated."""
    if tol is None:
        tol = default_semiconjugacy_tol(factor, n_max)
    semi = _semiconjugacy(factor, tol)
    return InequalityReport(
        name="factor/semiconjugacy", lhs=semi.max_deviation, rhs=tol, slack=tol - semi.max_deviation,
        verdict=VERDICTS[semi.passed, True, True], level=FINITE_LEVEL, context=semi.detail,
    )


# ---------------------------------------------------------------------------
# randomized finite-scale suite


def random_explicit_instance(
    rng: random.Random,
    max_points: int = 12,
    max_maps: int = 3,
    max_cycle: int = 2,
) -> tuple[PointCloud, GenerationSchedule]:
    """A random explicit metric space (planar sample, hence a true metric)
    with random permutation generations."""
    n_pts = rng.randint(4, max_points)
    while True:
        coords = [(rng.random(), rng.random()) for _ in range(n_pts)]
        dm = [
            [math.hypot(a[0] - b[0], a[1] - b[1]) for b in coords]
            for a in coords
        ]
        off = [dm[a][b] for a in range(n_pts) for b in range(n_pts) if a != b]
        if min(off) > 1e-6:
            break
    spec = SpaceSpec(family=FINITE, distance_matrix=tuple(tuple(r) for r in dm))
    cloud = build_cloud(spec)

    def generation() -> tuple[MapSpec, ...]:
        k = rng.randint(1, max_maps)
        maps = []
        for _ in range(k):
            perm = list(range(n_pts))
            rng.shuffle(perm)
            maps.append(MapSpec("permutation_table", tuple(perm)))
        return tuple(maps)

    prefix = tuple(generation() for _ in range(rng.randint(0, 1)))
    cycle = tuple(generation() for _ in range(rng.randint(1, max_cycle)))
    return cloud, GenerationSchedule(prefix=prefix, cycle=cycle)


def run_finite_inequality_suite(
    count: int = 200,
    base_seed: int = 0,
    max_points: int = 12,
    max_maps: int = 3,
    max_cycle: int = 2,
    n_max: int = 4,
) -> list[InequalityReport]:
    """Finite-scale inequality reports over seeded random small instances:
    the basic-property family, the power spanning transfer, and the
    truncation net counting.  Their solves are exact up to 64 points."""
    reports: list[InequalityReport] = []
    c_cycle = (2.0, 0.5, 3.0, -1.0)
    for t in range(count):
        rng = random.Random(base_seed + t)
        cloud, schedule = random_explicit_instance(rng, max_points, max_maps, max_cycle)
        n_pts = len(cloud)
        n = rng.randint(2, n_max)
        phi = Potential("explicit_table", tuple(rng.uniform(-1.0, 1.0) for _ in range(n_pts)))
        psi = Potential("explicit_table", tuple(rng.uniform(-1.0, 1.0) for _ in range(n_pts)))
        dm = cloud.dmatrix()
        off = np.sort(dm[~np.eye(n_pts, dtype=bool)])
        eps = float(off[int(len(off) * rng.uniform(0.2, 0.8))])
        p = rng.uniform(0.1, 0.9)
        c = c_cycle[t % len(c_cycle)]
        reports.extend(check_basic_properties(cloud, schedule, phi, psi, eps, n, p, c))
        psi_pos = Potential("explicit_table", tuple(rng.uniform(0.0, 1.0) for _ in range(n_pts)))
        reports.extend(
            check_power_rule(cloud, schedule, psi_pos, n=2, m_range=(1, 2), eps_list=(eps,), include_proxy=False)
        )
        reports.extend(
            check_truncation_monotonicity(
                cloud, schedule, psi, i=1, j=2, n_range=(2, 3), eps_list=(eps,), include_proxy=False
            )
        )
    return reports


def _tol_exceeds_both_sides(r: InequalityReport) -> bool:
    """A proxy report (the only kind with a tol) whose tol is larger than
    |lhs| and |rhs|: its verdict says little about either side."""
    return r.tol is not None and r.tol > max(abs(r.lhs), abs(r.rhs))


def summarize_reports(reports: Sequence[InequalityReport]) -> str:
    """Human-readable verdict table; a proxy report whose tol exceeds both
    |lhs| and |rhs| is marked with a *."""
    lines = [f"{'check':38s} {'level':18s} {'verdict':20s} {'slack':>14s}"]
    for r in reports:
        mark = " *" if _tol_exceeds_both_sides(r) else ""
        lines.append(f"{r.name:38s} {r.level:18s} {r.verdict:20s} {r.slack:14.6g}{mark}")
    counts: dict[str, int] = {}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    lines.append("totals: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    marked = sum(map(_tol_exceeds_both_sides, reports))
    if marked:
        lines.append(f"* tol exceeds both |lhs| and |rhs| ({marked} {PROXY_LEVEL} reports)")
    return "\n".join(lines)
