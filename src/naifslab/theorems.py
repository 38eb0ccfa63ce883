"""Inequality verification for pressure, power/truncation rules, and factors.

Every check produces InequalityReport records.  Finite-scale inequalities
(the per-n forms carrying their (n+1) constants) are verified with exact
partition sums and judged at a relative floating-point tolerance; limit
statements are compared at the asymptotic-proxy level between growth-rate
estimates under a declared analytic tolerance.  Inexact inputs can never
produce a `violated` verdict, only `inconclusive_inexact`.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .naifs import (
    FactorMapSpec,
    GenerationSchedule,
    MapSpec,
    Word,
    apply_factor_batch,
    apply_map,
    block_word,
    check_semiconjugacy,
    enumerate_words,
    fiber_indices,
    generation_at,
    power_system,
    reachable_points,
    truncate_system,
)
from .pressure import (
    _birkhoff_vector,
    _BowenOrbit,
    _logsumexp,
    _solve_separated_weighted,
    _solve_spanning_weighted,
    _sup_orbit,
    min_spanning,
    pressure_estimate,
    sup_entropy_estimate,
    validate_eps_list,
)
from .space import (
    FINITE,
    SYMBOLIC,
    PointCloud,
    Potential,
    SpaceSpec,
    build_cloud,
    canonical_key,
    eval_potential,
    eval_potential_batch,
    paired_distances,
    points_to_batch,
)

log = logging.getLogger("naifslab.theorems")

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
    log of the ratio; proxy statements are recorded as growth rates.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    verdict: str
    level: str
    context: str


@dataclass
class GrowthRate:
    """limsup/liminf of the running average of log generation sizes; exact
    (and equal) for eventually periodic schedules via the cycle average."""

    limsup_value: float
    liminf_value: float


def growth_rate(schedule: GenerationSchedule) -> GrowthRate:
    logs = [math.log(len(g)) for g in schedule.cycle]
    avg = math.fsum(logs) / len(logs)
    return GrowthRate(limsup_value=avg, liminf_value=avg)


def default_proxy_tol(n_max: int, cloud_size: int) -> float:
    """Declared analytic slack for proxy comparisons: a fixed 0.05 plus the
    finite-horizon resolution budget 2 log(#cloud)/n_max."""
    return 0.05 + 2.0 * math.log(cloud_size) / n_max


def _ctx(**kw) -> str:
    return ";".join(f"{k}={kw[k]!r}" for k in sorted(kw))


def _finite_verdict(slack: float, scale: float, exact_inputs: bool, equality: bool = False) -> str:
    tol = (REL_TOL_EQUALITY if equality else REL_TOL_EXACT) * max(1.0, scale)
    if slack >= -tol:
        return HOLDS_EXACT if exact_inputs else HOLDS_WITHIN_TOL
    return VIOLATED if exact_inputs else INCONCLUSIVE


def _proxy_verdict(slack: float, tol: float, exact_inputs: bool) -> str:
    if slack >= -tol:
        return HOLDS_WITHIN_TOL
    return VIOLATED if exact_inputs else INCONCLUSIVE


def _finite_report(name: str, lhs: float, rhs: float, exact_inputs: bool, context: str, equality: bool = False) -> InequalityReport:
    slack = rhs - lhs
    scale = max(abs(lhs), abs(rhs))
    verdict = _finite_verdict(slack, scale, exact_inputs, equality=equality)
    return InequalityReport(name=name, lhs=lhs, rhs=rhs, slack=slack, verdict=verdict, level=FINITE_LEVEL, context=context)


def _proxy_report(name: str, lhs: float, rhs: float, tol: float, exact_inputs: bool, context: str) -> InequalityReport:
    slack = rhs - lhs
    return InequalityReport(
        name=name, lhs=lhs, rhs=rhs, slack=slack,
        verdict=_proxy_verdict(slack, tol, exact_inputs), level=PROXY_LEVEL, context=context,
    )


def _equality_report(name: str, lhs: float, rhs: float, tol: float, exact_inputs: bool, context: str) -> InequalityReport:
    """Proxy-level equality |lhs - rhs| <= tol."""
    verdict = HOLDS_WITHIN_TOL if abs(lhs - rhs) <= tol else (VIOLATED if exact_inputs else INCONCLUSIVE)
    return InequalityReport(name=name, lhs=lhs, rhs=rhs, slack=rhs - lhs, verdict=verdict, level=PROXY_LEVEL, context=context)


def _escalated(ns: list[int], estimates, slack, tol: float):
    """estimates(ns), or, when its slack(...) falls below -tol, estimates over
    n_range extended by two steps; returns (estimates, escalated).  An
    extension the inputs cannot take (ValueError) keeps the first result."""
    first = estimates(ns)
    if not slack(first) < -tol:
        return first, False
    try:
        return estimates(ns + [ns[-1] + 1, ns[-1] + 2]), True
    except ValueError:
        return first, False


# ---------------------------------------------------------------------------
# basic pressure properties at fixed (n, eps)


def _table_potential(space: SpaceSpec, points: list, values: np.ndarray) -> Potential:
    return Potential("explicit_table", {canonical_key(space, p): float(v) for p, v in zip(points, values)})


def check_basic_properties(
    cloud: PointCloud,
    schedule: GenerationSchedule,
    phi: Potential,
    psi: Potential,
    eps: float,
    n: int,
    p: float,
    c: float,
    mode: str = "auto",
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    space = cloud.space
    words, word_mode, total = enumerate_words(schedule, 1, n, None, seed=0)
    reach = reachable_points(cloud, schedule, n)
    fphi = np.array([eval_potential(phi, pt) for pt in reach])
    fpsi = np.array([eval_potential(psi, pt) for pt in reach])

    derived = {
        "phi": _table_potential(space, reach, fphi),
        "psi": _table_potential(space, reach, fpsi),
        "dominating": _table_potential(space, reach, np.maximum(fphi, fpsi)),
        "mix": _table_potential(space, reach, p * fphi + (1.0 - p) * fpsi),
        "phi_plus_c": _table_potential(space, reach, fphi + c),
        "c_phi": _table_potential(space, reach, c * fphi),
        "phi_plus_psi": _table_potential(space, reach, fphi + fpsi),
        "abs_phi": _table_potential(space, reach, np.abs(fphi)),
        "neg_abs_phi": _table_potential(space, reach, -np.abs(fphi)),
        "zero": Potential("constant", (0.0,)),
    }
    dist_norm = float(np.max(np.abs(fphi - fpsi)))
    inf_phi, sup_phi = float(fphi.min()), float(fphi.max())

    logP: dict[str, np.ndarray] = {name: np.zeros(len(words)) for name in derived}
    exact_inputs = True
    for wi, w in enumerate(words):
        ctx = _BowenOrbit(cloud, schedule, w, n)
        for name, pot in derived.items():
            S = _birkhoff_vector(ctx, pot)
            value, _, _, ok = _solve_separated_weighted(ctx, S, eps, mode)
            logP[name][wi] = value
            exact_inputs = exact_inputs and ok

    logW = math.log(len(words))
    avg = {name: _logsumexp(vals) - logW for name, vals in logP.items()}
    base_ctx = _ctx(n=n, eps=eps, words=len(words), word_mode=word_mode, p=p, c=c)
    reports: list[InequalityReport] = []

    reports.append(
        _finite_report("pressure/monotone-in-potential", avg["phi"], avg["dominating"], exact_inputs, base_ctx)
    )

    low = (n + 1) * inf_phi + avg["zero"]
    high = (n + 1) * sup_phi + avg["zero"]
    side = min(avg["phi"] - low, high - avg["phi"])
    if avg["phi"] - low <= high - avg["phi"]:
        reports.append(_finite_report("pressure/entropy-bounds", low, avg["phi"], exact_inputs, base_ctx + ";side='lower'"))
    else:
        reports.append(_finite_report("pressure/entropy-bounds", avg["phi"], high, exact_inputs, base_ctx + ";side='upper'"))

    lip_bound = (n + 1) * dist_norm
    worst_gap = float(np.max(np.abs(logP["phi"] - logP["psi"])))
    reports.append(
        _finite_report("pressure/lipschitz-in-potential", worst_gap, lip_bound, exact_inputs, base_ctx + f";norm={dist_norm!r}")
    )

    reports.append(
        _finite_report(
            "pressure/convexity", avg["mix"], p * avg["phi"] + (1.0 - p) * avg["psi"], exact_inputs, base_ctx
        )
    )

    shift_gap = float(np.max(np.abs(logP["phi_plus_c"] - (logP["phi"] + (n + 1) * c))))
    scale = max(1.0, float(np.max(np.abs(logP["phi"]))) + abs((n + 1) * c))
    reports.append(
        InequalityReport(
            name="pressure/additive-constant",
            lhs=shift_gap,
            rhs=0.0,
            slack=-shift_gap,
            verdict=_finite_verdict(-shift_gap, scale, exact_inputs, equality=True),
            level=FINITE_LEVEL,
            context=base_ctx + ";equality=True",
        )
    )

    reports.append(
        _finite_report(
            "pressure/subadditive-product",
            avg["phi_plus_psi"],
            math.log(total) + avg["phi"] + avg["psi"],
            exact_inputs,
            base_ctx,
        )
    )

    gaps = []
    if c >= 1.0:
        gaps.append(float(np.max(logP["c_phi"] - c * logP["phi"])))
    if c <= 1.0:
        gaps.append(float(np.max(c * logP["phi"] - logP["c_phi"])))
    worst = max(gaps)
    reports.append(
        _finite_report("pressure/power-scaling", worst, 0.0, exact_inputs, base_ctx + f";direction={'ge1' if c >= 1 else 'le1'}")
    )

    lo_slack = avg["phi"] - avg["neg_abs_phi"]
    hi_slack = avg["abs_phi"] - avg["phi"]
    if lo_slack <= hi_slack:
        reports.append(_finite_report("pressure/abs-envelope", avg["neg_abs_phi"], avg["phi"], exact_inputs, base_ctx + ";side='lower'"))
    else:
        reports.append(_finite_report("pressure/abs-envelope", avg["phi"], avg["abs_phi"], exact_inputs, base_ctx + ";side='upper'"))

    rate_lhs = avg["phi"] / n
    rate_rhs = avg["zero"] / n + (n + 1) / n * sup_phi
    both_finite = math.isfinite(rate_lhs) and math.isfinite(avg["zero"])
    reports.append(
        InequalityReport(
            name="pressure/finiteness-link",
            lhs=rate_lhs,
            rhs=rate_rhs,
            slack=rate_rhs - rate_lhs,
            verdict=HOLDS_WITHIN_TOL if both_finite else VIOLATED,
            level=PROXY_LEVEL,
            context=base_ctx,
        )
    )
    return reports


# ---------------------------------------------------------------------------
# power rule


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
    mode: str = "auto",
    workers: int = 1,
    include_proxy: bool = True,
) -> list[InequalityReport]:
    """Spanning-set transfer to the n-step power system, exactly per word,
    plus proxy comparisons of the power-system pressure against n times the
    base pressure (and their equality for constant potentials)."""
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    ms = sorted(set(int(m) for m in m_range))
    if not ms or ms[0] < 1:
        raise ValueError("m_range must contain integers >= 1")
    eps_list = validate_eps_list(eps_list)
    reach = reachable_points(cloud, schedule, n * ms[-1])
    vals = np.array([eval_potential(psi, pt) for pt in reach])
    if np.any(vals < 0.0):
        raise ValueError("power-rule spanning transfer needs a nonnegative potential")
    pow_sched = power_system(schedule, n)

    binding: tuple[float, float] | None = None
    exact_all = True
    checked = 0
    for m in ms:
        words, _, _ = enumerate_words(schedule, 1, m * n, None, seed)
        for w in words:
            wstar = block_word(schedule, w, n)
            ctx_base = _BowenOrbit(cloud, schedule, w, m * n)
            ctx_pow = _BowenOrbit(cloud, pow_sched, wstar, m)
            s_base = _birkhoff_vector(ctx_base, psi)
            s_pow = _birkhoff_vector(ctx_pow, psi)
            for eps in eps_list:
                q_base, _, _, ok_b = _solve_spanning_weighted(ctx_base, s_base, eps, mode)
                q_pow, _, _, ok_p = _solve_spanning_weighted(ctx_pow, s_pow, eps, mode)
                exact_all = exact_all and ok_b and ok_p
                checked += 1
                if binding is None or q_base - q_pow < binding[1] - binding[0]:
                    binding = (q_pow, q_base)
    reports = [
        _finite_report(
            "power/spanning-transfer",
            binding[0],
            binding[1],
            exact_all,
            _ctx(n=n, m_range=tuple(ms), eps_list=tuple(eps_list), instances=checked),
        )
    ]
    if not include_proxy:
        return reports

    base_ns = [m * n for m in ms]
    est_base = pressure_estimate(cloud, schedule, psi, base_ns, eps_list, word_budget=word_budget, seed=seed, mode=mode, workers=workers)
    est_pow = pressure_estimate(cloud, pow_sched, psi, ms, eps_list, word_budget=word_budget, seed=seed, mode=mode, workers=workers)
    if tol is None:
        tol = default_proxy_tol(max(base_ns), len(cloud))
    reports.append(
        _proxy_report(
            "power/upper-bound-proxy",
            est_pow.estimate,
            n * est_base.estimate,
            tol,
            est_base.all_exact and est_pow.all_exact,
            _ctx(n=n, m_range=tuple(ms), tol=tol),
        )
    )
    if psi.kind == "constant":
        const = psi.params[0]
        est_pow_scaled = pressure_estimate(
            cloud, pow_sched, Potential("constant", (n * const,)), ms, eps_list,
            word_budget=word_budget, seed=seed, mode=mode, workers=workers,
        )
        reports.append(
            _equality_report(
                "power/constant-potential-equality", est_pow_scaled.estimate, n * est_base.estimate, tol,
                est_base.all_exact and est_pow_scaled.all_exact, _ctx(n=n, c=const, tol=tol, equality=True),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# truncation monotonicity


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
    mode: str = "auto",
    workers: int = 1,
    include_proxy: bool = True,
) -> list[InequalityReport]:
    """Pressure of the system truncated at i against the one truncated at j
    (proxy level), plus the exact net-counting inequality
    r_n(w, 2 eps) <= #net * r_{n-1}(w', eps) for each consecutive truncation."""
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got i={i}, j={j}")
    eps_list = validate_eps_list(eps_list)
    ns = sorted(set(int(v) for v in n_range))
    if not ns or ns[0] < 1:
        raise ValueError("n_range must contain integers >= 1")
    reports: list[InequalityReport] = []

    n_count = max(2, min(ns[-1], 4))
    # first-fit maximal eps-separated sets in the base metric (n = 0): their
    # closed eps-balls cover the cloud
    base = _BowenOrbit(cloud, schedule, Word(start=1, symbols=()), 0)
    net_size = {eps: len(_solve_separated_weighted(base, np.zeros(len(cloud)), eps, "greedy")[1]) for eps in eps_list}
    binding: tuple[int, int] | None = None
    exact_all = True
    for k in range(i, j):
        sched_k = truncate_system(schedule, k)
        sched_k1 = truncate_system(schedule, k + 1)
        words, _, _ = enumerate_words(sched_k, 1, n_count, None, seed)
        for w in words:
            w_tail = Word(start=1, symbols=w.symbols[1:])
            for eps in eps_list:
                r_big = min_spanning(cloud, sched_k, w, n_count, 2.0 * eps, mode)
                r_small = min_spanning(cloud, sched_k1, w_tail, n_count - 1, eps, mode)
                exact_all = exact_all and r_big.exact and r_small.exact
                lhs = r_big.upper_bound
                rhs = net_size[eps] * r_small.lower_bound
                if binding is None or rhs - lhs < binding[1] - binding[0]:
                    binding = (lhs, rhs)
    counting = InequalityReport(
        name="truncation/net-counting",
        lhs=math.log(binding[0]),
        rhs=math.log(binding[1]),
        slack=math.log(binding[1]) - math.log(binding[0]),
        verdict=(HOLDS_EXACT if binding[0] <= binding[1] else VIOLATED) if exact_all else (HOLDS_WITHIN_TOL if binding[0] <= binding[1] else INCONCLUSIVE),
        level=FINITE_LEVEL,
        context=_ctx(i=i, j=j, n=n_count, eps_list=tuple(eps_list)),
    )
    reports.append(counting)
    if not include_proxy:
        return reports

    if tol is None:
        tol = default_proxy_tol(ns[-1], len(cloud))

    def estimates(n_values):
        return tuple(
            pressure_estimate(cloud, truncate_system(schedule, k), psi, n_values, eps_list, word_budget=word_budget, seed=seed, mode=mode, workers=workers)
            for k in (i, j)
        )

    (est_i, est_j), escalated = _escalated(ns, estimates, lambda e: e[1].estimate - e[0].estimate, tol)
    reports.insert(
        0,
        _proxy_report(
            "truncation/monotonicity-proxy", est_i.estimate, est_j.estimate, tol, est_i.all_exact and est_j.all_exact,
            _ctx(i=i, j=j, n_range=tuple(ns), tol=tol, escalated=escalated),
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


def pullback_potential(factor: FactorMapSpec, phi_on_target: Potential, n_max: int) -> Potential:
    """Tabulate phi o pi over every source point reachable within n_max steps."""
    src = factor.source
    reach = reachable_points(src.cloud, src.schedule, n_max)
    space = src.cloud.space
    table: dict = {}
    groups: dict[int, list] = {}
    if space.family == SYMBOLIC:
        for pt in reach:
            groups.setdefault(len(pt), []).append(pt)
    else:
        groups[0] = reach
    for pts in groups.values():
        batch = points_to_batch(space, pts)
        images = apply_factor_batch(factor, batch)
        values = eval_potential_batch(factor.target.cloud.space, phi_on_target, images)
        for pt, v in zip(pts, values):
            table[canonical_key(space, pt)] = float(v)
    return Potential("explicit_table", table)


def _factor_setup(factor: FactorMapSpec, phi_on_target: Potential, n_range: Sequence[int], eps_list: Sequence[float], tol: float | None, semi_tol: float | None) -> tuple:
    """Shared start of the factor checks: validated eps list and n values, a
    passed semiconjugacy, the proxy tolerance and the pullback phi o pi."""
    eps_list = validate_eps_list(eps_list)
    ns = sorted(set(int(v) for v in n_range))
    semi = check_semiconjugacy(factor, default_semiconjugacy_tol(factor, ns[-1]) if semi_tol is None else semi_tol)
    if not semi.passed:
        raise ValueError(f"semiconjugacy check failed: {semi.detail}")
    if tol is None:
        tol = default_proxy_tol(ns[-1], max(len(factor.source.cloud), len(factor.target.cloud)))
    return eps_list, ns, semi, tol, pullback_potential(factor, phi_on_target, ns[-1])


def _factor_estimates(factor: FactorMapSpec, phi_on_target: Potential, pulled: Potential, n_values: list[int], eps_list: list[float], **kw) -> tuple:
    """Pressure curves of phi on the target and of its pullback on the source."""
    est_t = pressure_estimate(factor.target.cloud, factor.target.schedule, phi_on_target, n_values, eps_list, **kw)
    est_s = pressure_estimate(factor.source.cloud, factor.source.schedule, pulled, n_values, eps_list, **kw)
    return est_t, est_s


def check_factor_lower(
    factor: FactorMapSpec,
    phi_on_target: Potential,
    n_range: Sequence[int],
    eps_list: Sequence[float],
    word_budget: int | None = 4096,
    seed: int = 0,
    tol: float | None = None,
    mode: str = "auto",
    workers: int = 1,
    semi_tol: float | None = None,
) -> InequalityReport:
    """Target pressure of phi is bounded by source pressure of the pullback
    phi o pi (proxy level).  Requires a verified semiconjugacy."""
    eps_list, ns, semi, tol, pulled = _factor_setup(factor, phi_on_target, n_range, eps_list, tol, semi_tol)

    def estimates(n_values):
        return _factor_estimates(factor, phi_on_target, pulled, n_values, eps_list, word_budget=word_budget, seed=seed, mode=mode, workers=workers)

    (est_t, est_s), escalated = _escalated(ns, estimates, lambda e: e[1].estimate - e[0].estimate, tol)
    return _proxy_report(
        "factor/pullback-lower",
        est_t.estimate,
        est_s.estimate,
        tol,
        est_t.all_exact and est_s.all_exact,
        _ctx(n_range=tuple(ns), eps_list=tuple(eps_list), tol=tol, semiconjugacy=semi.detail, escalated=escalated),
    )


def _invert_factor(factor: FactorMapSpec) -> FactorMapSpec:
    if factor.kind == "coordinate_projection":
        return FactorMapSpec(source=factor.target, target=factor.source, kind="coordinate_projection")
    if factor.kind == "index_table":
        table = list(factor.table)
        if sorted(table) != list(range(len(factor.target.cloud))) or len(table) != len(factor.target.cloud):
            raise ValueError("factor is not invertible: index table is not a bijection")
        inverse = [0] * len(table)
        for i, t in enumerate(table):
            inverse[t] = i
        return FactorMapSpec(source=factor.target, target=factor.source, kind="index_table", table=tuple(inverse))
    raise ValueError(f"factor kind {factor.kind!r} has no computable inverse")


def check_factor_conjugacy(
    factor: FactorMapSpec,
    phi_on_target: Potential,
    n_range: Sequence[int],
    eps_list: Sequence[float],
    word_budget: int | None = 4096,
    seed: int = 0,
    tol: float | None = None,
    mode: str = "auto",
    workers: int = 1,
) -> list[InequalityReport]:
    """For an invertible factor the two pullback bounds combine into the
    equality of pressures; emitted as both one-sided reports plus the
    symmetric equality report."""
    _invert_factor(factor)  # raises unless the factor is a bijection
    eps_list, ns, _, tol, pulled = _factor_setup(factor, phi_on_target, n_range, eps_list, tol, None)
    est_t, est_s = _factor_estimates(factor, phi_on_target, pulled, ns, eps_list, word_budget=word_budget, seed=seed, mode=mode, workers=workers)
    exact = est_t.all_exact and est_s.all_exact
    base = _ctx(n_range=tuple(ns), tol=tol)
    return [
        _proxy_report("factor/pullback-lower", est_t.estimate, est_s.estimate, tol, exact, base + ";direction='forward'"),
        _proxy_report("factor/pullback-lower", est_s.estimate, est_t.estimate, tol, exact, base + ";direction='backward'"),
        _equality_report("factor/conjugacy-equality", est_t.estimate, est_s.estimate, tol, exact, base + ";equality=True"),
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
    mode: str = "auto",
    workers: int = 1,
    semi_tol: float | None = None,
) -> InequalityReport:
    """Source pressure of the pullback against target pressure plus the
    largest fiber sup-entropy over sampled target points (proxy level).

    Also records the oscillation of the pullback at scale 2*eps_min as a
    diagnostic of the available slack budget."""
    eq_src = check_equicontinuity(factor.source.cloud, factor.source.schedule, eps_list)
    eq_tgt = check_equicontinuity(factor.target.cloud, factor.target.schedule, eps_list)
    if not (eq_src.passed and eq_tgt.passed):
        raise ValueError("equicontinuity check failed for one of the systems")
    eps_list, ns, _, tol, pulled = _factor_setup(factor, phi_on_target, n_range, eps_list, tol, semi_tol)

    tgt_cloud = factor.target.cloud
    count = max(1, min(fiber_sample, len(tgt_cloud)))
    sample_idx = sorted(set(int(round(v)) for v in np.linspace(0, len(tgt_cloud) - 1, count)))
    h_term = 0.0
    fiber_sizes = []
    h_exact = True
    for yi in sample_idx:
        fiber = fiber_indices(factor, tgt_cloud.points[yi])
        fiber_sizes.append(len(fiber))
        if not fiber:
            continue
        # the fiber term takes its own eps -> 0 limit; on a finite fiber the
        # limit is attained once eps drops below the smallest pairwise
        # sup-metric distance, so the schedule is extended to that scale
        fiber_eps = _fiber_eps_schedule(factor.source.cloud, factor.source.schedule, fiber, eps_list)
        h = sup_entropy_estimate(factor.source.cloud, factor.source.schedule, fiber, ns, fiber_eps, mode=mode)
        h_exact = h_exact and h.all_exact
        h_term = max(h_term, h.estimate)

    var_diag = _oscillation(factor.source.cloud, pulled, 2.0 * eps_list[-1])

    def estimates(n_values):
        return _factor_estimates(factor, phi_on_target, pulled, n_values, eps_list, word_budget=word_budget, seed=seed, mode=mode, workers=workers)

    (est_t, est_s), escalated = _escalated(ns, estimates, lambda e: e[0].estimate + h_term - e[1].estimate, tol)
    return _proxy_report(
        "factor/fiber-upper",
        est_s.estimate,
        est_t.estimate + h_term,
        tol,
        est_s.all_exact and est_t.all_exact and h_exact,
        _ctx(
            n_range=tuple(ns),
            eps_list=tuple(eps_list),
            tol=tol,
            h_term=h_term,
            fiber_sizes=tuple(fiber_sizes),
            oscillation=var_diag,
            escalated=escalated,
        ),
    )


def _fiber_eps_schedule(cloud: PointCloud, schedule: GenerationSchedule, fiber: Sequence[int], eps_list: Sequence[float]) -> list[float]:
    """Extend the eps schedule by dyadic halving until it resolves every
    pair of the fiber in the one-step sup metric (distances only grow with
    n, so the separated counts are stable from there on)."""
    if len(fiber) < 2:
        return list(eps_list)
    ctx = _sup_orbit(cloud, schedule, 1, list(fiber))
    m = ctx.matrix()
    off = m[~np.eye(len(fiber), dtype=bool)]
    floor = float(off.min()) / 2.0
    out = list(eps_list)
    while out[-1] > floor:
        out.append(out[-1] / 2.0)
    return out


def _oscillation(cloud: PointCloud, pot: Potential, radius: float, pair_cap: int = 200_000, seed: int = 0) -> float:
    """sup |pot(x) - pot(y)| over sampled cloud pairs with d(x, y) < radius."""
    n = len(cloud)
    batch = cloud.batch()
    vals = eval_potential_batch(cloud.space, pot, batch)
    if n * n <= pair_cap:
        ia, ib = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        ia = rng.integers(0, n, size=pair_cap)
        ib = rng.integers(0, n, size=pair_cap)
    d = paired_distances(cloud, batch[ia], batch[ib])
    close = d < radius
    if not close.any():
        return 0.0
    return float(np.max(np.abs(vals[ia[close]] - vals[ib[close]])))


# ---------------------------------------------------------------------------
# equicontinuity


@dataclass
class EquicontinuityReport:
    """Empirical modulus table: for each eps the largest delta below which
    no sampled pair expands past eps under any single map of the horizon."""

    table: tuple[tuple[float, float], ...]
    passed: bool
    detail: str


def check_equicontinuity(
    cloud: PointCloud,
    schedule: GenerationSchedule,
    eps_list: Sequence[float],
    pair_cap: int = 200_000,
    seed: int = 0,
) -> EquicontinuityReport:
    eps_list = validate_eps_list(eps_list)
    n = len(cloud)
    batch = cloud.batch()
    if n * n <= pair_cap:
        ia, ib = np.triu_indices(n, k=1)
        sampled = False
    else:
        rng = np.random.default_rng(seed)
        ia = rng.integers(0, n, size=pair_cap)
        ib = rng.integers(0, n, size=pair_cap)
        keep = ia != ib
        ia, ib = ia[keep], ib[keep]
        sampled = True
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
    passed = all(delta > 0 for _, delta in table)
    detail = f"pairs={len(ia)};sampled={sampled};seed={seed}"
    return EquicontinuityReport(table=tuple(table), passed=passed, detail=detail)


def equicontinuity_report(cloud: PointCloud, schedule: GenerationSchedule, eps_list: Sequence[float]) -> InequalityReport:
    """check_equicontinuity as a verdict record; rhs is the smallest modulus."""
    eq = check_equicontinuity(cloud, schedule, eps_list)
    delta = min(d for _, d in eq.table)
    table = ";".join(f"delta({eps!r})={d!r}" for eps, d in eq.table)
    return InequalityReport(
        name="system/equicontinuity", lhs=0.0, rhs=delta, slack=delta,
        verdict=HOLDS_WITHIN_TOL if eq.passed else VIOLATED, level=PROXY_LEVEL, context=table + ";" + eq.detail,
    )


def semiconjugacy_report(factor: FactorMapSpec, n_max: int, tol: float | None = None) -> InequalityReport:
    """check_semiconjugacy as a verdict record, at the default tolerance for
    n_max unless tol is given."""
    if tol is None:
        tol = default_semiconjugacy_tol(factor, n_max)
    semi = check_semiconjugacy(factor, tol)
    return InequalityReport(
        name="factor/semiconjugacy", lhs=semi.max_deviation, rhs=tol, slack=tol - semi.max_deviation,
        verdict=HOLDS_WITHIN_TOL if semi.passed else VIOLATED, level=FINITE_LEVEL, context=semi.detail,
    )


# ---------------------------------------------------------------------------
# randomized finite-scale suite


def random_explicit_instance(
    rng: random.Random,
    max_points: int = 12,
    max_maps: int = 3,
    max_cycle: int = 2,
    max_prefix: int = 1,
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

    prefix = tuple(generation() for _ in range(rng.randint(0, max_prefix)))
    cycle = tuple(generation() for _ in range(rng.randint(1, max_cycle)))
    return cloud, GenerationSchedule(prefix=prefix, cycle=cycle)


def run_finite_inequality_suite(
    count: int = 200,
    base_seed: int = 0,
    max_points: int = 12,
    max_maps: int = 3,
    max_cycle: int = 2,
    n_max: int = 4,
    mode: str = "auto",
) -> list[InequalityReport]:
    """Finite-scale inequality reports over seeded random small instances:
    the basic-property family, the power spanning transfer, and the
    truncation net counting, all in exact mode."""
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
        reports.extend(check_basic_properties(cloud, schedule, phi, psi, eps, n, p, c, mode=mode))
        psi_pos = Potential("explicit_table", tuple(rng.uniform(0.0, 1.0) for _ in range(n_pts)))
        reports.extend(
            check_power_rule(cloud, schedule, psi_pos, n=2, m_range=(1, 2), eps_list=(eps,), mode=mode, include_proxy=False)
        )
        reports.extend(
            check_truncation_monotonicity(
                cloud, schedule, psi, i=1, j=2, n_range=(2, 3), eps_list=(eps,), mode=mode, include_proxy=False
            )
        )
    return reports


def summarize_reports(reports: Sequence[InequalityReport]) -> str:
    """Human-readable verdict table."""
    lines = [f"{'check':38s} {'level':18s} {'verdict':20s} {'slack':>14s}"]
    for r in reports:
        lines.append(f"{r.name:38s} {r.level:18s} {r.verdict:20s} {r.slack:14.6g}")
    counts: dict[str, int] = {}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    lines.append("totals: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return "\n".join(lines)
