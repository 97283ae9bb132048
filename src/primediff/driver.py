"""Density-increment iteration: case analysis, trace, certification.

One step inspects a set A of density alpha in [1, N] with difference
parameter d and lands in exactly one of five outcomes:

  StructureFound       a realized difference s has d s + 1 prime
  SmallN               N fell below the working floor
  SmallAlpha           alpha fell below its floor
  DensityIncrement     a step-q progression where alpha grows by the
                       configured factor; the set rescales and d <- d q
  LargeDOrSmallAlpha   no usable arc energy at admissible levels

A run is the transitive closure plus a Budget terminal when max_steps is
hit.  Every quantitative claim a step makes is recounted from the recorded
set snapshots by certify(), which never trusts transforms: intersection
counts are recounted elementwise, primality is re-established by
Miller-Rabin, d-chains and rescalings are recomputed, and an increment's
recorded arc energy is recounted from the set's difference counts against
closed-form arc kernels, sharing neither grid_power nor arc_ranges with
the step that produced it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .arith import ArithTables, euler_phi, is_prime
from .avoider import ForbiddenSet, find_forbidden_pair
from .errors import CertificationError, DomainError, EnergyShortfall, PreconditionError
from .increment import (
    DensitySet,
    IncrementOutcome,
    energy_table,
    extract_progression,
    rescale,
)
from .spectral import grid_power

__all__ = [
    "Budget",
    "DensityIncrement",
    "InnerProductStats",
    "IterationConfig",
    "LargeDOrSmallAlpha",
    "SmallAlpha",
    "SmallN",
    "StructureFound",
    "Trace",
    "TraceStep",
    "certify",
    "inner_product_stats",
    "iterate_once",
    "run",
    "trace_to_jsonl",
]


@dataclass(frozen=True)
class IterationConfig:
    """Knobs for one run.  Derived quantities:

    N'  = floor(c alpha N)                      correlation window
    Q'  = d^4 (log N)^8 / (c'^2 alpha^2)        level cutoff, clamped to [1, q_cap]
    Q   = max(ceil(N'/Q'), 2 Q')                dissection parameter, eta = 1/(qQ)
    Q'' = 1 / (c''^2 alpha^2)                   extraction level cap, clamped

    c_prime defaults high so Q' lands in the tens at N ~ 10^3..10^4 instead
    of overflowing any usable range; c defaults to 1/4 so sets of polylog
    size (the realistic density of avoiding sets at this scale) still get a
    nonempty correlation window.  The 2 Q' floor on Q keeps arcs narrower
    than the spacing of level-Q' centers when N' collapses.
    """

    c: float = 0.25
    c_prime: float = 2000.0
    c_double_prime: float = 1.0
    grid_factor: int = 8
    gain_threshold: float = 0.02
    max_steps: int = 32
    alpha_floor: float = 1e-3
    n_floor: int = 32
    d_ceiling_exponent: float = 0.25
    q_cap: int = 50
    c_len: float = 0.25

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"config field {f.name} must be finite, got {value}")
        for name in ("c", "c_prime", "c_double_prime", "gain_threshold",
                     "alpha_floor", "c_len"):
            if getattr(self, name) <= 0:
                raise DomainError(f"config field {name} must be positive")
        if self.grid_factor < 8:
            raise DomainError("grid_factor below 8 breaks arc quadrature")
        if self.max_steps < 1 or self.n_floor < 2 or self.q_cap < 1:
            raise DomainError("max_steps, n_floor, q_cap out of range")
        if self.d_ceiling_exponent <= 0 or self.d_ceiling_exponent > 1:
            raise DomainError("d_ceiling_exponent must lie in (0, 1]")

    def n_prime(self, n: int, alpha: float) -> int:
        return math.floor(self.c * alpha * n)

    def level_cutoff(self, n: int, d: int, alpha: float) -> int:
        raw = d**4 * math.log(n) ** 8 / (self.c_prime**2 * alpha**2)
        return int(min(max(raw, 1.0), self.q_cap))

    def dissection_q(self, n_prime: int, q_prime: int) -> int:
        return max(math.ceil(n_prime / q_prime), 2 * q_prime)

    def extraction_cap(self, alpha: float) -> int:
        raw = 1.0 / (self.c_double_prime**2 * alpha**2)
        return int(min(max(raw, 1.0), self.q_cap))

    def d_ceiling(self, n: int) -> float:
        return n**self.d_ceiling_exponent

    @cached_property
    def _header(self) -> dict:
        """asdict(self) for the trace header, built once per config (the
        cached value sits outside the frozen fields; callers must not
        mutate it)."""
        return asdict(self)


# ---------------------------------------------------------------------------
# outcomes


@dataclass(frozen=True)
class StructureFound:
    x: int
    p: int
    lower: int
    upper: int
    tag = "structure_found"


@dataclass(frozen=True)
class SmallN:
    n: int
    tag = "small_n"


@dataclass(frozen=True)
class SmallAlpha:
    alpha: float
    tag = "small_alpha"


@dataclass(frozen=True)
class LargeDOrSmallAlpha:
    reason: str
    tag = "large_d_or_small_alpha"


@dataclass(frozen=True)
class DensityIncrement:
    q: int
    outcome: IncrementOutcome
    new_set: DensitySet
    new_d: int
    tag = "density_increment"


@dataclass(frozen=True)
class Budget:
    steps: int
    tag = "budget"


# ---------------------------------------------------------------------------
# inner products


@dataclass(frozen=True)
class InnerProductStats:
    """Correlation inner products against the weight Lambda(d x + 1) on
    x in [1, N'].  delta is the balanced combination over the main term:

        delta = (AA - alpha AI - alpha IA + alpha^2 II) / (alpha^2 II).

    support_violations lists x with A-difference mass AND d x + 1 prime;
    it must be empty whenever A avoids the forbidden differences (any
    remaining weight support then sits on proper prime powers)."""

    n_prime: int
    ip_set_set: float
    ip_set_interval: float
    ip_interval_set: float
    ip_interval_interval: float
    delta: float
    support_violations: tuple


def _difference_counts(A: DensitySet, top: int) -> np.ndarray:
    """r[x] = #{(a,b) in A^2 : a - b = x} for x = 0..top, via FFT."""
    size = 1
    while size < 2 * A.n:
        size *= 2
    ind = np.zeros(size, dtype=np.float64)
    ind[A.elements - 1] = 1.0
    spec = np.fft.rfft(ind)
    corr = np.fft.irfft(spec * np.conj(spec), n=size)
    return np.rint(corr[: top + 1]).astype(np.int64)


def _correlations(A: DensitySet, top: int) -> tuple[np.ndarray, ...]:
    """(r_AA, r_AI, r_IA, r_II) at x = 0..top with I = [1, N]: the pairs
    (u, v) with u - v = x from A x A, A x I, I x A and I x I.  r_AA is the
    exact integer count of _difference_counts, the other three closed forms
    (set-interval by suffix counts), as floats."""
    x = np.arange(top + 1, dtype=np.int64)
    r_aa = _difference_counts(A, top)
    r_ai = (A.size - np.searchsorted(A.elements, x, side="right")).astype(np.float64)
    r_ia = np.searchsorted(A.elements, A.n - x, side="right").astype(np.float64)
    r_ii = (A.n - x).astype(np.float64)
    return r_aa, r_ai, r_ia, r_ii


def inner_product_stats(
    A: DensitySet, d: int, config: IterationConfig, tables: ArithTables
) -> InnerProductStats:
    n = A.n
    alpha = A.alpha
    n_prime = config.n_prime(n, alpha)
    if n_prime < 1:
        raise PreconditionError(f"window floor(c alpha N) = 0 at N={n}, alpha={alpha}")
    if n_prime > n - 1:  # no difference in [1, N] reaches N
        raise PreconditionError(
            f"window floor(c alpha N) = {n_prime} exceeds N - 1 at N={n}, alpha={alpha}"
        )
    tables.check_range(d * n_prime + 1)
    lam = tables.mangoldt[d + 1 : d * n_prime + 2 : d]
    r_aa, r_ai, r_ia, r_ii = (r[1:] for r in _correlations(A, n_prime))

    ip_aa = float(np.dot(r_aa, lam))
    ip_ai = float(np.dot(r_ai, lam))
    ip_ia = float(np.dot(r_ia, lam))
    ip_ii = float(np.dot(r_ii, lam))
    balanced = ip_aa - alpha * ip_ai - alpha * ip_ia + alpha * alpha * ip_ii
    delta = balanced / (alpha * alpha * ip_ii) if ip_ii > 0 else 0.0

    viol = []
    hot = np.nonzero((r_aa > 0) & (lam > 0))[0]
    for i in hot.tolist():
        v = d * (i + 1) + 1
        if tables.spf[v] == v:
            viol.append(i + 1)
    return InnerProductStats(
        n_prime=n_prime,
        ip_set_set=ip_aa,
        ip_set_interval=ip_ai,
        ip_interval_set=ip_ia,
        ip_interval_interval=ip_ii,
        delta=delta,
        support_violations=tuple(viol),
    )


# ---------------------------------------------------------------------------
# one step


def iterate_once(
    A: DensitySet,
    d: int,
    config: IterationConfig,
    tables: ArithTables,
):
    """Run the case analysis once.  Returns (outcome, diagnostics dict)."""
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    n = A.n
    alpha = A.alpha

    if n < config.n_floor:
        return SmallN(n), {}
    if alpha < config.alpha_floor:
        return SmallAlpha(alpha), {}

    pair = find_forbidden_pair(A.elements, ForbiddenSet.build(n, d, tables))
    if pair is not None:
        s, lower, upper = pair
        return StructureFound(x=s, p=d * s + 1, lower=lower, upper=upper), {}

    if d > config.d_ceiling(n):
        return (
            LargeDOrSmallAlpha(
                reason=f"d={d} above N^{config.d_ceiling_exponent} = "
                f"{config.d_ceiling(n):.3g}"
            ),
            {},
        )

    n_prime = config.n_prime(n, alpha)
    if n_prime < 1:
        return SmallN(n), {"n_prime": n_prime}
    q_prime = config.level_cutoff(n, d, alpha)
    big_q = config.dissection_q(n_prime, q_prime)
    q_double = config.extraction_cap(alpha)
    q_top = max(q_prime, q_double)

    grid = grid_power(A.balanced(), config.grid_factor * n)
    table = energy_table(A, q_top, big_q, grid=grid)
    phi = {r.q: euler_phi(r.q) for r in table.rows}
    trigger = sum(r.star_energy / phi[r.q] for r in table.rows if r.q <= q_prime)
    diagnostics = {
        "n_prime": n_prime,
        "q_prime": q_prime,
        "big_q": big_q,
        "q_double": q_double,
        "trigger": trigger,
        "energy_table": table,
    }

    candidates = [r for r in table.rows if r.q <= q_double and r.star_energy > 0]
    if candidates:
        best = max(candidates, key=lambda r: (r.star_energy / phi[r.q], -r.q))
        target_e = 4.0 * config.gain_threshold
        try:
            out = extract_progression(A, best, target_e, c_len=config.c_len)
        except EnergyShortfall as shortfall:
            return (
                LargeDOrSmallAlpha(
                    reason=f"energy {shortfall.measured:.4g} below {shortfall.required:.4g} "
                    f"at level q={best.q}"
                ),
                diagnostics,
            )
        if out.met_guarantee and out.new_alpha >= alpha * (1.0 + config.gain_threshold):
            new_set = rescale(A, out.progression)
            return (
                DensityIncrement(
                    q=best.q, outcome=out, new_set=new_set, new_d=d * best.q
                ),
                diagnostics,
            )
        diagnostics["rejected"] = out
        return (
            LargeDOrSmallAlpha(
                reason=f"extraction at q={best.q} reached alpha ratio "
                f"{out.new_alpha / alpha:.4g}, below guarantee"
            ),
            diagnostics,
        )
    return LargeDOrSmallAlpha(reason="no positive star energy at admissible levels"), diagnostics


# ---------------------------------------------------------------------------
# runs and traces


@dataclass(frozen=True)
class TraceStep:
    step: int
    n: int
    d: int
    alpha: float
    outcome: object
    set_snapshot: tuple
    energy_top: tuple
    q: int | None


@dataclass(frozen=True)
class Trace:
    steps: list
    terminal: str
    config: IterationConfig
    initial_n: int
    initial_d: int


def _energy_top(diagnostics: dict, k: int = 3) -> tuple:
    table = diagnostics.get("energy_table")
    if table is None:
        return ()
    ranked = sorted(table.rows, key=lambda r: -r.star_energy)[:k]
    return tuple((r.q, r.star_energy) for r in ranked)


def run(A: DensitySet, d: int, config: IterationConfig, tables: ArithTables) -> Trace:
    steps = []
    current, cur_d = A, d
    terminal = None
    for i in range(1, config.max_steps + 1):
        outcome, diagnostics = iterate_once(current, cur_d, config, tables)
        steps.append(
            TraceStep(
                step=i,
                n=current.n,
                d=cur_d,
                alpha=current.alpha,
                outcome=outcome,
                set_snapshot=tuple(current.elements.tolist()),
                energy_top=_energy_top(diagnostics),
                q=outcome.q if isinstance(outcome, DensityIncrement) else None,
            )
        )
        if isinstance(outcome, DensityIncrement):
            current, cur_d = outcome.new_set, outcome.new_d
            continue
        terminal = outcome.tag
        break
    if terminal is None:
        terminal = Budget(steps=len(steps)).tag
    return Trace(
        steps=steps,
        terminal=terminal,
        config=config,
        initial_n=A.n,
        initial_d=d,
    )


def _outcome_json(outcome) -> dict | None:
    if isinstance(outcome, StructureFound):
        return {"x": outcome.x, "p": outcome.p, "lower": outcome.lower, "upper": outcome.upper}
    if isinstance(outcome, DensityIncrement):
        o = outcome.outcome
        return {
            "first": o.progression.first,
            "step": o.progression.step,
            "length": o.progression.length,
            "count": o.intersection_count,
            "new_alpha": o.new_alpha,
        }
    if isinstance(outcome, LargeDOrSmallAlpha):
        return {"reason": outcome.reason}
    return None


_ENCODE = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True)


def trace_to_jsonl(trace: Trace, manifest: dict | None = None) -> list[str]:
    """Header record first (config + manifest), then one record per step:
    step, n, d, alpha, outcome, q, witness?, energy_top."""
    header = {
        "record": "header",
        "initial_n": trace.initial_n,
        "initial_d": trace.initial_d,
        "terminal": trace.terminal,
        "config": trace.config._header,
    }
    if manifest is not None:
        header["manifest"] = manifest
    lines = [_ENCODE(header)]
    for s in trace.steps:
        rec = {
            "step": s.step,
            "n": s.n,
            "d": s.d,
            "alpha": s.alpha,
            "outcome": s.outcome.tag,
            "q": s.q,
            "energy_top": [[q, e] for q, e in s.energy_top],
        }
        witness = _outcome_json(s.outcome)
        if witness is not None:
            rec["witness"] = witness
        lines.append(_ENCODE(rec))
    return lines


# ---------------------------------------------------------------------------
# certification


def _recount_energy(A: DensitySet, q: int, m: int, big_q: int) -> float:
    """E of A at level q on the M-point grid, recounted in physical space:
    no grid transform, and arc ends of its own.  On a finite grid

        sum_{k in S} |g_hat(k/M)|^2 = sum_{|h| < N} r_g(h) K_S(h),

    r_g the autocorrelation of g = 1_A - alpha 1_[1,N] (_correlations) and
    K_S(h) the sum over the level's arcs of

        sum_{k=lo}^{hi} cos(2 pi h k / M)
            = sin(pi h L / M) cos(pi h (lo + hi) / M) / sin(pi h / M),

    L = hi - lo + 1, with lo = ceil((aM - w)/q), hi = floor((aM + w)/q),
    w = floor(M/Q).  When 2w >= M each arc meets the next at one point
    (the a = q arc meets a = 1 past M), counted once.  Works arc by arc in
    O(N) memory."""
    alpha = A.alpha
    r_aa, r_ai, r_ia, r_ii = _correlations(A, A.n - 1)
    r = r_aa - alpha * (r_ai + r_ia) + alpha * alpha * r_ii
    w = m // big_q
    a = np.arange(1, q + 1, dtype=np.int64)
    lo = -((w - a * m) // q)  # ceil((aM - w) / q)
    hi = (a * m + w) // q
    hi[hi == np.append(lo[1:], lo[0] + m)] -= 1  # the point shared with the next arc
    length = hi - lo + 1
    h = np.arange(1, A.n, dtype=np.int64)
    kernel = np.zeros(A.n - 1)
    for size, ends in zip(length.tolist(), (lo + hi).tolist()):
        # both angles reduced mod 2M in int64 before the float multiply
        kernel += np.sin(np.pi / m * (h * size % (2 * m))) * np.cos(
            np.pi / m * (h * ends % (2 * m))
        )
    kernel /= np.sin(np.pi / m * h)
    total = float(r[0]) * int(length.sum()) + 2.0 * float(np.dot(r[1:], kernel))
    return total / (alpha * A.size * m)


def certify(trace: Trace, tables: ArithTables) -> list[str]:
    """Re-verify every step of a trace from its raw set snapshots.

    Recounts intersections, re-runs primality by Miller-Rabin, recomputes
    rescalings and d-chains, and recounts each increment's recorded level-q
    energy E from the set's difference counts and the level's arc ends
    (_recount_energy), sharing neither the grid transform nor the arc
    ranges that produced it.  Returns one human-readable line per step;
    raises CertificationError on the first mismatch."""
    cfg = trace.config
    lines = []
    for idx, s in enumerate(trace.steps):
        where = f"step {s.step}"
        if s.step != idx + 1:
            raise CertificationError(f"{where}: step indices not contiguous")
        try:
            A = DensitySet(s.n, np.array(s.set_snapshot, dtype=np.int64))
        except (DomainError, OverflowError) as exc:
            raise CertificationError(f"{where}: bad snapshot: {exc}") from None
        if not math.isclose(A.alpha, s.alpha, rel_tol=0, abs_tol=1e-12):
            raise CertificationError(f"{where}: alpha {s.alpha} != recount {A.alpha}")
        out = s.outcome

        if isinstance(out, SmallN):
            # two emission paths: the universe fell under the floor, or the
            # correlation window floor(c * alpha * n) collapsed to zero
            if s.n >= cfg.n_floor and cfg.n_prime(s.n, s.alpha) >= 1:
                raise CertificationError(f"{where}: SmallN but n={s.n} >= floor {cfg.n_floor}")
            lines.append(f"{where}: small_n ok (n={s.n})")
        elif isinstance(out, SmallAlpha):
            if s.alpha >= cfg.alpha_floor:
                raise CertificationError(f"{where}: SmallAlpha but alpha={s.alpha}")
            lines.append(f"{where}: small_alpha ok (alpha={s.alpha:.4g})")
        elif isinstance(out, StructureFound):
            if out.upper - out.lower != out.x:
                raise CertificationError(f"{where}: witness difference mismatch")
            if not (A.contains(out.lower) and A.contains(out.upper)):
                raise CertificationError(f"{where}: witness endpoints not in set")
            if out.p != s.d * out.x + 1 or not is_prime(out.p):
                raise CertificationError(f"{where}: {out.p} != {s.d}*{out.x}+1 prime")
            lines.append(f"{where}: structure_found ok (x={out.x}, p={out.p})")
        elif isinstance(out, LargeDOrSmallAlpha):
            lines.append(f"{where}: large_d_or_small_alpha ok ({out.reason})")
        elif isinstance(out, DensityIncrement):
            o = out.outcome
            P = o.progression
            if not P.within(s.n):
                raise CertificationError(f"{where}: progression leaves [1, {s.n}]")
            if P.step != out.q:
                raise CertificationError(f"{where}: progression step != chosen q")
            member = np.zeros(s.n + 1, dtype=bool)
            member[A.elements] = True
            recount = int(np.count_nonzero(member[P.points()]))
            if recount != o.intersection_count:
                raise CertificationError(
                    f"{where}: intersection recount {recount} != {o.intersection_count}"
                )
            if not math.isclose(o.new_alpha, recount / P.length, rel_tol=0, abs_tol=1e-12):
                raise CertificationError(f"{where}: new_alpha inconsistent with recount")
            if o.new_alpha < s.alpha * (1.0 + cfg.gain_threshold) - 1e-12:
                raise CertificationError(f"{where}: gain below configured threshold")
            if out.new_d != s.d * out.q:
                raise CertificationError(f"{where}: d chain broken")
            expected = rescale(A, P)
            if idx + 1 < len(trace.steps):
                nxt = trace.steps[idx + 1]
                if nxt.n != P.length or nxt.d != out.new_d:
                    raise CertificationError(f"{where}: next step (n, d) mismatch")
                if tuple(expected.elements.tolist()) != nxt.set_snapshot:
                    raise CertificationError(f"{where}: rescaled snapshot mismatch")
            # energy recount from the snapshot's difference counts at level q,
            # not read from the step's energy table nor its power grid
            n_prime = cfg.n_prime(s.n, s.alpha)
            big_q = cfg.dissection_q(n_prime, cfg.level_cutoff(s.n, s.d, s.alpha))
            recomputed = _recount_energy(A, out.q, cfg.grid_factor * s.n, big_q)
            recorded = o.detail.get("energy")
            if recorded is None or abs(recomputed - recorded) > 1e-9 * max(1.0, recorded):
                raise CertificationError(
                    f"{where}: energy recount {recomputed} != recorded {recorded}"
                )
            lines.append(
                f"{where}: density_increment ok (q={out.q}, count={recount}/{P.length})"
            )
        else:
            raise CertificationError(f"{where}: unknown outcome {out!r}")
    lines.append(f"terminal: {trace.terminal} ok")
    return lines
