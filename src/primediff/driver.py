"""Density-increment iteration: case analysis, trace, certification.

One step, iterate_once, inspects a set A of density alpha in [1, N] with
difference parameter d and lands in exactly one of five outcomes; it is
the whole case analysis, the energy step included, and energy lends it
numerics only:

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
Miller-Rabin, a step past the pair search has its set searched again, a
step stopped by the d ceiling has d above it, an increment has d at or
below it, d-chains are recomputed, rescalings are rebuilt from the
snapshot by the certifier's own arithmetic, not rescale, and an
increment's recorded arc energy is recounted from the set's exact pair
differences against closed-form arc kernels, sharing neither grid_power
nor arc_ranges with the step that produced it.  The run as a whole is
checked too: where it starts, that only increments are followed by a
step, and its terminal.
Producer and recount read one grid size, IterationConfig.grid_size: the
least 5-smooth M >= grid_factor N.

A step searches pairs on the int bitset of its set's elements (avoider's
_mask and _pair_in_mask), which a DensitySet holds ascending and distinct,
so nothing is sorted or deduplicated again, and a trace snapshot is the
elements tuple itself.  This module imports no numpy (see arith): a step
that reaches the energy table, and certify's recount of an increment,
import energy where they run.  A run whose steps all end at small_n,
small_alpha, structure_found or the d ceiling, and its certification,
load no numpy.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property

from .arith import is_prime
from .avoider import ForbiddenSet, _mask, _pair_in_mask
from .errors import CertificationError, DomainError
from .increment import DensitySet

__all__ = [
    "Budget",
    "DensityIncrement",
    "IterationConfig",
    "LargeDOrSmallAlpha",
    "SmallAlpha",
    "SmallN",
    "StructureFound",
    "Trace",
    "TraceStep",
    "certify",
    "iterate_once",
    "run",
    "trace_to_jsonl",
]


class IterationConfig(
    namedtuple(
        "IterationConfig",
        "c c_prime c_double_prime grid_factor gain_threshold max_steps alpha_floor"
        " n_floor d_ceiling_exponent q_cap c_len",
        defaults=(0.25, 2000.0, 1.0, 8, 0.02, 32, 1e-3, 32, 0.25, 50, 0.25),
    )
):
    """Knobs for one run.  Derived quantities:

    N'  = floor(c alpha N)                      correlation window
    Q'  = d^4 (log N)^8 / (c'^2 alpha^2)        level cutoff, clamped to [1, q_cap]
    Q   = max(ceil(N'/Q'), 2 Q')                dissection parameter, eta = 1/(qQ)
    Q'' = 1 / (c''^2 alpha^2)                   extraction level cap, clamped
    M   = fft_size(grid_factor N)               quadrature grid, the least
                                                5-smooth size >= grid_factor N

    c_prime defaults high so Q' lands in the tens at N ~ 10^3..10^4 instead
    of overflowing any usable range; c defaults to 1/4 so sets of polylog
    size (the realistic density of avoiding sets at this scale) still get a
    nonempty correlation window.  The 2 Q' floor on Q keeps arcs narrower
    than the spacing of level-Q' centers when N' collapses.

    The constructor checks every field, and _make, so _replace too, goes
    through it.  No __slots__: _header_json caches in the instance dict.
    """

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"config field {name} must be finite, got {value}")
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
        return self

    def n_prime(self, n: int, alpha: float) -> int:
        window = self.c * alpha * n
        if window == math.inf:
            raise DomainError(f"window c alpha N past the float range at c={self.c}, N={n}")
        return math.floor(window)

    def level_cutoff(self, n: int, d: int, alpha: float) -> int:
        return self._clamped(d**4 * math.log(n) ** 8, self.c_prime, alpha)

    def dissection_q(self, n_prime: int, q_prime: int) -> int:
        return max(math.ceil(n_prime / q_prime), 2 * q_prime)

    def extraction_cap(self, alpha: float) -> int:
        return self._clamped(1.0, self.c_double_prime, alpha)

    def _clamped(self, top: float, c: float, alpha: float) -> int:
        """top / (c^2 alpha^2) clamped to [1, q_cap], past the float range too."""
        try:
            return int(min(max(top / (c**2 * alpha**2), 1.0), self.q_cap))
        except ZeroDivisionError:  # c^2 alpha^2 underflowed to 0
            return self.q_cap
        except OverflowError:  # c^2 overflowed
            return 1

    def grid_size(self, n: int) -> int:
        from .spectral import fft_size

        return fft_size(self.grid_factor * n)

    def d_ceiling(self, n: int) -> float:
        return n**self.d_ceiling_exponent

    @cached_property
    def _header_json(self) -> str:
        """The config as the trace header's JSON, encoded once per config
        (the cached value sits in the instance dict, outside the fields)."""
        return _ENCODE(self._asdict())


# ---------------------------------------------------------------------------
# outcomes: namedtuples, so SmallN(32) == Budget(32) as tuples; an outcome
# is told apart by its class (isinstance, or its tag), never by ==


class StructureFound(namedtuple("StructureFound", "x p lower upper")):
    __slots__ = ()
    tag = "structure_found"


class SmallN(namedtuple("SmallN", "n")):
    __slots__ = ()
    tag = "small_n"


class SmallAlpha(namedtuple("SmallAlpha", "alpha")):
    __slots__ = ()
    tag = "small_alpha"


class LargeDOrSmallAlpha(namedtuple("LargeDOrSmallAlpha", "reason")):
    __slots__ = ()
    tag = "large_d_or_small_alpha"


class DensityIncrement(namedtuple("DensityIncrement", "q outcome new_set new_d")):
    __slots__ = ()
    tag = "density_increment"


class Budget(namedtuple("Budget", "steps")):
    __slots__ = ()
    tag = "budget"


# ---------------------------------------------------------------------------
# one step


def _ceiling_reason(n: int, d: int, config: IterationConfig) -> str:
    """The reason of a step stopped by the d ceiling; the one reason that
    starts with "d="."""
    return f"d={d} above N^{config.d_ceiling_exponent} = {config.d_ceiling(n):.3g}"


def iterate_once(A: DensitySet, d: int, config: IterationConfig):
    """Run the case analysis once: the floors, the pair search, the d
    ceiling, then the energy table of A at levels 1..max(Q', Q''), the
    admissible level with the highest E*/phi(q) and the extraction there.
    Returns (outcome, diagnostics dict)."""
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    n = A.n
    alpha = A.alpha

    if n < config.n_floor:
        return SmallN(n), {}
    if alpha < config.alpha_floor:
        return SmallAlpha(alpha), {}

    fs = ForbiddenSet.build(n, d)
    pair = _pair_in_mask(_mask(A.elements), A.elements, fs)
    if pair is not None:
        s, lower, upper = pair
        return StructureFound(x=s, p=d * s + 1, lower=lower, upper=upper), {}

    if d > config.d_ceiling(n):
        return LargeDOrSmallAlpha(reason=_ceiling_reason(n, d, config)), {}

    n_prime = config.n_prime(n, alpha)
    if n_prime < 1:
        return SmallN(n), {"n_prime": n_prime}
    q_prime = config.level_cutoff(n, d, alpha)
    big_q = config.dissection_q(n_prime, q_prime)
    q_double = config.extraction_cap(alpha)
    q_top = max(q_prime, q_double)

    from . import energy

    table = energy.energy_table(A, q_top, big_q, config.grid_size(n))
    # E*/phi(q) at levels 1..q_top, level q at index q - 1; trigger sums it in level order
    ratio = (table.star_energy / energy._phi_column(q_top)).tolist()
    diagnostics = dict(n_prime=n_prime, q_prime=q_prime, big_q=big_q, q_double=q_double,
                       trigger=sum(ratio[:q_prime]), energy_table=table)

    # levels q <= Q'' with E* > 0: the highest E*/phi(q), the lowest q among ties
    star = table.star_energy[:q_double].tolist()
    admissible = [i for i, e in enumerate(star) if e > 0]
    if not admissible:
        return LargeDOrSmallAlpha("no positive star energy at admissible levels"), diagnostics
    best = table.row(1 + max(admissible, key=ratio.__getitem__))
    target = 4.0 * config.gain_threshold
    if best.energy < target:
        reason = f"energy {best.energy:.4g} below {target:.4g} at level q={best.q}"
        return LargeDOrSmallAlpha(reason), diagnostics
    out = energy.extract_progression(A, best, c_len=config.c_len)
    if out.met_guarantee and out.new_alpha >= alpha * (1.0 + config.gain_threshold):
        new_set = energy.rescale(A, out.progression)
        return DensityIncrement(best.q, out, new_set, d * best.q), diagnostics
    reason = (f"extraction at q={best.q} reached alpha ratio {out.new_alpha / alpha:.4g},"
              " below guarantee")
    return LargeDOrSmallAlpha(reason), diagnostics


# ---------------------------------------------------------------------------
# runs and traces


class TraceStep(
    namedtuple("TraceStep", "step n d alpha outcome set_snapshot energy_top q")
):
    __slots__ = ()


class Trace(namedtuple("Trace", "steps terminal config initial_n initial_d")):
    __slots__ = ()


def _energy_top(diagnostics: dict, k: int = 3) -> tuple:
    table = diagnostics.get("energy_table")
    if table is None:
        return ()
    # the highest E* first, ties in ascending q: a stable sort, in Python, so
    # numpy's sort code (about 128 kB of resident pages) stays unmapped
    star = table.star_energy.tolist()
    top = sorted(range(len(star)), key=star.__getitem__, reverse=True)[:k]
    return tuple((q + 1, star[q]) for q in top)


def run(A: DensitySet, d: int, config: IterationConfig, tables=None) -> Trace:
    """Steps from (A, d) to a terminal outcome.  tables is accepted for
    callers that still pass sieve tables, and not read."""
    steps = []
    current, cur_d = A, d
    terminal = None
    for i in range(1, config.max_steps + 1):
        outcome, diagnostics = iterate_once(current, cur_d, config)
        steps.append(
            TraceStep(
                step=i,
                n=current.n,
                d=cur_d,
                alpha=current.alpha,
                outcome=outcome,
                set_snapshot=current.elements,
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
    }
    if manifest is not None:
        header["manifest"] = manifest
    # "config" sorts before every other key, so its encoding opens the line
    lines = ['{"config": ' + trace.config._header_json + ", " + _ENCODE(header)[1:]]
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


def _holds(snapshot: tuple, x: int) -> bool:
    """x in the ascending snapshot, by bisection."""
    i = bisect_left(snapshot, x)
    return i < len(snapshot) and snapshot[i] == x


def certify(trace: Trace, tables=None) -> list[str]:
    """Re-verify every step of a trace from its raw set snapshots, then the
    run as a whole, as the module docstring lists; besides, each increment's
    level must be at most the extraction cap and be the step's recorded q
    (no other step records one), and the run must have at most max_steps
    steps.  tables is accepted for callers that still pass sieve tables,
    and not read.  Returns one human-readable line per step; raises
    CertificationError on the first mismatch."""
    cfg = trace.config
    if not trace.steps:
        raise CertificationError("empty trace")
    lines = []
    for idx, s in enumerate(trace.steps):
        where = f"step {s.step}"
        if s.step != idx + 1:
            raise CertificationError(f"{where}: step indices not contiguous")
        try:
            A = DensitySet(s.n, s.set_snapshot)
        except DomainError as exc:
            raise CertificationError(f"{where}: bad snapshot: {exc}") from None
        if not math.isclose(A.alpha, s.alpha, rel_tol=0, abs_tol=1e-12):
            raise CertificationError(f"{where}: alpha {s.alpha} != recount {A.alpha}")
        out = s.outcome
        if isinstance(out, (LargeDOrSmallAlpha, DensityIncrement)):
            # the producer reaches these only on a set that avoids: search
            # afresh, whatever the step's pair search found
            try:
                fs = ForbiddenSet.build(s.n, s.d)
            except DomainError as exc:  # d < 1
                raise CertificationError(f"{where}: {exc}") from None
            pair = _pair_in_mask(_mask(A.elements), A.elements, fs)
            if pair is not None:
                raise CertificationError(
                    f"{where}: {out.tag} but {pair[2]} - {pair[1]} = {pair[0]} is forbidden"
                )

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
            if not (_holds(s.set_snapshot, out.lower) and _holds(s.set_snapshot, out.upper)):
                raise CertificationError(f"{where}: witness endpoints not in set")
            if out.p != s.d * out.x + 1 or not is_prime(out.p):
                raise CertificationError(f"{where}: {out.p} != {s.d}*{out.x}+1 prime")
            lines.append(f"{where}: structure_found ok (x={out.x}, p={out.p})")
        elif isinstance(out, LargeDOrSmallAlpha):
            if not isinstance(out.reason, str):
                raise CertificationError(f"{where}: reason {out.reason!r} is not text")
            # the d ceiling's reason must hold, d > N^e, and read as the step writes it
            if out.reason.startswith("d=") and (
                s.d <= cfg.d_ceiling(s.n) or out.reason != _ceiling_reason(s.n, s.d, cfg)
            ):
                raise CertificationError(
                    f"{where}: reason {out.reason!r}, but d={s.d} and N^"
                    f"{cfg.d_ceiling_exponent} = {cfg.d_ceiling(s.n):.3g}"
                )
            lines.append(f"{where}: large_d_or_small_alpha ok ({out.reason})")
        elif isinstance(out, DensityIncrement):
            # the producer checks the d ceiling before any energy work
            if s.d > cfg.d_ceiling(s.n):
                raise CertificationError(
                    f"{where}: density_increment at d={s.d} above N^"
                    f"{cfg.d_ceiling_exponent} = {cfg.d_ceiling(s.n):.3g}"
                )
            o = out.outcome
            P = o.progression
            if not P.within(s.n):
                raise CertificationError(f"{where}: progression leaves [1, {s.n}]")
            if P.step != out.q:
                raise CertificationError(f"{where}: progression step != chosen q")
            cap = cfg.extraction_cap(s.alpha)
            if out.q > cap:
                raise CertificationError(f"{where}: level q={out.q} above extraction cap {cap}")
            # A ∩ P pulled back to [1, |P|] by arithmetic of its own, not rescale:
            # the snapshot's points in [first, last], by bisection, on P's residue
            snap, first = s.set_snapshot, P.first
            inside = snap[bisect_left(snap, first) : bisect_right(snap, P.last())]
            pulled = tuple((x - first) // P.step + 1 for x in inside if (x - first) % P.step == 0)
            recount = len(pulled)
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
            if idx + 1 < len(trace.steps):
                nxt = trace.steps[idx + 1]
                if nxt.n != P.length or nxt.d != out.new_d:
                    raise CertificationError(f"{where}: next step (n, d) mismatch")
                if pulled != nxt.set_snapshot:
                    raise CertificationError(f"{where}: rescaled snapshot mismatch")
            # energy recount from the snapshot's difference counts at level q,
            # not read from the step's energy table nor its power grid
            from .energy import _recount_energy

            n_prime = cfg.n_prime(s.n, s.alpha)
            big_q = cfg.dissection_q(n_prime, cfg.level_cutoff(s.n, s.d, s.alpha))
            recomputed = _recount_energy(A, out.q, cfg.grid_size(s.n), big_q)
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
        # the step's recorded level: an increment's q, and none on any other step
        level = out.q if isinstance(out, DensityIncrement) else None
        if s.q != level:
            chose = "no level" if level is None else f"q={level}"
            raise CertificationError(f"{where}: recorded q={s.q}, but {out.tag} chose {chose}")
        if idx + 1 < len(trace.steps) and not isinstance(out, DensityIncrement):
            raise CertificationError(f"{where}: {out.tag} is followed by another step")

    first, last = trace.steps[0], trace.steps[-1]
    if len(trace.steps) > cfg.max_steps:
        raise CertificationError(f"{len(trace.steps)} steps, past max_steps {cfg.max_steps}")
    if (first.n, first.d) != (trace.initial_n, trace.initial_d):
        raise CertificationError(
            f"step 1: (n, d) = ({first.n}, {first.d}) != initial "
            f"({trace.initial_n}, {trace.initial_d})"
        )
    if isinstance(last.outcome, DensityIncrement):
        if trace.terminal != Budget.tag or len(trace.steps) != cfg.max_steps:
            raise CertificationError(
                f"terminal {trace.terminal!r} after {len(trace.steps)} steps ending on an "
                f"increment, max_steps {cfg.max_steps}"
            )
    elif trace.terminal != last.outcome.tag:
        raise CertificationError(
            f"terminal {trace.terminal!r} != the last step's {last.outcome.tag!r}"
        )
    lines.append(f"terminal: {trace.terminal} ok")
    return lines
