"""Output checks for the benchmark, written without importing primediff.

Every check returns a list of error strings; an empty list means the output
passed.  The arithmetic here (sieve, Miller-Rabin, trial division, continued
fractions) is the benchmark's own, so a defect in the program's arithmetic
cannot hide itself.  Byte-exact comparison is deliberately avoided: the CSV
layout may change on purpose, while the quantities checked here may not.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

TAGS = frozenset(
    {
        "structure_found",
        "small_n",
        "small_alpha",
        "large_d_or_small_alpha",
        "density_increment",
        "budget",
    }
)

# psi(x; q, a) computed at the commit that introduced the benchmark, from
# this module's own sieve; checked to 1e-9 relative.
PINNED_PSI = {(4_000_000, 4, 1): 1999847.1683928089}

SPECTRUM_HEADER = "theta,a,q,class,actual,bound,ratio"
SIEVE_HEADER = "n,mangoldt,mobius,phi"


# ---------------------------------------------------------------------------
# arithmetic


def prime_flags(limit: int) -> np.ndarray:
    """is_prime[0..limit] by the sieve of Eratosthenes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def mangoldt_values(limit: int) -> np.ndarray:
    """Lambda(0..limit), log p taken per prime with math.log."""
    lam = np.zeros(limit + 1, dtype=np.float64)
    for p in np.nonzero(prime_flags(limit))[0].tolist():
        logp = math.log(p)
        pk = p
        while pk <= limit:
            lam[pk] = logp
            pk *= p
    return lam


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (bases: first 13 primes)."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def trial_mangoldt(n: int) -> float:
    f = factorize(n)
    return math.log(f[0][0]) if len(f) == 1 else 0.0


def trial_mobius(n: int) -> int:
    f = factorize(n)
    return 0 if any(e > 1 for _, e in f) else (-1) ** len(f)


def trial_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def first_fit(n: int, d: int) -> list[int]:
    """The ascending first-fit avoiding subset of [1, n]."""
    flags = prime_flags(d * (n - 1) + 1)
    forbidden = np.nonzero(flags[d * np.arange(n) + 1])[0]  # s with d s + 1 prime
    blocked = np.zeros(n + 1, dtype=bool)
    chosen = []
    for x in range(1, n + 1):
        if not blocked[x]:
            chosen.append(x)
            hit = x + forbidden
            blocked[hit[hit <= n]] = True
    return chosen


def _rel_bad(got: np.ndarray, want: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(got - want) > tol * np.maximum(np.abs(want), 1e-300)


def _manifest_errors(line: str, command: str) -> list[str]:
    prefix = "# manifest: "
    if not line.startswith(prefix):
        return [f"last line is not a manifest: {line[:60]!r}"]
    try:
        manifest = json.loads(line[len(prefix) :])
    except ValueError:
        return ["manifest is not JSON"]
    if manifest.get("command") != command:
        return [f"manifest command {manifest.get('command')!r} != {command!r}"]
    return []


# ---------------------------------------------------------------------------
# spectrum


def parse_spectrum(text: str) -> dict:
    """Columns of a spectrum CSV as arrays; raises ValueError when malformed."""
    head, _, rest = text.partition("\n")
    body, _, manifest = rest.removesuffix("\n").rpartition("\n")
    if head != SPECTRUM_HEADER:
        raise ValueError(f"bad header {head[:60]!r}")
    numeric = body.replace(",major,", ",1,").replace(",minor,", ",0,")
    table = np.loadtxt(io.StringIO(numeric), delimiter=",", ndmin=2)
    if table.shape[1] != 7 or not np.isin(table[:, 3], (0, 1)).all():
        raise ValueError("rows need 7 fields with class major or minor")
    a, q = table[:, 1].astype(np.int64), table[:, 2].astype(np.int64)
    if (a != table[:, 1]).any() or (q != table[:, 2]).any():
        raise ValueError("a or q is not an integer")
    return {
        "theta": table[:, 0],
        "a": a,
        "q": q,
        "major": table[:, 3] == 1,
        "actual": table[:, 4],
        "bound": table[:, 5],
        "ratio": table[:, 6],
        "manifest": manifest,
    }


def check_spectrum(text: str, n: int, d: int, q_prime: int, big_q: int, seed: int) -> list[str]:
    try:
        cols = parse_spectrum(text)
    except ValueError as exc:
        return [f"spectrum: {exc}"]
    errors = _manifest_errors(cols["manifest"], "spectrum")
    m = 8 * n
    if len(cols["theta"]) != m:
        return errors + [f"spectrum: {len(cols['theta'])} rows, expected {m}"]
    k = np.arange(m, dtype=np.int64)
    a, q = cols["a"], cols["q"]
    lam = mangoldt_values(d * n + 1)[d + 1 : d * n + 2 : d]
    hat0 = float(lam.sum())

    def count(bad, what):
        if bad.any():
            errors.append(f"spectrum: {what} on {int(bad.sum())} rows, first k={int(np.argmax(bad))}")

    count(np.abs(cols["theta"] - k / m) > 1e-12, "theta != k/M")
    count((q < 1) | (q > big_q) | (a < 0) | (a > q), "a/q out of range")
    dist = np.abs(cols["theta"] - a / np.maximum(q, 1)) % 1.0
    dist = np.minimum(dist, 1.0 - dist)
    count(dist > 1.0 / (np.maximum(q, 1) * big_q) + 1e-12, "theta outside the arc of a/q")
    count(cols["major"] != (q <= q_prime), "class disagrees with q <= Q'")
    qs = np.maximum(q, 1)
    phi = np.array([trial_phi(v) for v in range(big_q + 1)])
    major_bound = hat0 / phi[np.minimum(qs, big_q)]
    logn4 = math.log(n) ** 4
    minor_bound = d * logn4 * (n / np.sqrt(qs) + n**0.8 + math.sqrt(n * big_q))
    count(_rel_bad(cols["bound"], np.where(cols["major"], major_bound, minor_bound), 1e-10), "bound")
    count(_rel_bad(cols["ratio"], cols["actual"] / cols["bound"], 1e-10), "ratio != actual/bound")
    parseval = float(np.sum(cols["actual"] ** 2) / m)
    energy = float(np.sum(lam**2))
    if abs(parseval - energy) > 1e-8 * energy:
        errors.append(f"spectrum: Parseval {parseval!r} != energy {energy!r}")
    rng = np.random.default_rng(seed)
    x = np.arange(1, n + 1, dtype=np.int64)
    for kk in [0] + rng.integers(1, m, size=32).tolist():
        exact = abs(np.dot(lam, np.exp(-2j * np.pi * ((x * kk) % m) / m)))
        if abs(cols["actual"][kk] - exact) > 1e-6 * hat0:
            errors.append(f"spectrum: actual {cols['actual'][kk]!r} != |transform| {exact!r} at k={kk}")
    return errors


def spectrum_defects(text: str, q_prime: int, big_q: int) -> dict:
    """Known-defect counters, in exact integer arithmetic.

    label_mismatch_rows: the label disagrees with major-arc membership,
    |k/M - a/q| <= 1/(qQ) for some q <= Q', tested as |k q Q - a M Q| <= M.
    q_mismatch_rows: q differs from the last continued-fraction convergent of
    the exact k/M with denominator <= Q."""
    cols = parse_spectrum(text)
    m = len(cols["theta"])
    k = np.arange(m, dtype=np.int64)
    in_major = np.zeros(m, dtype=bool)
    for q in range(1, q_prime + 1):
        a = (2 * k * q + m) // (2 * m)  # nearest numerator
        in_major |= np.abs(k * q * big_q - a * m * big_q) <= m
    label_bad = cols["major"] != in_major

    # convergents of k/M, vectorized over k; same recurrence as the program
    num, den = np.full(m, m, dtype=np.int64), k.copy()
    h_prev, h = np.ones(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    q_prev, qq = np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)
    live = den != 0
    while live.any():
        ai = np.where(live, num // np.where(live, den, 1), 0)
        q_next = ai * qq + q_prev
        live &= q_next <= big_q
        h_next = ai * h + h_prev
        h_prev, h = np.where(live, h, h_prev), np.where(live, h_next, h)
        q_prev, qq = np.where(live, qq, q_prev), np.where(live, q_next, qq)
        num, den = np.where(live, den, num), np.where(live, num - ai * den, den)
        live &= den != 0
    qq = np.where(h == qq, 1, qq)  # 1/1 is the arc of 0/1
    return {
        "label_mismatch_rows": int(label_bad.sum()),
        "q_mismatch_rows": int((qq != cols["q"]).sum()),
    }


# ---------------------------------------------------------------------------
# tables


def check_sieve(text: str, n_max: int, seed: int) -> list[str]:
    lines = text.split("\n")
    if len(lines) != n_max + 3 or lines[0] != SIEVE_HEADER or lines[-1] != "":
        return [f"sieve: {len(lines)} lines or bad header, expected {n_max} rows"]
    errors = _manifest_errors(lines[-2], "sieve")
    rng = np.random.default_rng(seed)
    sample = {1, 2, n_max} | set(rng.integers(1, n_max + 1, size=200).tolist())
    for n in sorted(sample):
        fields = lines[n].split(",")
        try:
            got_n, lam, mu, phi = int(fields[0]), float(fields[1]), int(fields[2]), int(fields[3])
        except (ValueError, IndexError):
            errors.append(f"sieve: unparsable row {lines[n][:60]!r}")
            continue
        want = trial_mangoldt(n)
        if got_n != n or abs(lam - want) > 1e-11 * max(1.0, want):
            errors.append(f"sieve: row {n} gives n={got_n}, Lambda={lam!r}, want {want!r}")
        if mu != trial_mobius(n) or phi != trial_phi(n):
            errors.append(f"sieve: row {n} gives mu={mu}, phi={phi}")
    return errors


def psi_from(lam: np.ndarray, x: int, q: int, a: int) -> float:
    """psi(x; q, a) from a table lam of Lambda(0..>=x)."""
    return float(lam[a % q or q : x + 1 : q].sum())


def check_psi(text: str, x: int, q: int, a: int) -> list[str]:
    lines = text.split("\n")
    if len(lines) != 3:
        return [f"psi: {len(lines)} lines, expected value and manifest"]
    try:
        value = float(lines[0])
    except ValueError:
        return [f"psi: unparsable value {lines[0][:60]!r}"]
    want = PINNED_PSI.get((x, q, a)) or psi_from(mangoldt_values(x), x, q, a)
    errors = _manifest_errors(lines[1], "psi")
    if not abs(value - want) <= 1e-9 * abs(want):
        errors.append(f"psi: {value!r} != reference {want!r}")
    return errors


def check_inversion(calls: list, values: list) -> list[str]:
    """Each verify_inversion(x, q, a) is at most 1e-6 max(1, psi(x; q, a))."""
    if len(values) != len(calls):
        return [f"characters: {len(values)} values for {len(calls)} calls"]
    top = max(x for x, _, _ in calls)
    lam = mangoldt_values(top)
    errors = []
    for (x, q, a), v in zip(calls, values):
        ref = psi_from(lam, x, q, a)
        if not (v is not None and math.isfinite(v) and 0 <= v <= 1e-6 * max(1.0, ref)):
            errors.append(f"characters: verify_inversion({x}, {q}, {a}) = {v!r}")
    return errors


# ---------------------------------------------------------------------------
# search


def check_extremal(text: str, n: int, d: int, optimum: int | None, at_least_first_fit: bool) -> list[str]:
    try:
        out = json.loads(text)
        elements = [int(v) for v in out["elements"]]
        size, optimal, forbidden_count = int(out["size"]), bool(out["optimal"]), int(out["forbidden_count"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"extremal: malformed output ({exc})"]
    errors = []
    if (out.get("manifest") or {}).get("command") != "extremal":
        errors.append("extremal: manifest missing or not for extremal")
    if out.get("n") != n or out.get("d") != d:
        errors.append("extremal: (n, d) not echoed")
    if size != len(elements) or elements != sorted(set(elements)):
        errors.append("extremal: elements not distinct and sorted, or size mismatch")
    if elements and (elements[0] < 1 or elements[-1] > n):
        errors.append(f"extremal: elements leave [1, {n}]")
    flags = prime_flags(d * max(n - 1, 1) + 1)
    if forbidden_count != int(flags[d * np.arange(1, n) + 1].sum()):
        errors.append(f"extremal: forbidden_count {forbidden_count} is wrong")
    e = np.array(elements, dtype=np.int64)
    diffs = (e[None, :] - e[:, None])[np.triu_indices(len(e), 1)]
    bad = diffs[(diffs >= 1) & (diffs < n)]
    if flags[d * bad + 1].any():
        s = int(bad[flags[d * bad + 1]][0])
        errors.append(f"extremal: set realizes forbidden difference {s} ({d * s + 1} prime)")
    if optimum is not None and (not optimal or size != optimum):
        errors.append(f"extremal: optimal={optimal} size={size}, expected optimum {optimum}")
    if at_least_first_fit and size < len(first_fit(n, d)):
        errors.append(f"extremal: size {size} below the first-fit size")
    return errors


# ---------------------------------------------------------------------------
# driver traces


def check_trace(jsonl: list[str], certify_lines: list[str], n: int, d: int, snapshots=None) -> list[str]:
    """A JSON-lines trace against its certify report and, when given, the
    per-step set snapshots (recounting witnesses and progressions)."""
    try:
        header, *steps = [json.loads(line) for line in jsonl]
    except ValueError:
        return ["trace: a line is not JSON"]
    errors = []
    terminal = header.get("terminal")
    if header.get("record") != "header" or terminal not in TAGS:
        errors.append(f"trace: bad header or terminal {terminal!r}")
    if header.get("initial_n") != n or header.get("initial_d") != d:
        errors.append("trace: header (n, d) mismatch")
    if not certify_lines or certify_lines[-1] != f"terminal: {terminal} ok":
        errors.append("trace: certify report does not end with the terminal")
    if len(jsonl) != len(certify_lines):  # one certify line per step plus the terminal
        errors.append(f"trace: {len(jsonl)} lines for {len(certify_lines) - 1} certified steps")
    for i, rec in enumerate(steps):
        try:
            errors += _step_errors(i + 1, rec, snapshots[i] if snapshots is not None else None)
        except (KeyError, TypeError, IndexError) as exc:
            errors.append(f"trace: step {i + 1} is malformed ({exc!r})")
        if i + 1 == len(steps) and terminal != "budget" and rec.get("outcome") != terminal:
            errors.append(f"trace: last step {rec.get('outcome')!r} != terminal {terminal!r}")
    return errors


def _step_errors(step: int, rec: dict, snapshot) -> list[str]:
    tag = rec["outcome"]
    if rec["step"] != step or tag not in TAGS:
        return [f"trace: step {step} has index {rec['step']} and tag {tag!r}"]
    errors = []
    w = rec.get("witness")
    if tag == "structure_found":
        if w["p"] != rec["d"] * w["x"] + 1 or not is_prime(w["p"]):
            errors.append(f"trace: step {step} witness {w['p']} is not d x + 1 prime")
        if w["upper"] - w["lower"] != w["x"]:
            errors.append(f"trace: step {step} witness endpoints do not differ by x")
        if snapshot is not None and not {w["lower"], w["upper"]} <= set(snapshot):
            errors.append(f"trace: step {step} witness endpoints not in the set")
    elif tag == "density_increment" and snapshot is not None:
        members = set(snapshot)
        count = sum(1 for j in range(w["length"]) if w["first"] + j * w["step"] in members)
        if count != w["count"] or not math.isclose(w["new_alpha"], count / w["length"], abs_tol=1e-12):
            errors.append(f"trace: step {step} progression count {w['count']} != recount {count}")
    return errors


# ---------------------------------------------------------------------------
# dispatch for CLI operations


def check_cli(op: dict, out_text: str, err_text: str, seed: int) -> list[str]:
    """Validate one CLI operation's output by its op spec (see workloads.py)."""
    kind, p = op["check"], op["params"]
    if kind == "spectrum":
        return check_spectrum(out_text, p["n"], p["d"], p["q_prime"], p["big_q"], seed)
    if kind == "sieve":
        return check_sieve(out_text, p["n_max"], seed)
    if kind == "psi":
        return check_psi(out_text, p["x"], p["q"], p["a"])
    if kind == "extremal":
        return check_extremal(out_text, p["n"], p["d"], p.get("optimum"), p.get("at_least_first_fit", False))
    if kind == "iterate":
        report = err_text.strip().split("\n")
        return check_trace(out_text.rstrip("\n").split("\n"), report, p["n"], p["d"])
    return [f"unknown check {kind!r}"]


def main(argv: list[str]) -> None:
    """validate.py OP_JSON OUT_PATH ERR_PATH SEED [--defects]: check one CLI
    output in a process of its own, so that the benchmark's parent process,
    whose peak RSS its children inherit on Linux, stays small."""
    op, seed = json.loads(argv[0]), int(argv[3])
    with open(argv[1]) as fh:
        text = fh.read()
    with open(argv[2]) as fh:
        err = fh.read()
    result = {"errors": check_cli(op, text, err, seed)}
    if "--defects" in argv[4:] and not result["errors"]:
        result["defects"] = spectrum_defects(text, op["params"]["q_prime"], op["params"]["big_q"])
    print(json.dumps(result))


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
