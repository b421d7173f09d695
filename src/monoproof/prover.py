"""Search for and verify infeasibility certificates of shadowing systems.

A certificate for a system is a tuple of positive integer coefficients
c_2..c_V whose weighted inequality sum f = sum_i c_i Q_i is strictly convex
(positive definite Hessian) with a strictly positive exact minimum; any
solution of the system would make f nonpositive, so a certificate proves
unsolvability.

Verification runs on the (V-1) x (V-1) integer matrix G(c) of one axis,
the one representation of the weighted form, which
expansion.weighted_inequality_sum builds (see expansion).  c is a
certificate exactly when all V-1 leading minors d_1..d_(V-1) of G(c) are
positive.  Then the one-axis form g_c is positive definite on {sum t = 0}
with minimum d_(V-1) / (2 d_(V-2)) at t_1 = 1, and since f is g_c summed
over the coordinate axes, f >= that minimum times |r_1|^2 in every
dimension: the certificate refutes its system for 0-skeletons in R^d for
all d, not only in R^3.  One pass of ratcore.symmetric_bareiss yields those
minors, and the minimizer, the V-2 free coordinates x = (t_2, ..., t_(V-1))
at t_1 = 1, comes from fraction-free back substitution.  The minimum is
returned as a Fraction and the minimizer only as integers: numerators over
one positive denominator in lowest terms, so the search and
re-verification compare integers.  verify_certificate then audits the
result on the geometry itself: it rebuilds the scaled vertices t_1..t_V
from those integers with expansion.scaled_vertices and checks the value and
the zero gradient of sum_i c_i (t_i^2 - t_i t_j(i)) over x in integers.

The search decides each trial in O(V) integer steps instead, by eliminating
the leaves of the system's tree (_tree_trial).  Both witnesses give one
verdict shape, a TrialOutcome: "non_pd" for a Hessian that is not positive
definite, "negative" for a nonpositive minimum, or, for a certificate, the
triple (min_value, minimizer_num, minimizer_den), which
VerifyResult.outcome gives for G(c).  The sweep decides every draw, a zero
pivot included, so the search never builds G(c), and prove_unsolvable
re-checks each certificate on G(c) by comparing the two triples.

The search takes coefficient tuples from the box [coeff_min, coeff_max]^(V-1)
and stops at the first certificate.  A box of at most max_trials points is
searched once, point by point in itertools.product order, so an exhausted
system has no certificate in it, whatever the seed.  A larger box is
sampled uniformly with ``random.Random`` (CPython's Mersenne Twister), by
the rejection sampling on getrandbits that randint runs, without its
per-call argument checks (_draws); each system gets its own stream seeded
with (base_seed + system_id) mod 2**64, so reports are reproducible for a
fixed seed and independent of worker count.

The worker pool (concurrent.futures, and with it multiprocessing) is imported
only when prove_unsolvable first runs with more than one worker, so that
importing monoproof for verify, count or a serial prove stays cheap; for
the same reason Certificate, Exhausted and VerifyResult are named tuples,
which build at import about four times faster than frozen dataclasses.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from monoproof.ratcore import homogeneous_solution, symmetric_bareiss
from monoproof.expansion import (ShadowSystem, enumerate_systems, scaled_vertices,
                                 weighted_inequality_sum)

_SEED_MASK = (1 << 64) - 1

# prove_unsolvable holds one task per system, about 400 bytes each: 145 MB
# for the 9! systems at V = 10, but 1.45 GB at V = 11 and 190 GB at V = 13.
MAX_PROOF_VERTICES = 10


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs: the coefficient range [coeff_min, coeff_max] of the
    box, the trial budget, and the base seed of the streams that sample a
    box larger than the budget (a smaller box is searched whole, with no
    seed).  Each is an int; a bool or any other type is refused with
    TypeError at construction, before _draws, range or the seed arithmetic
    can meet it."""

    coeff_min: int = 1
    coeff_max: int = 101
    max_trials: int = 100_000
    base_seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if not 1 <= self.coeff_min <= self.coeff_max:
            raise ValueError("need 1 <= coeff_min <= coeff_max")
        if self.max_trials < 1:
            raise ValueError("max_trials must be at least 1")


def _lowest_terms(X: Sequence[int], D: int) -> tuple[tuple[int, ...], int]:
    """The vector X / D as integer numerators over one positive denominator,
    in lowest terms: both divided by gcd(D, *X), with the sign of D."""
    g = math.gcd(D, *X)
    if D < 0:
        g = -g
    return tuple([x // g for x in X]), D // g


class Certificate(NamedTuple):
    """Proof that one shadowing system is unsolvable: positive integer
    coefficients with PD Hessian, positive exact minimum, and the exact
    minimizer x = (t_2, ..., t_(V-1)) at t_1 = 1 as integer numerators
    minimizer_num over one positive denominator minimizer_den, in lowest
    terms."""

    system: ShadowSystem
    coeffs: tuple[int, ...]
    minimizer_num: tuple[int, ...]
    minimizer_den: int
    min_value: Fraction
    trials: int = 1


class Exhausted(NamedTuple):
    """No certificate among a system's trials: the whole box when trials
    is its size, else max_trials sampled points of it."""

    system: ShadowSystem
    trials: int


SystemResult = Union[Certificate, Exhausted]

# A trial's verdict: "non_pd", "negative", or a certificate's exact minimum
# and its minimizer's numerators over one positive denominator.
TrialOutcome = Union[str, tuple[Fraction, tuple[int, ...], int]]


class VerifyResult(NamedTuple):
    """Deterministic recheck of a coefficient tuple for one system.  With a
    PD Hessian it holds the exact minimum and, as in Certificate, the
    minimizer's numerators over one positive denominator in lowest terms."""

    hessian_pd: bool
    min_value: Optional[Fraction]
    positive: bool
    minimizer_num: Optional[tuple[int, ...]] = None
    minimizer_den: Optional[int] = None

    @property
    def outcome(self) -> TrialOutcome:
        """The verdict in _tree_trial's terms: "non_pd", "negative", or
        (min_value, minimizer_num, minimizer_den) for a certificate."""
        if not self.hessian_pd:
            return "non_pd"
        if not self.positive:
            return "negative"
        return self.min_value, self.minimizer_num, self.minimizer_den


def _audit(system: ShadowSystem, coeffs: Sequence[int], X: list[int], D: int, d_last: int) -> None:
    """Check a minimizer on the geometry, apart from the axis matrix.

    With T_i = D t_i rebuilt from X = D x by scaled_vertices alone,
    g = sum_i c_i (t_i^2 - t_i t_j(i)) must equal the minimum d_last / (2 D),
    that is 2 sum_i c_i (T_i^2 - T_i T_j(i)) = D d_last, and its gradient
    over x must vanish: dg/dt_i = dg/dt_V for i = 2..V-1, as
    t_V = -(t_1 + ... + t_(V-1)).
    """
    V = system.V
    T = [0, *scaled_vertices(X, D)]  # T[i] = T_i
    grad = [0] * (V + 1)
    value = 0
    for i, c, j in zip(range(2, V + 1), coeffs, system.j):
        ti, tj = T[i], T[j]
        value += c * ti * (ti - tj)
        grad[i] += c * (2 * ti - tj)
        grad[j] -= c * ti
    if 2 * value != D * d_last or grad[2:V] != [grad[V]] * (V - 2):
        raise RuntimeError(
            f"internal error: certificate for system {system.system_id} failed the "
            "geometric audit of its minimum and minimizer"
        )


def verify_certificate(V: int, system: ShadowSystem, coeffs: Sequence[int]) -> VerifyResult:
    """Recompute the weighted form's PD status, exact minimum and minimizer,
    and audit them on the geometry (raises RuntimeError if they disagree).

    A non-PD Hessian is reported as hessian_pd=False rather than raised.
    """
    if V != system.V:
        raise ValueError(f"vertex count {V} does not match system (V={system.V})")
    m = weighted_inequality_sum(system, coeffs)
    if symmetric_bareiss(m) < V - 2:
        return VerifyResult(hessian_pd=False, min_value=None, positive=False)
    X, D = homogeneous_solution(m)
    d_last = m[-1][0]
    _audit(system, coeffs, X, D, d_last)
    return VerifyResult(True, Fraction(d_last, 2 * D), d_last > 0, *_lowest_terms(X, D))


def _tree_trial(j: Sequence[int], coeffs: Sequence[int]) -> TrialOutcome:
    """Decide one trial along the system's tree in O(V) integer steps.

    With t_1 = 0, 2 g_c restricted to {sum t = 0} is positive definite
    exactly when the bordered matrix [[M, 1], [1^T, 0]] of 2 g_c over
    t_2..t_V has one negative eigenvalue and no zero one (Gould, Math. Prog.
    32, 1985), and its pivots carry its inertia (Haynsworth, 1968).  As
    j(i) < i, eliminating t_V, ..., t_2 removes a leaf each time, with no
    fill-in (Parter, SIAM Rev. 3, 1961): vertex i only updates its parent's
    diagonal num/den and border entry bn/den, and passes up the border
    corner's share sn/den of its subtree; den is the determinant of the
    eliminated part of the subtree.  Two negative pivots already decide
    "non_pd", as the eliminated block is a principal submatrix.  t_1 goes
    last, and its Schur complement is 2 g_c at t_1 = 1 minimized.  Back
    substitution along the tree then gives U = scale * x, integral by
    Cramer's rule, since scale is the determinant of the bordered matrix up
    to sign: beta, or C1 Bz^2 / Cz where a zero pairs with the border.

    A zero pivot at vertex z counts as the negative eigenvalue, so a second
    one, or one beside a negative pivot, is "non_pd" at once.  z waits for
    its parent p, which comes up after its other children, and the two go
    out as the block [[0, -c_z], [-c_z, d_p]] (the zero-child step of Jacobs
    and Trevisan, Linear Algebra Appl. 434, 2011; a Bunch-Kaufman pivot,
    Math. Comp. 31, 1977).  Its determinant -c_z^2 gives one negative and
    one positive eigenvalue, and its inverse has a zero (p, p) entry, so p's
    parent keeps its diagonal, and only its border entry and the corner
    change.  Such a draw is never a certificate, so back substitution never
    meets the block: a null vector v of M on z's subtree gives g_c = 0 at
    t = (-sum v, v), so the form is not positive definite if sum v = 0, and
    otherwise its minimum at t_1 = 1 is at most 0.  Where p is vertex 1, z
    pairs with the border instead: vertex 1's Schur complement through
    [[0, b_z], [b_z, corner]] gives the minimum, and the constraint's
    multiplier c_z / b_z gives the minimizer.  With every pivot nonzero, a
    zero border corner beta makes the bordered matrix singular.

    Returns the verdict that verify_certificate(...).outcome gives:
    "non_pd", "negative", or, for a certificate, (min_value, num, den), the
    exact minimum as a Fraction and the minimizer's numerators over one
    positive denominator in lowest terms.
    """
    V = len(coeffs) + 1
    num = [0, 0, *(2 * c for c in coeffs)]  # indexed by vertex, 1..V
    den, bn, sn = [1] * (V + 1), [1] * (V + 1), [0] * (V + 1)
    negatives = zero = paired = 0  # a zero pivot's vertex and its parent
    for i in range(V, 1, -1):
        P, C, B = num[i], den[i], bn[i]
        if i == paired:  # zero and i go out as one block; P: det of i's subtree
            S = P * (Bz * Bz // Cz) + 2 * e * Bz * B - e * e * (C * sn[zero] + Cz * sn[i])
            P, B, C = -e * e * Cz * C, e * Bz * C, 0
        else:
            if not P or (P > 0) != (C > 0):
                negatives += 1
                if negatives == 2:
                    return "non_pd"
                if not P:
                    zero, paired = i, j[i - 2]
                    e, Cz, Bz = coeffs[i - 2], C, B
                    continue
            S = (B * B + P * sn[i]) // C
        p, c = j[i - 2], coeffs[i - 2]
        Dp = den[p]
        num[p] = num[p] * P - c * c * C * Dp
        bn[p] = bn[p] * P + c * B * Dp
        sn[p] = sn[p] * P + S * Dp
        den[p] = Dp * P
    beta, P1, B1, C1 = -sn[1], num[1], bn[1], den[1]
    if paired == 1:  # K / (C1 Cz) is the corner, zero's subtree share included
        if not Bz or negatives != 1:
            return "non_pd"
        K = beta * Cz - sn[zero] * C1
        top, bottom = P1 * Bz * Bz + e * Cz * (e * K + 2 * B1 * Bz), 2 * C1 * Bz * Bz
        scale, X = C1 * (Bz * Bz // Cz), -C1 * e * Bz
    else:
        if not beta or negatives + ((beta > 0) != (C1 > 0)) != 1:
            return "non_pd"
        top, bottom = P1 * beta - B1 * B1, 2 * C1 * beta
        scale, X = beta, B1
    if top == 0 or (top > 0) != (bottom > 0):
        return "negative"
    U = [0, scale, *[0] * (V - 2)]
    for k in range(2, V):
        if k == zero:
            U[k] = -(B1 * Bz + e * K)
        else:
            U[k] = (coeffs[k - 2] * den[k] * U[j[k - 2]] + bn[k] * X) // num[k]
    return (Fraction(top, bottom), *_lowest_terms(U[2:V], scale))


def _draws(rng: random.Random, cfg: SearchConfig, size: int) -> Iterator[tuple[int, ...]]:
    """Endless coefficient tuples of ``size`` entries, each the value
    rng.randint(coeff_min, coeff_max) would give on CPython 3.10-3.13:
    coeff_min + r for the first r = rng.getrandbits(k) below the range's
    width n, with k the bit length of n.  The stream is randint's, without
    its argument checks on every call."""
    getrandbits = rng.getrandbits
    low, n = cfg.coeff_min, cfg.coeff_max - cfg.coeff_min + 1
    k = n.bit_length()
    slots = range(size)
    while True:
        coeffs = []
        for _ in slots:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            coeffs.append(low + r)
        yield tuple(coeffs)


def search_certificate(system: ShadowSystem, cfg: SearchConfig) -> SystemResult:
    """Certificate search for one system over the box of B = n^(V-1)
    tuples c_2..c_V in [coeff_min, coeff_max], n = coeff_max - coeff_min + 1.

    With B <= max_trials each point of the box is tried once, in
    itertools.product order; otherwise max_trials draws come from the
    seeded stream (_draws).  _tree_trial decides each trial.  Returns the
    first Certificate, or Exhausted after min(B, max_trials) trials.
    """
    size = system.V - 1
    box = (cfg.coeff_max - cfg.coeff_min + 1) ** size
    if box <= cfg.max_trials:
        draws = itertools.product(range(cfg.coeff_min, cfg.coeff_max + 1), repeat=size)
    else:
        draws = _draws(random.Random(cfg.base_seed), cfg, size)
    for trial, coeffs in zip(range(1, cfg.max_trials + 1), draws):
        outcome = _tree_trial(system.j, coeffs)
        if not isinstance(outcome, str):
            min_value, num, den = outcome
            return Certificate(system, coeffs, num, den, min_value, trial)
    return Exhausted(system, min(box, cfg.max_trials))


@dataclass(frozen=True)
class ProofReport:
    """Aggregate outcome of searching every shadowing system for one V
    under one SearchConfig.  It holds no timing, so to_json() is
    byte-stable for a fixed config; the prove manifest times the run."""

    V: int
    config: SearchConfig
    systems: tuple[SystemResult, ...]

    @property
    def all_certified(self) -> bool:
        return self.certified_count == len(self.systems)

    @property
    def verdict(self) -> str:
        return "unsolvable" if self.all_certified else "undetermined"

    @property
    def certified_count(self) -> int:
        return sum(isinstance(r, Certificate) for r in self.systems)

    def to_json(self) -> dict:
        rows = []
        for result in self.systems:
            row = {"system_id": result.system.system_id, "j": list(result.system.j)}
            if isinstance(result, Certificate):
                row.update(status="certified", coeffs=list(result.coeffs),
                           min_value=str(result.min_value), trials=result.trials)
            else:
                row.update(status="exhausted", coeffs=None, min_value=None, trials=result.trials)
            rows.append(row)
        return {
            "V": self.V,
            "verdict": self.verdict,
            "base_seed": self.config.base_seed,
            "coeff_range": [self.config.coeff_min, self.config.coeff_max],
            "max_trials": self.config.max_trials,
            "systems": rows,
        }


def ProcessPoolExecutor(max_workers: int):
    """The standard process pool, imported on first use.  prove_unsolvable
    looks this name up at call time, so it can be replaced on the module."""
    import concurrent.futures

    return concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)


def _search_task(args: tuple[ShadowSystem, SearchConfig]) -> SystemResult:
    # The pool pickles this function by name; search_certificate is looked up
    # at call time, so a replaced binding (a traced wrapper) is never pickled.
    system, cfg = args
    return search_certificate(system, cfg)


def check_proof_vertices(V: int) -> None:
    """Refuse, with ValueError, a proof run outside V = 4..MAX_PROOF_VERTICES."""
    if V < 4:
        raise ValueError("proof runs start at V = 4")
    if V > MAX_PROOF_VERTICES:
        raise ValueError(f"proof runs stop at V = {MAX_PROOF_VERTICES}: "
                         f"V = {V} has {V - 1}! systems to hold in memory")


def prove_unsolvable(V: int, cfg: SearchConfig = SearchConfig(), jobs: int = 1) -> ProofReport:
    """Search all (V-1)! systems; every one certified proves that no
    mono-unstable 0-skeleton with V vertices exists.

    Each found certificate is re-verified, with its geometric audit, before
    it enters the report.  Deterministic for a fixed config: per-system seeds
    do not depend on scheduling or jobs.  ``jobs`` >= 1 asks for that many
    worker processes, capped at the CPU count and the number of systems;
    with a cap of 1 the search runs in this process.  V above
    MAX_PROOF_VERTICES is refused before any system is enumerated.
    """
    check_proof_vertices(V)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    tasks = [
        (system, replace(cfg, base_seed=(cfg.base_seed + system.system_id) & _SEED_MASK))
        for system in enumerate_systems(V)
    ]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, len(tasks) // (8 * workers))
            results = list(pool.map(_search_task, tasks, chunksize=chunksize))
    else:
        results = [_search_task(t) for t in tasks]
    for result in results:
        if isinstance(result, Certificate):
            check = verify_certificate(V, result.system, result.coeffs)
            if check.outcome != (result.min_value, result.minimizer_num, result.minimizer_den):
                raise RuntimeError(
                    f"internal error: certificate for system {result.system.system_id} "
                    "failed exact re-verification"
                )
    return ProofReport(V=V, config=cfg, systems=tuple(results))
