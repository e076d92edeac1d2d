"""Existence / nonexistence classification for the fourth-order inequalities.

Both sides couple the drift operator with the nonlocal reaction
(K * u^p) u^q.  Side PMINUS is the damped inequality (reaction bounded
above by the drift with a minus sign), side PPLUS the driven one.  The
clause machine encodes the sharp exponent thresholds in terms of

    t1 = (N - alpha) / (N - 2)   (subcritical reaction threshold)
    tN = N / (N - 2)             (Serrin-type threshold)
    t2 = (2N - alpha) / (N - 2)  (combined threshold for p + q)

Critical equalities are tested to 1e-12 (kernel.approx_eq) so exact
rational inputs land on their boundary rows.  The alpha = N family is
routed through its dedicated sharp criterion before the generic clauses:
the generic subcritical clauses textually cover part of that family and
would otherwise misattribute the governing result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .errors import EmptyParameterInterval, HypothesisViolated, InvalidDimension, ParameterError
from .kernel import _ge, _gt, _lt, _validate_exponents, _validate_powers, approx_eq


class Side(enum.Enum):
    PMINUS = "P-"
    PPLUS = "P+"


class UClass(enum.Enum):
    GENERAL = "general"
    BOUNDED = "bounded"
    RADIAL = "radial"


class Verdict(enum.Enum):
    EXISTS = "Exists"
    NOT_EXISTS = "NotExists"
    OPEN = "Open"


EXISTS_NOTE = "for some sufficiently large lambda > 0"
NOT_EXISTS_NOTE = "for every lambda > 0"


@dataclass(frozen=True)
class ProblemParams:
    side: Side
    N: int
    p: float
    q: float
    alpha: float
    beta: float
    u_class: UClass = UClass.GENERAL

    def __post_init__(self) -> None:
        # checked where it is built, so classify pays no p, q check per tuple
        _validate_powers(self.p, self.q)


@dataclass(frozen=True)
class ExistenceCase:
    case_id: str
    gamma: float
    tau: float
    constraint_notes: str = ""


@dataclass(frozen=True)
class RegimeDecision:
    verdict: Verdict
    clause: str
    construction: ExistenceCase | None = None
    note: str = ""

    def to_dict(self) -> dict:
        d = {"verdict": self.verdict.value, "clause": self.clause, "note": self.note}
        if self.construction is not None:
            d["construction"] = {
                "case_id": self.construction.case_id,
                "gamma": self.construction.gamma,
                "tau": self.construction.tau,
                "constraint_notes": self.construction.constraint_notes,
            }
        else:
            d["construction"] = None
        return d


# Every decision without a construction is one of these shared frozen constants, keyed by
# clause (the three uncharted notes by the case they leave open); only Exists builds one.
_DECIDED: dict[str, RegimeDecision] = {
    **{clause: RegimeDecision(Verdict.NOT_EXISTS, clause, note=NOT_EXISTS_NOTE) for clause in (
        "Thm1(i) Thm1(ii) Thm1(iii) Thm2(i) Thm2(ii) Thm2(iii) Thm2(iv) Thm2(v) Thm2(vi) Thm2(vii) "
        "Thm2(viii) Thm2(ix) Thm4 Cor1.5(i) Cor1.5(ii)").split()},
    **{f"Table1-row{i}": RegimeDecision(Verdict.OPEN, f"Table1-row{i}", note="documented open case")
       for i in range(1, 7)},
    "uncharted": RegimeDecision(Verdict.OPEN, "uncharted"),
    "uncharted P-": RegimeDecision(Verdict.OPEN, "uncharted", note="p < 1 with unbounded non-radial u is unresolved"),
    "uncharted alpha = N": RegimeDecision(Verdict.OPEN, "uncharted", note="alpha = N with p < 1 is unresolved"),
}


def validate_problem(params: ProblemParams) -> None:
    # alpha within approx_eq of N is decided as alpha = N, whose kernel needs beta > 0
    at_n = params.beta <= 0.0 and approx_eq(params.alpha, float(params.N))
    _validate_exponents(params.N, float(params.N) if at_n else params.alpha, params.beta)


def _mid(lo: float, hi: float) -> float:
    return 0.5 * (lo + hi)


def thresholds(N: int, alpha: float) -> tuple[float, float, float]:
    """(t1, tN, t2) = (N - alpha, N, 2N - alpha) / (N - 2); needs N >= 3."""
    t = N - 2.0
    return (N - alpha) / t, N / t, (2.0 * N - alpha) / t


def classify_pminus(params: ProblemParams) -> RegimeDecision:
    """Damped side: nonexistence holds throughout 0 < alpha < N.

    p >= 1 always rules solutions out; p < 1 does so for bounded or radial
    classes.  Unbounded non-radial u with p < 1 is genuinely unresolved.
    """
    validate_problem(params)
    if not (_gt(params.alpha, 0.0) and _lt(params.alpha, float(params.N))):
        raise HypothesisViolated(
            "damped-side classification requires 0 < alpha < N")
    if _ge(params.p, 1.0):
        return _DECIDED["Thm1(i)"]
    if params.u_class is UClass.BOUNDED:
        return _DECIDED["Thm1(ii)"]
    if params.u_class is UClass.RADIAL:
        return _DECIDED["Thm1(iii)"]
    return _DECIDED["uncharted P-"]


def combined_mass_clause(p: float, s: float, beta: float, t2: float) -> str | None:
    """Thm2(iv) or Thm2(v), the clauses of the combined mass of u^(p+q) with s = p + q, or None."""
    if not _ge(p, 1.0):
        return None
    if _lt(s, t2):
        return "Thm2(iv)"
    if approx_eq(s, t2) and _gt(beta, 1.0 / s - 1.0):
        return "Thm2(v)"
    return None


# Each clause body takes the tuple, s = p + q and (t1, tN, t2), which classify_pplus computes
# once; the public *_clause functions compute them for one call.

def thm2_clause(N: int, p: float, q: float, alpha: float, beta: float) -> str | None:
    """First matching nonexistence clause (ii)-(ix), or None; assumes N >= 3."""
    return _thm2(N, p, q, alpha, beta, p + q, *thresholds(N, alpha))


def _thm2(N, p, q, alpha, beta, s, t1, tn, t2) -> str | None:
    at_2 = approx_eq(alpha, 2.0)
    a_le_2 = alpha < 2.0 or at_2
    a_lt_2 = alpha < 2.0 and not at_2

    if a_le_2 and _ge(p, 1.0) and _lt(p, t1):
        return "Thm2(ii)"
    if a_le_2 and approx_eq(p, t1) and _ge(beta, -1.0):
        return "Thm2(iii)"
    if clause := combined_mass_clause(p, s, beta, t2):
        return clause
    if a_lt_2 and _gt(q, 1.0) and _lt(q, t1):
        return "Thm2(vi)"
    if a_lt_2 and approx_eq(q, t1) and _gt(beta, 1.0 / q - 1.0):
        return "Thm2(vii)"
    if a_lt_2 and approx_eq(p, tn) and approx_eq(q, t1) and _gt(beta, -2.0 + 1.0 / q):
        return "Thm2(viii)"
    if a_lt_2 and approx_eq(p, t1) and approx_eq(q, tn) and _gt(beta, -2.0 + 1.0 / q):
        return "Thm2(ix)"
    return None


# ---------------------------------------------------------------------------
# Construction catalogue: Theorem 3's cases 1a-6 (alpha < N) and Theorem 4's
# T4-1, T4-2 (alpha = N).  Each entry holds the clause tag, the message raised
# when the hypothesis fails, and the hypothesis on (p, q, beta, s = p + q, t1, tN, t2);
# the clause machine and choose_case_params both read it.  Case 1a leaves out
# p <= tN: the clause machine tries 1b (p > tN) first, and for p > tN the
# gamma interval of 1a is empty.  A beta condition is tested first: most
# tuples fail it by one comparison, before any tolerant equality runs.
# ---------------------------------------------------------------------------

_CASES: dict[str, tuple[str, str, Callable[..., bool]]] = {
    "2": ("Thm3(ii)", "case 2 needs p = (N-alpha)/(N-2), q > N/(N-2), beta < -1",
          lambda p, q, beta, s, t1, tn, t2: _lt(beta, -1.0) and approx_eq(p, t1) and _gt(q, tn)),
    "3": ("Thm3(iii)", "case 3 needs p > N/(N-2), q = (N-alpha)/(N-2), beta < -1",
          lambda p, q, beta, s, t1, tn, t2: _lt(beta, -1.0) and _gt(p, tn) and approx_eq(q, t1)),
    "4": ("Thm3(iv)", "case 4 needs p, q > (N-alpha)/(N-2), p+q = (2N-alpha)/(N-2), beta < -1",
          lambda p, q, beta, s, t1, tn, t2: _lt(beta, -1.0) and _gt(p, t1) and _gt(q, t1) and approx_eq(s, t2)),
    "5": ("Thm3(v)", "case 5 needs p = (N-alpha)/(N-2), q = N/(N-2), beta < -2",
          lambda p, q, beta, s, t1, tn, t2: _lt(beta, -2.0) and approx_eq(p, t1) and approx_eq(q, tn)),
    "6": ("Thm3(vi)", "case 6 needs p = N/(N-2), q = (N-alpha)/(N-2), beta < -2",
          lambda p, q, beta, s, t1, tn, t2: _lt(beta, -2.0) and approx_eq(p, tn) and approx_eq(q, t1)),
    "1b": ("Thm3(i)", "case 1b needs p > N/(N-2) and q > (N-alpha)/(N-2)",
           lambda p, q, beta, s, t1, tn, t2: _gt(p, tn) and _gt(q, t1)),
    "1a": ("Thm3(i)", "case 1a needs p, q > (N-alpha)/(N-2) and p+q > (2N-alpha)/(N-2)",
           lambda p, q, beta, s, t1, tn, t2: _gt(p, t1) and _gt(q, t1) and _gt(s, t2)),
    "T4-1": ("Thm4", "T4-1 needs beta > 0, 1 <= p <= N/(N-2), p+q > N/(N-2)",
             lambda p, q, beta, s, t1, tn, t2: beta > 0.0 and _ge(p, 1.0) and _ge(tn, p) and _gt(s, tn)),
    "T4-2": ("Thm4", "T4-2 needs beta > 0 and p > N/(N-2)",
             lambda p, q, beta, s, t1, tn, t2: beta > 0.0 and _gt(p, tn)),
}
# the order in which the clause machine tries the cases: equality rows before
# the fully interior clause (i), so boundary tuples keep their sharper tags
_THM3_CASES = ("2", "3", "4", "5", "6", "1b", "1a")
_THM4_CASES = ("T4-1", "T4-2")


def _existence_case(N, p, q, alpha, beta, s, t1, tn, t2,
                    case_ids=_THM3_CASES) -> tuple[str, str] | None:
    """(clause, case id) of the first case in case_ids whose hypothesis holds."""
    for case_id in case_ids:
        clause, _, holds = _CASES[case_id]
        if holds(p, q, beta, s, t1, tn, t2):
            return clause, case_id
    return None


def _construction(case_id: str, N: int, alpha: float, beta: float, p: float, q: float) -> ExistenceCase:
    """(gamma, tau) of a case whose hypothesis holds, open intervals resolved to
    midpoints; an admissible but empty interval raises EmptyParameterInterval."""
    s = p + q
    if case_id in ("1b", "T4-2"):
        return ExistenceCase(case_id, float(N), 0.0, "gamma = N, tau = 0")
    if case_id in ("1a", "T4-1"):
        hi = min(2.0 + N / p, float(N))
        if case_id == "1a":
            lo = max(2.0 + (N - alpha) / p, 2.0 + (2.0 * N - alpha) / s, 2.0)
            hint = "; p > N/(N-2) wants case 1b"
        else:
            lo, hint = 2.0 + N / s, ""
        if not lo < hi:
            raise EmptyParameterInterval(f"no admissible gamma in ({lo}, {hi}){hint}")
        return ExistenceCase(case_id, _mid(lo, hi), 0.0, f"gamma in ({lo:.6g}, {hi:.6g}), tau = 0")
    if case_id == "3":
        if approx_eq(q, 1.0):
            lo, hi = -1.0, 1.0
        elif q > 1.0:
            lo, hi = -1.0, min(1.0, -(beta + q) / (q - 1.0))
        else:
            lo, hi = max(-1.0, (beta + q) / (1.0 - q)), 1.0
        if not lo < hi:
            raise EmptyParameterInterval("no tau with tau > beta + (1+tau)q")
        return ExistenceCase("3", float(N), _mid(lo, hi), f"gamma = N, tau in ({lo:.6g}, {hi:.6g})")
    # cases 2, 4, 5 and 6: tau in (-1, hi)
    if case_id == "2":
        hi, need = (-1.0 - beta) / p - 1.0, "beta + (1+tau)p < -1"
    elif case_id == "4":
        hi, need = -(beta + s) / (s - 1.0), "tau > beta + (1+tau)(p+q)"
    else:
        hi, need = -(1.0 + beta + s) / (s - 1.0), "tau > 1 + beta + (1+tau)(p+q)"
        if case_id == "5":
            hi = min(hi, (-1.0 - beta) / p - 1.0)
    hi = min(1.0, hi)
    if not hi > -1.0:
        raise EmptyParameterInterval(f"no tau with {need}")
    return ExistenceCase(case_id, float(N), _mid(-1.0, hi), f"gamma = N, tau in (-1, {hi:.6g})")


def choose_case_params(case_id: str, N: int, alpha: float, beta: float, p: float, q: float) -> ExistenceCase:
    """Pick (gamma, tau) for a catalogued existence case, or explain why not.

    Open intervals are resolved to midpoints; hypotheses that fail raise
    HypothesisViolated, admissible-but-empty parameter intervals raise
    EmptyParameterInterval.
    """
    if N < 3:
        raise InvalidDimension("constructions need N >= 3")
    _validate_exponents(N, alpha, beta)
    _validate_powers(p, q)
    if case_id in _THM3_CASES and approx_eq(alpha, float(N)):
        raise HypothesisViolated("cases 1a-6 need alpha < N; use T4-1 or T4-2")
    if case_id in _THM4_CASES and not approx_eq(alpha, float(N)):
        raise HypothesisViolated("T4 cases need alpha = N")
    if case_id not in _CASES:
        raise ParameterError(f"unknown case id {case_id!r}")
    _, message, holds = _CASES[case_id]
    if not holds(p, q, beta, p + q, *thresholds(N, alpha)):
        raise HypothesisViolated(message)
    return _construction(case_id, N, alpha, beta, p, q)


def thm3_clause(N: int, p: float, q: float, alpha: float, beta: float) -> tuple[str, str] | None:
    """First matching existence clause with its construction case id.

    Assumes N >= 3 and 0 <= alpha < N.
    """
    return _existence_case(N, p, q, alpha, beta, p + q, *thresholds(N, alpha))


def _corollary(N, p, q, alpha, beta, s, t1, tn, t2) -> str | None:
    """Only-if directions of the sharp characterizations for p, q >= 1, alpha < N."""
    if not (_ge(p, 1.0) and _ge(q, 1.0)):
        return None
    if _lt(beta, -2.0):
        if not (_ge(p, t1) and _ge(q, t1) and _ge(s, t2)):
            return "Cor1.5(i)"
        return None
    if _gt(beta, -1.0 + 1.0 / q):
        if not (_gt(p, t1) and _gt(q, t1) and _gt(s, t2)):
            return "Cor1.5(ii)"
    return None


def _open_row(N, p, q, alpha, beta, s, t1, tn, t2) -> str | None:
    """Documented open cells (six rows); None means uncharted territory."""
    if _gt(p, max(1.0, t1)) and _gt(q, t1) and approx_eq(s, t2) and _ge(beta, -1.0) and _ge(-1.0 + 1.0 / s, beta):
        return "Table1-row1"
    if _ge(p, 1.0) and approx_eq(p, t1) and approx_eq(q, tn) and _ge(beta, -2.0) and _ge(-2.0 + 1.0 / q, beta):
        return "Table1-row2"
    if approx_eq(p, tn) and approx_eq(q, t1) and _ge(beta, -2.0) and _ge(-2.0 + 1.0 / q, beta):
        return "Table1-row3"
    if _gt(p, tn) and approx_eq(q, t1) and _gt(q, 1.0) and _ge(beta, -1.0) and _ge(-1.0 + 1.0 / q, beta):
        return "Table1-row4"
    if _gt(p, tn) and _ge(1.0, q) and approx_eq(s, t2) and _gt(beta, alpha - N) and _ge(-1.0 + 1.0 / s, beta):
        return "Table1-row5"
    if _gt(p, tn) and _ge(1.0, q) and _gt(s, t2):
        return "Table1-row6"
    return None


def classify_pplus(params: ProblemParams) -> RegimeDecision:
    """Driven side, evaluated as: low dimension, the alpha = N sharp
    criterion, nonexistence clauses, existence clauses (with construction),
    only-if corollary branches, documented open rows, uncharted."""
    validate_problem(params)
    N, p, q, alpha, beta = params.N, params.p, params.q, params.alpha, params.beta

    if N <= 2:
        return _DECIDED["Thm2(i)"]
    args = (N, p, q, alpha, beta, p + q, *thresholds(N, alpha))

    if approx_eq(alpha, float(N)):
        hit = _existence_case(*args, _THM4_CASES)
        if hit is not None:
            case = _construction(hit[1], N, alpha, beta, p, q)
            return RegimeDecision(Verdict.EXISTS, "Thm4", construction=case, note=EXISTS_NOTE)
        return _DECIDED["Thm4" if _ge(p, 1.0) else "uncharted alpha = N"]

    clause = _thm2(*args)
    if clause is not None:
        return _DECIDED[clause]

    hit = _existence_case(*args)
    if hit is not None:
        clause, case_id = hit
        case = _construction(case_id, N, alpha, beta, p, q)
        return RegimeDecision(Verdict.EXISTS, clause, construction=case, note=EXISTS_NOTE)

    return _DECIDED[_corollary(*args) or _open_row(*args) or "uncharted"]


def classify(params: ProblemParams) -> RegimeDecision:
    if params.side is Side.PMINUS:
        return classify_pminus(params)
    return classify_pplus(params)


# ---------------------------------------------------------------------------
# Golden summary table for the driven side.
#
# Each entry of _TABLE_ROWS mirrors one body row of the published exponent
# summary: (row id, description, expected verdict, instances).  For every
# sampled alpha, instances(N, alpha, t1, tN, t2) returns the row's concrete
# (p, q, beta, expected clause) tuples, or [] where the row is empty
# (degenerate blocks at alpha = 0 or alpha = 2, clause alpha-ranges).  A beta
# written as a window (lo, hi) stands for _beta_between(lo, hi, alpha, N), and
# an empty window drops its tuple; so does any beta not above alpha - N, where
# the kernel is not admissible.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRowRecord:
    row_id: int
    description: str
    alpha: float
    p: float
    q: float
    beta: float
    expected_verdict: str
    expected_clause: str
    verdict: str
    clause: str
    match: bool

    def to_dict(self) -> dict:
        return {
            "row": self.row_id,
            "description": self.description,
            "alpha": self.alpha, "p": self.p, "q": self.q, "beta": self.beta,
            "expected_verdict": self.expected_verdict,
            "expected_clause": self.expected_clause,
            "verdict": self.verdict, "clause": self.clause,
            "match": self.match,
        }


def _beta_between(lo: float, hi: float, alpha: float, N: int) -> float | None:
    """Midpoint of (max(lo, alpha-N), hi), or None when empty."""
    lo = max(lo, alpha - N)
    if not lo < hi:
        return None
    return _mid(lo, hi)


def _small_q(t1: float) -> float:
    return min(0.9, 0.6 * t1)


_TABLE_ROWS: tuple[tuple[int, str, str, Callable[..., list]], ...] = (
    (1, "1 <= p < t1, q > 0: nonexistence", "NotExists",
     lambda N, alpha, t1, tn, t2: [(_mid(1.0, t1), 1.0, 0.0, "Thm2(ii)")] if alpha <= 2.0 and t1 > 1.0 else []),
    (2, "p = t1, q < tN: below the combined threshold", "NotExists",
     lambda N, alpha, t1, tn, t2: [(t1, tn / 2.0, (-2.0, -1.0), "Thm2(iv)")] if alpha <= 2.0 else []),
    (3, "p = t1, q = tN, beta < -2: existence", "Exists",
     lambda N, alpha, t1, tn, t2: [(t1, tn, (-3.0, -2.0), "Thm3(v)")] if alpha <= 2.0 else []),
    (4, "p = t1, q = tN, beta > -2+1/q: nonexistence", "NotExists",
     lambda N, alpha, t1, tn, t2: [] if alpha > 2.0 else [(t1, tn, 0.0, "Thm2(iii)")] + (
         # Thm2(ix) needs alpha < 2; at alpha = 0, p = t1 = tN and Thm2(viii) preempts it
         [(t1, tn, (-2.0 + 1.0 / tn, -1.0), "Thm2(ix)")] if 0.0 < alpha < 2.0 else [])),
    (5, "p = t1, q = tN, -2 <= beta <= -2+1/q: open", "Open",
     lambda N, alpha, t1, tn, t2: [(t1, tn, (-2.0, -2.0 + 1.0 / tn), "Table1-row2")] if 0.0 < alpha <= 2.0 else []),
    (6, "p = t1, q > tN, beta >= -1: nonexistence", "NotExists",
     lambda N, alpha, t1, tn, t2: [(t1, tn + 0.7, 0.0, "Thm2(iii)"), (t1, tn + 0.7, -1.0, "Thm2(iii)")]
     if alpha <= 2.0 else []),
    (7, "p = t1, q > tN, beta < -1: existence", "Exists",
     lambda N, alpha, t1, tn, t2: [(t1, tn + 0.7, (-3.0, -1.0), "Thm3(ii)")] if alpha <= 2.0 else []),
    (8, "t1 < p < tN, q <= t1: below combined threshold", "NotExists",
     lambda N, alpha, t1, tn, t2: [(_mid(t1, tn), t1, 0.0, "Thm2(iv)")] if 0.0 < alpha <= 2.0 else []),
    (9, "t1 < p < tN, p+q = t2, beta above window: nonexistence", "NotExists",
     lambda N, alpha, t1, tn, t2: [(_mid(t1, tn), t2 - _mid(t1, tn), 0.0, "Thm2(v)")] if 0.0 < alpha <= 2.0 else []),
    (10, "t1 < p < tN, p+q = t2, beta in open window", "Open",
     lambda N, alpha, t1, tn, t2: [(_mid(t1, tn), t2 - _mid(t1, tn), -1.0 + 1.0 / (2.0 * t2), "Table1-row1"),
                                   (_mid(t1, tn), t2 - _mid(t1, tn), -1.0, "Table1-row1")] if 0.0 < alpha <= 2.0 else []),
    (11, "t1 < p < tN, p+q = t2, beta < -1: existence", "Exists",
     lambda N, alpha, t1, tn, t2: [(_mid(t1, tn), t2 - _mid(t1, tn), (-3.0, -1.0), "Thm3(iv)")]
     if 0.0 < alpha <= 2.0 else []),
    (12, "t1 < p < tN, p+q > t2: existence", "Exists",
     lambda N, alpha, t1, tn, t2: [(_mid(t1, tn), t2 - _mid(t1, tn) + 0.6, 0.0, "Thm3(i)")] if 0.0 < alpha <= 2.0 else []),
    (13, "p = tN, q < t1: below combined threshold", "NotExists",
     # at alpha = 0 the p = tN block collides with p = t1, whose
     # equality clause would preempt for beta >= -1
     lambda N, alpha, t1, tn, t2: [(tn, t1 / 2.0, 0.0 if alpha > 0.0 else (-2.0, -1.0), "Thm2(iv)")]
     if alpha <= 2.0 else []),
    (14, "p = tN, q = t1, beta > -2+1/q: nonexistence", "NotExists",
     # Thm2(vii) and Thm2(v) (p+q = t2 here) preempt Thm2(viii) above 1/q - 1 and 1/(p+q) - 1
     lambda N, alpha, t1, tn, t2: [(tn, t1, (-2.0 + 1.0 / t1, min(1.0 / t1 - 1.0, 1.0 / (tn + t1) - 1.0, -1.0)),
                                    "Thm2(viii)")] if alpha < 2.0 else []),
    (15, "p = tN, q = t1, -2 <= beta <= -2+1/q: open", "Open",
     lambda N, alpha, t1, tn, t2: [(tn, t1, (-2.0, -2.0 + 1.0 / t1), "Table1-row3")] if 0.0 < alpha <= 2.0 else []),
    (16, "p = tN, q = t1, beta < -2: existence", "Exists",
     lambda N, alpha, t1, tn, t2: [(tn, t1, (-3.5, -2.0), "Thm3(vi)")] if 0.0 < alpha < N else []),
    (17, "p = tN, q > t1, p+q > t2: existence (alpha up to N)", "Exists",
     # alpha = N is Theorem 4's family, whose kernel needs beta > 0
     lambda N, alpha, t1, tn, t2: [] if alpha <= 0.0 else [
         (tn, t1 + 0.8, 1.0, "Thm4") if approx_eq(alpha, float(N)) else (tn, t1 + 0.8, 0.0, "Thm3(i)")]),
    (18, "p > tN, q < t1, p+q < t2: nonexistence", "NotExists",
     lambda N, alpha, t1, tn, t2: [(tn + t1 / 4.0, t1 / 2.0, 0.0, "Thm2(iv)")] if 0.0 < alpha < N else []),
    (19, "p > tN, q <= 1, p+q = t2, beta above window: nonexistence", "NotExists",
     lambda N, alpha, t1, tn, t2: [(t2 - _small_q(t1), _small_q(t1), 0.0, "Thm2(v)")] if alpha < N else []),
    (20, "p > tN, q <= 1, p+q = t2, beta in open window", "Open",
     lambda N, alpha, t1, tn, t2: [(t2 - _small_q(t1), _small_q(t1), (-1.0, -1.0 + 1.0 / t2), "Table1-row5")]
     if alpha < N else []),
    (21, "p > tN, q <= 1, p+q > t2: open", "Open",
     lambda N, alpha, t1, tn, t2: [(t2, _small_q(t1), 0.0, "Table1-row6"), (t2, _small_q(t1), (-3.5, -2.0), "Table1-row6")]
     if alpha < N else []),
    (22, "p > tN, 1 < q < t1: nonexistence", "NotExists",
     lambda N, alpha, t1, tn, t2: [(tn + (t1 - _mid(1.0, t1)) + 0.5, _mid(1.0, t1), 0.0, "Thm2(vi)")]
     if alpha < 2.0 and t1 > 1.0 else []),
    (23, "p > tN, q = t1, beta > -1+1/q: nonexistence", "NotExists",
     lambda N, alpha, t1, tn, t2: [(tn + 1.0, t1, 0.0, "Thm2(vii)")] if alpha < 2.0 and t1 > 1.0 else []),
    (24, "p > tN, q = t1, -1 <= beta <= -1+1/q: open", "Open",
     lambda N, alpha, t1, tn, t2: [(tn + 1.0, t1, -1.0 + 1.0 / (2.0 * t1), "Table1-row4"), (tn + 1.0, t1, -1.0, "Table1-row4")]
     if alpha < 2.0 and t1 > 1.0 else []),
    (25, "p > tN, q = t1, beta < -1: existence", "Exists",
     lambda N, alpha, t1, tn, t2: [(tn + 1.0, t1, (-3.0, -1.0), "Thm3(iii)")] if alpha < 2.0 and t1 > 1.0 else []),
    (26, "p > tN, q > t1, p+q > t2: existence (alpha up to N)", "Exists",
     # alpha = N as in row 17
     lambda N, alpha, t1, tn, t2: [
         (tn + 1.0, t1 + 0.8, 1.0, "Thm4") if approx_eq(alpha, float(N)) else (tn + 1.0, t1 + 0.8, 0.0, "Thm3(i)")]),
)


def emit_regime_table(N: int) -> list[TableRowRecord]:
    """Instantiate every summary row at representative alphas and classify.

    Returns one record per instantiation; callers assert that every row
    produced at least one record and that all records match.
    """
    if N < 3:
        raise ParameterError("the summary table is stated for N >= 3")
    alpha_samples = sorted({0.0, 0.5, 1.0, 1.5, 2.0, min(2.5, N - 0.5), N - 0.5, float(N)})
    records: list[TableRowRecord] = []
    for row_id, description, expected_verdict, instances in _TABLE_ROWS:
        for alpha in alpha_samples:
            for p, q, beta, expected_clause in instances(N, alpha, *thresholds(N, alpha)):
                if isinstance(beta, tuple):
                    beta = _beta_between(*beta, alpha, N)
                if beta is None or not _gt(beta, alpha - N):
                    continue
                decision = classify_pplus(ProblemParams(
                    side=Side.PPLUS, N=N, p=float(p), q=float(q),
                    alpha=float(alpha), beta=float(beta)))
                match = (decision.verdict.value == expected_verdict
                         and decision.clause == expected_clause)
                records.append(TableRowRecord(
                    row_id=row_id, description=description,
                    alpha=float(alpha), p=float(p), q=float(q), beta=float(beta),
                    expected_verdict=expected_verdict, expected_clause=expected_clause,
                    verdict=decision.verdict.value, clause=decision.clause, match=match))
    return records
