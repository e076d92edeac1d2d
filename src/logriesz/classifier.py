"""Existence / nonexistence classification for the fourth-order inequalities.

Both sides couple the drift operator with the nonlocal reaction
(K * u^p) u^q.  Side PMINUS is the damped inequality (reaction bounded
above by the drift with a minus sign), side PPLUS the driven one.  The
clause machine encodes the sharp exponent thresholds in terms of

    t1 = (N - alpha) / (N - 2)   (subcritical reaction threshold)
    tN = N / (N - 2)             (Serrin-type threshold)
    t2 = (2N - alpha) / (N - 2)  (combined threshold for p + q)

Each tuple is compared with the thresholds once, to 1e-12 (kernel._sign),
so exact rational inputs land on their boundary rows.  The alpha = N family is
routed through its dedicated sharp criterion before the generic clauses:
the generic subcritical clauses textually cover part of that family and
would otherwise misattribute the governing result.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import asdict, dataclass
from typing import Callable

from .errors import EmptyParameterInterval, HypothesisViolated, InvalidDimension, ParameterError
from .kernel import _sign, _validate_exponents, _validate_powers, approx_eq


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
        # checked once, where it is built, so classify checks nothing; alpha within approx_eq of N as N
        _validate_powers(self.p, self.q)
        at_n = self.beta <= 0.0 and approx_eq(self.alpha, float(self.N))
        _validate_exponents(self.N, float(self.N) if at_n else self.alpha, self.beta)


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
        return {"verdict": self.verdict.value, "clause": self.clause, "note": self.note,
                "construction": None if self.construction is None else asdict(self.construction)}


# Every decision without a construction is one of these shared frozen constants, keyed by clause (the
# uncharted notes by the case they leave open); _n_only shares those of 1b and T4-2; other Exists build one.
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


def _mid(lo: float, hi: float) -> float:
    return 0.5 * (lo + hi)


def thresholds(N: int, alpha: float) -> tuple[float, float, float]:
    """(t1, tN, t2) = (N - alpha, N, 2N - alpha) / (N - 2); needs N >= 3."""
    t = N - 2.0
    return (N - alpha) / t, N / t, (2.0 * N - alpha) / t


# the positions in _signs' tuple: X_Y holds _sign(x, y), with a for alpha
P_1, P_T1, P_TN, Q_1, Q_T1, Q_TN, S_T2, S_TN, A_2, A_N = range(10)


def _signs(N: int, p: float, q: float, alpha: float, s: float) -> tuple[int, ...]:
    """Every threshold comparison the clauses make, made once per tuple: p and q against 1, t1
    and tn, s = p + q against t2 and tn, alpha against 2 and N; (t1, tn, t2) = thresholds(N, alpha)."""
    t1, tn, t2 = thresholds(N, alpha)
    return (_sign(p, 1.0), _sign(p, t1), _sign(p, tn), _sign(q, 1.0), _sign(q, t1), _sign(q, tn),
            _sign(s, t2), _sign(s, tn), _sign(alpha, 2.0), _sign(alpha, float(N)))


def classify_pminus(params: ProblemParams) -> RegimeDecision:
    """Damped side: nonexistence holds throughout 0 < alpha < N.

    p >= 1 always rules solutions out; p < 1 does so for bounded or radial
    classes.  Unbounded non-radial u with p < 1 is genuinely unresolved.
    """
    if not (_sign(params.alpha, 0.0) > 0 and _sign(params.alpha, float(params.N)) < 0):
        raise HypothesisViolated("damped-side classification requires 0 < alpha < N")
    if _sign(params.p, 1.0) >= 0:
        return _DECIDED["Thm1(i)"]
    if params.u_class is UClass.BOUNDED:
        return _DECIDED["Thm1(ii)"]
    if params.u_class is UClass.RADIAL:
        return _DECIDED["Thm1(iii)"]
    return _DECIDED["uncharted P-"]


def combined_mass_clause(p: float, s: float, beta: float, t2: float) -> str | None:
    """Thm2(iv) or Thm2(v), the clauses of the combined mass of u^(p+q) with s = p + q, or None."""
    return _combined_mass(_sign(p, 1.0), _sign(s, t2), s, beta)


def _combined_mass(p_1: int, s_t2: int, s: float, beta: float) -> str | None:
    if p_1 >= 0 and s_t2 < 0:
        return "Thm2(iv)"
    if p_1 >= 0 and s_t2 == 0 and _sign(beta, 1.0 / s - 1.0) > 0:
        return "Thm2(v)"
    return None


# Each clause body reads the signs g of _signs, which classify_pplus computes once, and compares
# beta itself, as its bounds depend on the clause; the public *_clause functions compute g.

def thm2_clause(N: int, p: float, q: float, alpha: float, beta: float) -> str | None:
    """First matching nonexistence clause (ii)-(ix), or None; assumes N >= 3."""
    s = p + q
    return _thm2(_signs(N, p, q, alpha, s), N, q, alpha, beta, s)


def _thm2(g, N, q, alpha, beta, s) -> str | None:
    p_1, p_t1, p_tn, q_1, q_t1, q_tn, s_t2, _, a_2, _ = g
    if a_2 <= 0 and p_1 >= 0 and p_t1 < 0:
        return "Thm2(ii)"
    if a_2 <= 0 and p_t1 == 0 and _sign(beta, -1.0) >= 0:
        return "Thm2(iii)"
    if clause := _combined_mass(p_1, s_t2, s, beta):
        return clause
    if a_2 < 0 and q_1 > 0 and q_t1 < 0:
        return "Thm2(vi)"
    if a_2 < 0 and q_t1 == 0 and _sign(beta, 1.0 / q - 1.0) > 0:
        return "Thm2(vii)"
    if a_2 < 0 and p_tn == 0 and q_t1 == 0 and _sign(beta, -2.0 + 1.0 / q) > 0:
        return "Thm2(viii)"
    if a_2 < 0 and p_t1 == 0 and q_tn == 0 and _sign(beta, -2.0 + 1.0 / q) > 0:
        return "Thm2(ix)"
    return None


# ---------------------------------------------------------------------------
# Construction catalogue: Theorem 3's cases 1a-6 (alpha < N) and Theorem 4's
# T4-1, T4-2 (alpha = N).  Each entry holds the clause tag, the message raised
# when the hypothesis fails, and the hypothesis on beta and the signs g of _signs;
# the clause machine and choose_case_params both read it.  Case 1a leaves out
# p <= tN: the clause machine tries 1b (p > tN) first, and for p > tN the
# gamma interval of 1a is empty.  The signs are tested before beta: they are
# already computed, and most tuples fail one of them.
# ---------------------------------------------------------------------------

_CASES: dict[str, tuple[str, str, Callable[..., bool]]] = {
    "2": ("Thm3(ii)", "case 2 needs p = (N-alpha)/(N-2), q > N/(N-2), beta < -1",
          lambda beta, g: g[P_T1] == 0 and g[Q_TN] > 0 and _sign(beta, -1.0) < 0),
    "3": ("Thm3(iii)", "case 3 needs p > N/(N-2), q = (N-alpha)/(N-2), beta < -1",
          lambda beta, g: g[P_TN] > 0 and g[Q_T1] == 0 and _sign(beta, -1.0) < 0),
    "4": ("Thm3(iv)", "case 4 needs p, q > (N-alpha)/(N-2), p+q = (2N-alpha)/(N-2), beta < -1",
          lambda beta, g: g[P_T1] > 0 and g[Q_T1] > 0 and g[S_T2] == 0 and _sign(beta, -1.0) < 0),
    "5": ("Thm3(v)", "case 5 needs p = (N-alpha)/(N-2), q = N/(N-2), beta < -2",
          lambda beta, g: g[P_T1] == 0 and g[Q_TN] == 0 and _sign(beta, -2.0) < 0),
    "6": ("Thm3(vi)", "case 6 needs p = N/(N-2), q = (N-alpha)/(N-2), beta < -2",
          lambda beta, g: g[P_TN] == 0 and g[Q_T1] == 0 and _sign(beta, -2.0) < 0),
    "1b": ("Thm3(i)", "case 1b needs p > N/(N-2) and q > (N-alpha)/(N-2)",
           lambda beta, g: g[P_TN] > 0 and g[Q_T1] > 0),
    "1a": ("Thm3(i)", "case 1a needs p, q > (N-alpha)/(N-2) and p+q > (2N-alpha)/(N-2)",
           lambda beta, g: g[P_T1] > 0 and g[Q_T1] > 0 and g[S_T2] > 0),
    "T4-1": ("Thm4", "T4-1 needs beta > 0, 1 <= p <= N/(N-2), p+q > N/(N-2)",
             lambda beta, g: beta > 0.0 and g[P_1] >= 0 and g[P_TN] <= 0 and g[S_TN] > 0),
    "T4-2": ("Thm4", "T4-2 needs beta > 0 and p > N/(N-2)",
             lambda beta, g: beta > 0.0 and g[P_TN] > 0),
}
# the order in which the clause machine tries the cases: equality rows before
# the fully interior clause (i), so boundary tuples keep their sharper tags
_THM3_CASES = ("2", "3", "4", "5", "6", "1b", "1a")
_THM4_CASES = ("T4-1", "T4-2")
_N_ONLY = ("1b", "T4-2")  # the cases whose construction reads N alone: one shared decision per N


def _existence_case(g, beta, case_ids=_THM3_CASES) -> tuple[str, str] | None:
    """(clause, case id) of the first case in case_ids whose hypothesis holds."""
    for case_id in case_ids:
        clause, _, holds = _CASES[case_id]
        if holds(beta, g):
            return clause, case_id
    return None


@functools.cache
def _n_only(case_id: str, N: int) -> RegimeDecision:
    """The Exists decision of 1b or T4-2, (gamma, tau) = (N, 0): built once per (case id, N), shared."""
    case = ExistenceCase(case_id, float(N), 0.0, "gamma = N, tau = 0")
    return RegimeDecision(Verdict.EXISTS, _CASES[case_id][0], construction=case, note=EXISTS_NOTE)


def _construction(case_id: str, N: int, alpha: float, beta: float, p: float, q: float) -> ExistenceCase:
    """(gamma, tau) of a case whose hypothesis holds, open intervals resolved to
    midpoints; an admissible but empty interval raises EmptyParameterInterval."""
    s = p + q
    if case_id in _N_ONLY:
        return _n_only(case_id, N).construction
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
    # cases 2 to 6: tau in (-1, hi), empty only from N ~ 2e12 on, where p + q can fall to 1
    if case_id == "2":
        hi, need = (-1.0 - beta) / p - 1.0, "beta + (1+tau)p < -1"
    elif case_id == "3":
        # for q <= 1 every tau > -1 has tau > beta + (1+tau)q, since beta < -1
        hi, need = -(beta + q) / (q - 1.0) if _sign(q, 1.0) > 0 else 1.0, "tau > beta + (1+tau)q"
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
    ProblemParams(Side.PPLUS, N, p, q, alpha, beta)
    if case_id in _THM3_CASES and approx_eq(alpha, float(N)):
        raise HypothesisViolated("cases 1a-6 need alpha < N; use T4-1 or T4-2")
    if case_id in _THM4_CASES and not approx_eq(alpha, float(N)):
        raise HypothesisViolated("T4 cases need alpha = N")
    if case_id not in _CASES:
        raise ParameterError(f"unknown case id {case_id!r}")
    _, message, holds = _CASES[case_id]
    if not holds(beta, _signs(N, p, q, alpha, p + q)):
        raise HypothesisViolated(message)
    return _construction(case_id, N, alpha, beta, p, q)


def thm3_clause(N: int, p: float, q: float, alpha: float, beta: float) -> tuple[str, str] | None:
    """First matching existence clause with its construction case id.

    Assumes N >= 3 and 0 <= alpha < N.
    """
    return _existence_case(_signs(N, p, q, alpha, p + q), beta)


def _corollary(g, N, q, alpha, beta, s) -> str | None:
    """Only-if directions of the sharp characterizations for p, q >= 1, alpha < N."""
    p_1, p_t1, _, q_1, q_t1, _, s_t2, _, _, _ = g
    if p_1 < 0 or q_1 < 0:
        return None
    if _sign(beta, -2.0) < 0:
        return None if p_t1 >= 0 and q_t1 >= 0 and s_t2 >= 0 else "Cor1.5(i)"
    if _sign(beta, -1.0 + 1.0 / q) > 0 and not (p_t1 > 0 and q_t1 > 0 and s_t2 > 0):
        return "Cor1.5(ii)"
    return None


def _open_row(g, N, q, alpha, beta, s) -> str | None:
    """Documented open cells (six rows); None means uncharted territory."""
    p_1, p_t1, p_tn, q_1, q_t1, q_tn, s_t2, _, _, _ = g
    if p_1 > 0 and p_t1 > 0 and q_t1 > 0 and s_t2 == 0 and _sign(beta, -1.0) >= 0 and _sign(beta, -1.0 + 1.0 / s) <= 0:
        return "Table1-row1"
    if p_1 >= 0 and p_t1 == 0 and q_tn == 0 and _sign(beta, -2.0) >= 0 and _sign(beta, -2.0 + 1.0 / q) <= 0:
        return "Table1-row2"
    if p_tn == 0 and q_t1 == 0 and _sign(beta, -2.0) >= 0 and _sign(beta, -2.0 + 1.0 / q) <= 0:
        return "Table1-row3"
    if p_tn > 0 and q_t1 == 0 and q_1 > 0 and _sign(beta, -1.0) >= 0 and _sign(beta, -1.0 + 1.0 / q) <= 0:
        return "Table1-row4"
    if p_tn > 0 and q_1 <= 0 and s_t2 == 0 and _sign(beta, alpha - N) > 0 and _sign(beta, -1.0 + 1.0 / s) <= 0:
        return "Table1-row5"
    if p_tn > 0 and q_1 <= 0 and s_t2 > 0:
        return "Table1-row6"
    return None


def classify_pplus(params: ProblemParams) -> RegimeDecision:
    """Driven side, evaluated as: low dimension, the alpha = N sharp
    criterion, nonexistence clauses, existence clauses (with construction),
    only-if corollary branches, documented open rows, uncharted."""
    N, p, q, alpha, beta = params.N, params.p, params.q, params.alpha, params.beta

    if N <= 2:
        return _DECIDED["Thm2(i)"]
    s = p + q
    g = _signs(N, p, q, alpha, s)
    args = (g, N, q, alpha, beta, s)
    at_n = g[A_N] == 0
    clause = None if at_n else _thm2(*args)
    if clause is not None:
        return _DECIDED[clause]

    hit = _existence_case(g, beta, _THM4_CASES if at_n else _THM3_CASES)
    if hit is not None:
        clause, case_id = hit
        if case_id in _N_ONLY:
            return _n_only(case_id, N)
        case = _construction(case_id, N, alpha, beta, p, q)
        return RegimeDecision(Verdict.EXISTS, clause, construction=case, note=EXISTS_NOTE)
    if at_n:
        return _DECIDED["Thm4" if g[P_1] >= 0 else "uncharted alpha = N"]
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
        d = asdict(self)
        return {"row": d.pop("row_id"), **d}


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
                if beta is None or _sign(beta, alpha - N) <= 0:
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
