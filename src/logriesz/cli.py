"""Command line surface.

Every subcommand prints a JSON envelope {command, inputs, result, version}
(or a flat text rendering with --format text) and communicates through exit
codes: 0 success / existence verdict, 2 invalid parameters, 3 nonexistence
verdict, 4 open verdict, 5 quadrature failure, 6 divergent integral.
Numeric flags accept rational literals like 7/3 in addition to floats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

# Each subcommand imports the modules it runs in its body: classify and table
# load no numpy, and convolve none of the certificate modules.
from . import __version__
from .errors import DivergentIntegral, LabError, ParameterError, QuadratureFailure

if TYPE_CHECKING:
    import numpy as np

    from .convolution import RadialProfile

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_EXISTS = 3
EXIT_OPEN = 4
EXIT_QUADRATURE = 5
EXIT_DIVERGENT = 6


def parse_number(text: str) -> float:
    """Float literal or exact rational a/b."""
    text = text.strip()
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"not a number: {text!r}") from exc


def parse_radii(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError("--radii expects start:stop:count")
    start, stop = parse_number(parts[0]), parse_number(parts[1])
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise ParameterError(f"--radii count must be an integer, got {parts[2]!r}") from exc
    if not 0.0 < start < stop < math.inf or count < 2:
        raise ParameterError("--radii needs finite 0 < start < stop and count >= 2")
    import numpy as np

    return np.geomspace(start, stop, count)


def parse_window(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParameterError("--window expects start:stop")
    lo, hi = parse_number(parts[0]), parse_number(parts[1])
    if not 0.0 < lo < hi < math.inf:
        raise ParameterError("--window needs finite 0 < start < stop")
    return lo, hi


def parse_profile(text: str, N: int) -> RadialProfile:
    """ball:r0 | power:sigma:kappa:A | ansatz:gamma:tau:A"""
    from .convolution import ball_profile, power_profile

    parts = text.split(":")
    name = parts[0]
    args = [parse_number(x) for x in parts[1:]]
    if name == "ball" and len(args) == 1:
        return ball_profile(args[0])
    if name == "power" and len(args) == 3:
        return power_profile(args[0], args[1], args[2])
    if name == "ansatz" and len(args) == 3:
        from .ansatz import AnsatzParams, source_profile

        return source_profile(AnsatzParams(N=N, gamma=args[0], tau=args[1], A=args[2]))
    raise ParameterError(
        f"unknown profile {text!r}; use ball:r0, power:sigma:kappa:A or ansatz:gamma:tau:A")


def _flatten(obj, prefix: str, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), lines)
    elif isinstance(obj, (list, tuple)):
        if all(not isinstance(x, (dict, list, tuple)) for x in obj):
            lines.append(f"{prefix} = {' '.join(str(x) for x in obj)}")
        else:
            for i, v in enumerate(obj):
                _flatten(v, f"{prefix}[{i}]", lines)
    else:
        lines.append(f"{prefix} = {obj}")


# argparse's own entries and the flags that inputs leave out; probe echoes those of its --kind, in this order
_UNECHOED = {"command", "func", "format", "out", "case_id"}
_PROBE_INPUTS = {"certificate": "N p q alpha beta theta radii", "testfn": "N k delta R lam",
                 "harnack": "N profile p R", "chain": "N alpha beta p radii"}


def emit(args: argparse.Namespace, result, text: str | None = None) -> dict:
    """Print the envelope as JSON, or for --format text as text if given, else flattened.

    Its inputs are the flags the subcommand declared, in the order declared (the order argparse
    fills args in), less --format, --out and --case-id, with --lam echoed as lambda."""
    keys = _PROBE_INPUTS[args.kind].split() if args.command == "probe" else [k for k in vars(args) if k not in _UNECHOED]
    inputs = {"lambda" if k == "lam" else k: getattr(args, k) for k in keys}
    env = {"command": args.command, "inputs": inputs, "result": result, "version": __version__}
    if args.format == "json":
        print(json.dumps(env, indent=2))
    elif text is not None:
        print(text)
    else:
        lines: list[str] = []
        _flatten(env, "", lines)
        print("\n".join(lines))
    return env


def write_csv(path: str, header: str, rows) -> None:
    """The --out CSV: the header line, then one line per row with numbers printed to 17
    significant digits and strings as they are, every line ended by LF."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else f"{x:.17g}" for x in row) + "\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "text"], default="json")


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--alpha", required=True, type=parse_number)
    p.add_argument("--beta", required=True, type=parse_number)


def cmd_classify(args) -> int:
    from .classifier import ProblemParams, Side, UClass, Verdict, classify

    params = ProblemParams(
        side=Side(args.side), N=args.N, p=args.p, q=args.q,
        alpha=args.alpha, beta=args.beta, u_class=UClass(args.u_class))
    decision = classify(params)
    emit(args, decision.to_dict())
    if decision.verdict is Verdict.EXISTS:
        return EXIT_OK
    if decision.verdict is Verdict.NOT_EXISTS:
        return EXIT_NOT_EXISTS
    return EXIT_OPEN


def cmd_convolve(args) -> int:
    from .convolution import convolve_radial
    from .kernel import KernelParams

    kernel = KernelParams(N=args.N, alpha=args.alpha, beta=args.beta)
    f = parse_profile(args.profile, args.N)
    radii = parse_radii(args.radii)
    res = convolve_radial(kernel, f, radii)
    if res.divergent:  # at every radius or none
        raise DivergentIntegral("convolution diverges: the source decays too slowly against "
                                f"the kernel (slow-decay regime) at r={float(radii[0])}")
    rows = list(zip(radii.tolist(), res.value.tolist(), res.error_estimate.tolist()))
    if args.out:
        write_csv(args.out, "r,value,error_estimate", rows)
    result = {"rows": [{"r": r, "value": v, "error_estimate": e} for r, v, e in rows]}
    emit(args, result)
    return EXIT_OK


def cmd_asymptotics(args) -> int:
    from .bounds import check_bound, lower_bound_prediction, upper_bound_prediction
    from .kernel import AsymptoticSpec, KernelParams

    kernel = KernelParams(N=args.N, alpha=args.alpha, beta=args.beta)
    f = parse_profile(args.profile, args.N)
    if args.kind == "lower":
        bound = lower_bound_prediction(kernel, f)
    else:
        bound = upper_bound_prediction(kernel, f)
    window = parse_window(args.window)
    report = check_bound(kernel, f, bound, window, case_id=args.case_id)
    if args.out:
        fit_spec = AsymptoticSpec(report.fitted.power_est, report.fitted.logpower_est)
        write_csv(args.out, "r,value,predicted,fitted",
                  [(r, v, bound.shape(r), fit_spec.shape(r, bound.scale)) for r, v in zip(report.radii, report.values)])
    emit(args, report.to_dict())
    return EXIT_OK


def cmd_ansatz(args) -> int:
    from .ansatz import AnsatzParams, lambda_star, u_upper_bound

    params = AnsatzParams(N=args.N, gamma=args.gamma, tau=args.tau, A=args.A)
    star = lambda_star(params)
    bound = u_upper_bound(params)
    result = {
        "lambda_star": star,
        "potential_power": bound.spec.power,
        "potential_logpower": bound.spec.logpower,
        "scale": bound.scale,
    }
    emit(args, result)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .ansatz import verify_supersolution
    from .classifier import choose_case_params
    from .kernel import KernelParams

    kernel = KernelParams(N=args.N, alpha=args.alpha, beta=args.beta)
    case = choose_case_params(args.case, args.N, args.alpha, args.beta, args.p, args.q)
    report = verify_supersolution(case, kernel, args.p, args.q,
                                  lam=args.lam, A=args.A)
    emit(args, report.to_dict())
    return EXIT_OK if report.passed else EXIT_OPEN


def cmd_probe(args) -> int:
    from .probes import TestFunctionSpec, divergence_certificate, harnack_mass, lower_bound_chain, test_function_bound

    if args.kind == "certificate":
        radii = parse_radii(args.radii) if args.radii else None
        series = divergence_certificate(args.N, args.p, args.q, args.alpha,
                                        args.beta, theta=args.theta, R_list=radii)
        if args.out:
            write_csv(args.out, "R,certificate_value,clause",
                      [(r, v, series.clause) for r, v in zip(series.radii, series.values)])
        result = series.to_dict()
    elif args.kind == "testfn":
        spec = TestFunctionSpec(k=args.k, delta=args.delta, R=args.R)
        constant = test_function_bound(spec, args.lam, N=args.N)
        result = {"constant": constant, "delta_power_valid": spec.delta_power_valid}
    elif args.kind == "harnack":
        f = parse_profile(args.profile, args.N)
        hm = harnack_mass(f, args.p, args.R, N=args.N)
        result = {"mass": hm.mass, "ratio": hm.ratio, "R": hm.R}
    else:  # chain
        radii = parse_radii(args.radii or "1:1e6:13")
        chain = lower_bound_chain(args.N, args.alpha, args.beta, args.p, radii)
        result = chain.to_dict()
    emit(args, result)
    return EXIT_OK


def cmd_table(args) -> int:
    from .classifier import emit_regime_table

    records = emit_regime_table(args.N)
    result = {"records": [rec.to_dict() for rec in records],
              "all_match": all(rec.match for rec in records)}
    rows = [f"row {rec.row_id:2d} alpha={rec.alpha:<4g} p={rec.p:<8.5g} "
            f"q={rec.q:<8.5g} beta={rec.beta:<9.5g} "
            f"expect {rec.expected_verdict}/{rec.expected_clause} "
            f"got {rec.verdict}/{rec.clause} [{'ok' if rec.match else 'MISMATCH'}]" for rec in records]
    rows.append(f"all_match = {result['all_match']}")
    env = emit(args, result, text="\n".join(rows))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(env, fh, indent=2)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="logriesz", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="existence / nonexistence verdict")
    p.add_argument("--side", choices=["P+", "P-"], required=True)
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--p", required=True, type=parse_number)
    p.add_argument("--q", required=True, type=parse_number)
    p.add_argument("--alpha", required=True, type=parse_number)
    p.add_argument("--beta", required=True, type=parse_number)
    p.add_argument("--u-class", choices=["general", "bounded", "radial"],
                   default="general")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("convolve", help="kernel convolution along radii")
    _add_kernel_flags(p)
    p.add_argument("--profile", required=True)
    p.add_argument("--radii", required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("asymptotics", help="predicted vs fitted tail exponents")
    _add_kernel_flags(p)
    p.add_argument("--profile", required=True)
    p.add_argument("--kind", choices=["lower", "upper"], default="upper")
    p.add_argument("--window", default="1e3:1e7")
    p.add_argument("--case-id", default="")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("ansatz", help="drift threshold and decay of the candidate")
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--gamma", required=True, type=parse_number)
    p.add_argument("--tau", required=True, type=parse_number)
    p.add_argument("--A", type=parse_number, default=10.0)
    _add_common(p)
    p.set_defaults(func=cmd_ansatz)

    p = sub.add_parser("verify", help="grid certificate for a construction case")
    p.add_argument("--case", required=True,
                   choices=["1a", "1b", "2", "3", "4", "5", "6", "T4-1", "T4-2"])
    _add_kernel_flags(p)
    p.add_argument("--p", required=True, type=parse_number)
    p.add_argument("--q", required=True, type=parse_number)
    p.add_argument("--A", type=parse_number, default=10.0)
    p.add_argument("--lam", type=parse_number, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probe", help="nonexistence-side computable quantities")
    p.add_argument("--kind", choices=["certificate", "testfn", "harnack", "chain"],
                   required=True)
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--p", type=parse_number, default=1.0)
    p.add_argument("--q", type=parse_number, default=1.0)
    p.add_argument("--alpha", type=parse_number, default=0.0)
    p.add_argument("--beta", type=parse_number, default=0.0)
    p.add_argument("--theta", type=parse_number, default=None)
    p.add_argument("--radii", default=None)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--delta", type=parse_number, default=2.0)
    p.add_argument("--R", type=parse_number, default=10.0)
    p.add_argument("--lam", type=parse_number, default=1.0)
    p.add_argument("--profile", default="ball:1")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("table", help="regime summary table reproduction")
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"invalid parameters: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except QuadratureFailure as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except DivergentIntegral as exc:
        print(f"divergent integral: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
