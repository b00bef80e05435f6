"""Command-line front end.

Every subcommand prints a deterministic report envelope (JSON by
default; ``--format csv`` and ``--format table`` give flat renderings).
Exit codes: 0 success, 1 malformed input, 2 inadmissible or inconsistent
input (the report carries the violations).
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from . import __version__
from .classifier import SurfaceInvariants, classify, torsion_solutions
from .congruence import (
    ConditionUInstance,
    check_condition_U,
    check_condition_U_bruteforce,
)
from .errors import (
    InadmissibleTypeError,
    InvalidInputError,
    OracleBoundExceededError,
    PlurigeneraError,
    UnsupportedInputError,
)
from .factory import (
    AbelianGroupData,
    bad_characteristics,
    cover_to_type,
    riemann_hurwitz_genus,
)
from .model import FibrationNumericalType, plurigenera_series, slope
from .verifier import (
    _PREDICATES,
    EnumerationBounds,
    enumerate_types,
    find_sharp_cases,
    is_admissible,
    verify_all,
    verify_main_theorem,
)


def _read_type(path: str) -> FibrationNumericalType:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    return FibrationNumericalType.from_json(text)


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(",") if x.strip() != "")
    except ValueError as exc:
        raise InvalidInputError(f"expected a comma-separated integer list: {raw!r}") from exc


def _bounds_from_args(args) -> EnumerationBounds:
    return EnumerationBounds(
        max_mult=args.max_mult,
        max_fibres=args.max_fibres,
        max_chi_plus_t=args.max_chi_plus_t,
        characteristics=_int_list(args.characteristics),
        include_wild=not args.no_wild,
        include_quasi_elliptic=not args.no_quasi_elliptic,
    )


def _add_bounds_flags(sub):
    default = EnumerationBounds()
    sub.add_argument("--max-mult", type=int, default=default.max_mult)
    sub.add_argument("--max-fibres", type=int, default=default.max_fibres)
    sub.add_argument("--max-chi-plus-t", type=int, default=default.max_chi_plus_t)
    sub.add_argument("--characteristics", default=",".join(map(str, default.characteristics)))
    sub.add_argument("--no-wild", action="store_true")
    sub.add_argument("--no-quasi-elliptic", action="store_true")


def _envelope(command: str, inputs: dict, result) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "tool_version": __version__,
    }


def _render_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    import csv as _csv

    buf = io.StringIO()
    writer = _csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _render_table(rows: list[dict]) -> str:
    if not rows:
        return "(empty)"
    cols = list(rows[0].keys())
    cells = [[str(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    lines = [cols, ["-" * w for w in widths], *cells]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in lines)


def _type_brief(d: dict) -> str:
    ms = ",".join(str(f["m"]) for f in d["fibres"])
    nus = ",".join(str(f["nu"]) for f in d["fibres"])
    return f"p={d['p']} chi={d['chi']} ({ms}|{nus})"


def _flat_rows(command: str, result) -> list[dict]:
    if "error" in result:
        return [
            {k: ";".join(v) if isinstance(v, list) else v for k, v in result.items()}
        ]
    if command == "compute":
        return [
            {"n": v["n"], "value": v["value"], "exact": v["exact"]}
            for v in result["series"]
        ]
    if command == "verify":
        row = {k: v for k, v in result.items() if k != "series"}
        row["type"] = _type_brief(result["type"])
        return [row]
    if command == "factory":
        return [
            {
                "multiplicities": ",".join(str(m) for m in result["multiplicities"]),
                "cover_genus": result["cover_genus"],
                "type": _type_brief(result["type"]),
            }
        ]
    if command in ("enumerate", "sharp"):
        return [
            {"type": _type_brief(d), "g": d["g"], "t": sum(f["t"] for f in d["fibres"])}
            for d in result["types"]
        ]
    if command == "verify-all":
        rows = result.get("rows")
        if rows:
            out = []
            for row in rows:
                flat = {"type": _type_brief(row["type"]), "label": row["label"]}
                for i, v in enumerate(row["series"], start=1):
                    flat[f"P_{i}"] = v
                out.append(flat)
            return out
        return [
            {
                "counterexamples": len(result["counterexamples"]),
                "total_materialized": result["total_materialized"],
                "max_first_nonzero": result["extremes"]["max_first_nonzero"],
                "max_first_ge2": result["extremes"]["max_first_ge2"],
            }
        ]
    return [result if isinstance(result, dict) else {"result": result}]


def _emit(args, command: str, inputs: dict, result) -> None:
    envelope = _envelope(command, inputs, result)
    try:
        if args.format == "json":
            text = json.dumps(envelope, sort_keys=True, indent=2)
        elif args.format == "csv":
            text = _render_csv(_flat_rows(command, result))
        else:
            text = _render_table(_flat_rows(command, result))
    except ValueError as exc:  # an integer past Python's str conversion limit
        raise UnsupportedInputError(
            f"an output integer has more than {sys.get_int_max_str_digits()} "
            "digits, too many to print"
        ) from exc
    print(text)


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plurigenera",
        description="Exact plurigenus computation and verification for "
        "(quasi-)elliptic surface fibrations of Kodaira dimension one",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", parents=[common], help="plurigenus series of a type"
    )
    p_compute.add_argument("--type", required=True, help="JSON file, or - for stdin")
    p_compute.add_argument("--n-max", type=int, default=14)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="check the four growth statements"
    )
    p_verify.add_argument("--type", required=True)

    p_enum = sub.add_parser(
        "enumerate", parents=[common], help="list admissible types within bounds"
    )
    _add_bounds_flags(p_enum)
    p_enum.add_argument("--jobs", type=int, default=1)

    p_all = sub.add_parser(
        "verify-all", parents=[common], help="sweep all types within bounds"
    )
    _add_bounds_flags(p_all)
    p_all.add_argument("--jobs", type=int, default=1)
    p_all.add_argument(
        "--materialize-all",
        action="store_true",
        help="enumerate every type instead of using class certificates",
    )
    p_all.add_argument("--rows", action="store_true", help="keep per-type series rows")

    p_sharp = sub.add_parser(
        "sharp", parents=[common], help="types attaining a sharpness predicate"
    )
    _add_bounds_flags(p_sharp)
    p_sharp.add_argument(
        "--predicate",
        required=True,
        choices=tuple(_PREDICATES),
    )

    p_classify = sub.add_parser(
        "classify", parents=[common], help="Kodaira class from invariants"
    )
    p_classify.add_argument("--p12", type=int, required=True)
    p_classify.add_argument("--k2", type=int, default=0)
    p_classify.add_argument("--pg", type=int, default=0)
    p_classify.add_argument("--q", type=int, default=0)
    p_classify.add_argument("--torsion", type=int, default=None)
    p_classify.add_argument("--char", type=int, default=0)
    p_classify.add_argument(
        "--torsion-solutions",
        action="store_true",
        help="also list the Kodaira-dimension-zero multiplicity tuples",
    )

    p_factory = sub.add_parser(
        "factory", parents=[common], help="type from abelian cover data"
    )
    p_factory.add_argument("--group", required=True, help="invariant factors, e.g. 2,6")
    p_factory.add_argument(
        "--monodromies", required=True, help='semicolon-separated residue tuples, e.g. "1,0;0,1;1,5"'
    )

    p_u = sub.add_parser("u-check", parents=[common], help="decide condition U_i")
    p_u.add_argument("--m", required=True)
    p_u.add_argument("--nu", required=True)
    p_u.add_argument("--i", type=int, required=True)
    p_u.add_argument("--oracle", action="store_true", help="also run the brute force")

    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except InadmissibleTypeError as exc:
        _emit(args, args.command, {}, {"error": "inadmissible", "violations": list(exc.violations)})
        return 2
    except (InvalidInputError, OracleBoundExceededError) as exc:
        _emit(args, args.command, {}, {"error": "invalid-input", "message": str(exc)})
        return 1
    except UnsupportedInputError as exc:
        _emit(args, args.command, {}, {"error": "unsupported-input", "message": str(exc)})
        return 2
    except PlurigeneraError as exc:
        _emit(args, args.command, {}, {"error": "failure", "message": str(exc)})
        return 1


def _dispatch(args) -> int:
    command = args.command
    if command == "compute":
        t = _read_type(args.type)
        report = is_admissible(t)
        if not report.admissible:
            raise InadmissibleTypeError(report.violations)
        series = plurigenera_series(t, args.n_max)
        result = {
            "type": t.to_dict(),
            "slope": str(slope(t)),
            "series": [
                {"n": v.n, "value": v.value, "exact": v.exact} for v in series
            ],
        }
        _emit(args, command, {"type": args.type, "n_max": args.n_max}, result)
        return 0

    if command == "verify":
        t = _read_type(args.type)
        report = verify_main_theorem(t)
        result = {"type": t.to_dict(), **report.to_dict()}
        _emit(args, command, {"type": args.type}, result)
        return 0

    if command == "enumerate":
        bounds = _bounds_from_args(args)
        types = [t.to_dict() for t in enumerate_types(bounds, jobs=args.jobs)]
        result = {"bounds": bounds.to_dict(), "count": len(types), "types": types}
        _emit(args, command, bounds.to_dict(), result)
        return 0

    if command == "verify-all":
        bounds = _bounds_from_args(args)
        report = verify_all(
            bounds,
            jobs=args.jobs,
            materialize_all=args.materialize_all,
            keep_rows=args.rows,
        )
        _emit(args, command, bounds.to_dict(), report)
        return 0

    if command == "sharp":
        bounds = _bounds_from_args(args)
        hits = [t.to_dict() for t in find_sharp_cases(bounds, args.predicate)]
        result = {
            "bounds": bounds.to_dict(),
            "predicate": args.predicate,
            "count": len(hits),
            "types": hits,
        }
        _emit(args, command, {**bounds.to_dict(), "predicate": args.predicate}, result)
        return 0

    if command == "classify":
        inv = SurfaceInvariants(
            p12=args.p12,
            k2_min=args.k2,
            pg=args.pg,
            q=args.q,
            canonical_torsion=args.torsion,
            p=args.char,
        )
        result = classify(inv).to_dict()
        if args.torsion_solutions:
            result["torsion_solutions"] = [list(t) for t in torsion_solutions()]
        _emit(args, command, {"p12": args.p12, "k2": args.k2}, result)
        return 0

    if command == "factory":
        factors = _int_list(args.group)
        monos = tuple(_int_list(part) for part in args.monodromies.split(";"))
        data = AbelianGroupData(factors, monos)
        t = cover_to_type(data)
        result = {
            "type": t.to_dict(),
            "cover_genus": riemann_hurwitz_genus(data),
            "multiplicities": [f.m for f in t.fibres],
            "bad_characteristics": list(bad_characteristics(data)),
        }
        _emit(args, command, {"group": args.group, "monodromies": args.monodromies}, result)
        return 0

    if command == "u-check":
        inst = ConditionUInstance(_int_list(args.m), _int_list(args.nu), args.i)
        value = check_condition_U(inst)
        result = {"m": list(inst.m), "nu": list(inst.nu), "i": inst.i, "condition_u": value}
        if args.oracle:
            result["oracle"] = check_condition_U_bruteforce(inst)
        _emit(args, command, {"m": args.m, "nu": args.nu, "i": args.i}, result)
        return 0

    raise InvalidInputError(f"unknown command {command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
