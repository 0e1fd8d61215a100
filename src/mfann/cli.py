"""Command-line front end: validation, annihilator runs, topology verdicts,
and the full catalog reproduction with deterministic JSON reports.

Exit codes: 0 = pass, 1 = usage or configuration error, 2 = mathematical
mismatch (an identity, table entry, or verdict failed to check out),
3 = internal invariant failure (a bug; no report is written).
"""

from __future__ import annotations

import argparse
import json
import sys

from .alexandrov import compactness_verdict
from .annihilator import annihilate, annihilator_truncated
from .families import EXPECTED_VERDICTS, build_family
from .fields import FieldError, InvariantError, field_to_config, parse_field_flag
from .ideals import truncate_ideal
from .mf import (
    RING_IDS,
    CatalogError,
    MatrixFactorization,
    catalog,
    catalog_labels,
    knoerrer_double,
    parse_selector,
    swap,
    validate,
)
from .poly import grlex_key
from .truncation import SpecError, build_truncation

SCHEMA = 1
DEFAULTS = {"trunc": 10, "witness_degree": None, "n_max": 5}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _fmt_gens(spec, gens):
    """Generator strings sorted ascending graded-lex by leading monomial."""
    keyed = sorted(gens, key=lambda g: grlex_key(max(g.terms, key=grlex_key)))
    return [spec.format(g) for g in keyed]


def _fmt_ideal(spec, gens):
    return "(" + ", ".join(_fmt_gens(spec, gens)) + ")" if gens else "(0)"


def _iter_entries(ring_id, field, n_max):
    for label, parametric in catalog_labels(ring_id):
        for n in range(1, n_max + 1) if parametric else [None]:
            yield catalog(ring_id, label, n, field)


def _emit(args, field, ok, **sections) -> int:
    """Write the report, the sections inside the common envelope, and
    return the exit code for its pass flag."""
    config = {"field": field_to_config(field)}
    for key in ("trunc", "witness_degree", "n_max", "subfamily"):
        if hasattr(args, key):
            config[key] = getattr(args, key)
    report = {"schema": SCHEMA, "command": args.command, "config": config, "pass": ok,
              **sections}
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 2


def _render_text(report, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(report, dict):
        for key in sorted(report):
            value = report[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(report, list):
        for value in report:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{report}")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _validation_item(mf):
    """Validate one factorization: its report entry and whether it passed."""
    rep = validate(mf)
    item = {"label": mf.label, "valid": rep.ok}
    if not rep.ok:
        item["violation"] = {
            "product": rep.product,
            "entry": list(rep.entry),
            "got": rep.got,
            "expected": rep.expected,
        }
    return item, rep.ok


def _validate_payload(entries):
    items = [_validation_item(entry.mf) for entry in entries]
    return [item for item, _ok in items], all(ok for _item, ok in items)


def cmd_validate(args) -> int:
    field = parse_field_flag(args.field)
    if args.n_max is not None and (args.json or args.selector not in RING_IDS):
        raise CatalogError("unrecognized arguments: --n-max, read for a ring id only")
    args.n_max = args.n_max or DEFAULTS["n_max"]
    if args.json:
        with open(args.json) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise SpecError("input: JSON nested too deeply") from None
        item, ok = _validation_item(MatrixFactorization.from_json(data))
        payload = [item]
    elif args.selector in RING_IDS:
        payload, ok = _validate_payload(_iter_entries(args.selector, field, args.n_max))
    elif args.selector:
        item, ok = _validation_item(parse_selector(args.selector, field, default_n=1).mf)
        payload = [item]
    else:
        raise CatalogError("validate needs a ring, a selector, or --json FILE")
    return _emit(args, field, ok, entries=payload)


def _witness_degree(args, entry):
    """The -D flag, else n + 2 for a parametric entry and 3 otherwise."""
    if args.witness_degree is not None:
        return args.witness_degree
    return entry.n + 2 if entry.n is not None else 3


def _ann_payload(entry, N, D):
    spec = entry.mf.spec
    result = annihilate(entry.mf, N, D)
    algebra = build_truncation(spec, N)
    expected_space = truncate_ideal(entry.expected_annihilator, algebra)
    match = expected_space == result.subspace
    return {
        "label": entry.mf.label,
        "N": N,
        "D": D,
        "computed": _fmt_ideal(spec, result.upper_generators),
        "expected": _fmt_ideal(spec, entry.expected_annihilator.generators),
        "status": result.status,
        "match": match,
        "witnesses": [
            {"gen": spec.format(g), "degree": w.max_degree()} for g, w in result.lower
        ],
    }, match and result.status == "certified-exact"


def cmd_ann(args) -> int:
    field = parse_field_flag(args.field)
    entry = parse_selector(args.selector, field)
    payload, ok = _ann_payload(entry, args.trunc, _witness_degree(args, entry))
    return _emit(args, field, ok, result=payload)


def _topology_payload(ring_id, field, N, n_max, D, subfamily):
    family = build_family(ring_id, field, N, subfamily=subfamily)
    verdict = compactness_verdict(family, n_max=n_max, D=D)
    payload = verdict.to_json()
    payload["ring"] = ring_id
    payload["subfamily"] = subfamily
    if subfamily == "all":
        exp_verdict, exp_witness, _gens = EXPECTED_VERDICTS[ring_id]
        ok = verdict.verdict == exp_verdict and verdict.minimum == exp_witness
    else:
        ok = verdict.verdict != "undetermined"
    payload["pass"] = ok
    return payload, ok


def cmd_topology(args) -> int:
    field = parse_field_flag(args.field)
    D = args.witness_degree if args.witness_degree is not None else 4
    payload, ok = _topology_payload(
        args.ring, field, args.trunc, args.n_max, D, args.subfamily
    )
    return _emit(args, field, ok, result=payload)


def cmd_double(args) -> int:
    field = parse_field_flag(args.field)
    entry = parse_selector(args.selector, field, default_n=1)
    spec = entry.mf.spec
    new_var = "z" if "z" not in spec.variables else "w"
    doubled = knoerrer_double(entry.mf, new_var)
    rep = validate(doubled)
    N = args.trunc
    D = args.witness_degree if args.witness_degree is not None else 3
    src = annihilate(entry.mf, N, D)
    dbl = annihilate(doubled, N, D)
    return _emit(args, field, rep.ok, result={
        "source": {
            "label": entry.mf.label,
            "annihilator": _fmt_ideal(spec, src.upper_generators),
            "status": src.status,
        },
        "double": {
            "label": doubled.label,
            "ring": doubled.spec.format(doubled.spec.f),
            "valid": rep.ok,
            "annihilator": _fmt_ideal(doubled.spec, dbl.upper_generators),
            "status": dbl.status,
        },
    })


def _property_payload(field, N=6):
    """Small deterministic property section for the reproduction report."""
    checks = []
    for ring_id in RING_IDS:
        for entry in _iter_entries(ring_id, field, 2):
            space = annihilator_truncated(entry.mf, N)
            swapped = annihilator_truncated(swap(entry.mf), N)
            checks.append({
                "property": "syzygy-invariance",
                "label": entry.mf.label,
                "ok": space == swapped,
            })
    return checks


def cmd_reproduce_paper(args) -> int:
    field = parse_field_flag(args.field)
    N, n_max = args.trunc, args.n_max
    failures = []  # one line per failed check, in report order
    rings = {}
    for ring_id in RING_IDS:
        entries = list(_iter_entries(ring_id, field, n_max))
        val_entries, val_ok = _validate_payload(entries)
        if not val_ok:
            failures.append(f"{ring_id}: validation of " + ", ".join(
                e["label"] for e in val_entries if not e["valid"]))
        ann_entries = []
        for entry in entries:
            payload, ok = _ann_payload(entry, N, _witness_degree(args, entry))
            ann_entries.append(payload)
            if not ok:
                failures.append(f"{payload['label']}: computed {payload['computed']} "
                                f"({payload['status']}) vs expected {payload['expected']}")
        topo, topo_ok = _topology_payload(ring_id, field, N, n_max, 4, "all")
        if not topo_ok:
            failures.append(f"{ring_id}: topology verdict {topo['verdict']}")
        rings[ring_id] = {
            "validate": val_entries,
            "annihilators": ann_entries,
            "topology": topo,
        }
    # y^n vanishes in R_N once n >= N: the chain descends strictly up to n = N
    n_cm0 = max(n_max, 6)
    sub, _ok = _topology_payload("a-inf-1", field, max(min(N, 8), n_cm0), n_cm0, 4, "cm0")
    if sub["verdict"] != "not-compact-evidence":
        failures.append(f"a-inf-1/cm0: topology verdict {sub['verdict']}")
    props = _property_payload(field)
    failures += [f"{c['label']}: {c['property']} failed" for c in props if not c["ok"]]
    sections = {"rings": rings, "subfamilies": {"a-inf-1/cm0": sub}, "properties": props}
    if failures:
        sections["first_diff"] = failures[0]
    return _emit(args, field, not failures, **sections)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_at_least(low):
    """An argparse type: an integer >= low, else a usage error (exit 1)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _add_common(p, *reads):
    """--field, --out, --format and the flags of the settings in reads; an
    unread setting takes no flag, but keeps its default in the config."""
    p.add_argument("--field", default="fp:13", help="fp:P or q (default fp:13)")
    if "trunc" in reads:
        p.add_argument("--trunc", "-N", type=_int_at_least(1), metavar="N",
                       help="truncation level (default 10)")
    if "witness_degree" in reads:
        p.add_argument("--witness-degree", "-D", type=_int_at_least(0), metavar="D",
                       help="witness degree bound (default: for ann and reproduce-paper n+2 "
                            "per parametric entry and 3 otherwise; 4 for topology, 3 for double)")
    if "n_max" in reads:
        p.add_argument("--n-max", type=_int_at_least(1), metavar="K",
                       help="largest parameter value for parametric entries")
    p.add_argument("--out", default=None, metavar="FILE", help="write report to FILE")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(**DEFAULTS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mfann",
        description="Annihilators of stable endomorphism rings over hypersurface rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check phi*psi = psi*phi = f*I")
    p.add_argument("selector", nargs="?", default=None,
                   help="ring id or ring/label[?n=K] selector")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="validate a matrix factorization from a JSON file")
    _add_common(p, "n_max")
    p.set_defaults(func=cmd_validate, n_max=None)  # None: not given

    p = sub.add_parser("ann", help="compute one annihilator with certificates")
    p.add_argument("selector", help="ring/label[?n=K] selector")
    _add_common(p, "trunc", "witness_degree")
    p.set_defaults(func=cmd_ann)

    p = sub.add_parser("topology", help="compactness verdict for a module family")
    p.add_argument("ring", choices=RING_IDS)
    p.add_argument("--subfamily", choices=("all", "cm0"), default="all")
    _add_common(p, "trunc", "witness_degree", "n_max")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("double", help="form the doubled factorization over f + t^2")
    p.add_argument("selector", help="ring/label[?n=K] selector")
    _add_common(p, "trunc", "witness_degree")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("reproduce-paper",
                       help="full catalog run: validation, tables, verdicts")
    _add_common(p, "trunc", "witness_degree", "n_max")
    p.set_defaults(func=cmd_reproduce_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CatalogError, SpecError, FieldError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
