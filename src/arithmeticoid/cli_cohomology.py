"""Handlers of the ``cohomology`` commands: Kummer classes, Tate classes and
collation.  ``cli`` imports this module when one of them runs."""

from __future__ import annotations

from . import cohomology
from .cli import (
    CliError,
    CliResult,
    Config,
    _read_json,
    _tuple_cell,
    canon_json,
    parse_complex,
    parse_element,
    parse_place,
)


def _residue_cells(v, k) -> tuple:
    """A Kummer class's order part as "n mod p^k" and its unit tag as "(a,b)"."""
    return f"{k.order_part} mod {v.prime ** k.precision}", _tuple_cell(k.unit_tag)


def cmd_cohomology_kummer(cfg: Config, args) -> CliResult:
    v = parse_place(cfg.field, args.place)
    x = parse_element(cfg.field, args.x)
    k = cohomology.kummer_class(x, v, args.level)
    doc = {
        "field": str(cfg.field),
        "x": str(x),
        "place": v.to_json(),
        "level": k.precision,
        "order_part": k.order_part,
        "order_modulus": v.prime ** k.precision,
        "unit_tag": list(k.unit_tag),
        "tag_modulus": k.tag_modulus,
        "is_unit_class": k.is_unit_class(),
    }
    order_part, unit_tag = _residue_cells(v, k)
    return CliResult(doc, ["field", "x", ("place", v), ("order_part", order_part),
                           ("unit_tag", unit_tag), "tag_modulus", "is_unit_class"])


def cmd_cohomology_tate(cfg: Config, args) -> CliResult:
    semistable = {}
    for spec in args.entry or []:
        if ":" not in spec:
            raise CliError(f"entry {spec!r} must look like 7:3/1")
        tok, raw = spec.split(":", 1)
        v = parse_place(cfg.field, tok)
        semistable[v] = parse_element(cfg.field, raw)
    arch = parse_complex(args.arch)
    cls = cohomology.tate_class(cfg.field, semistable, arch, n=args.level)
    doc = cohomology.adelic_class_to_json(cls)
    doc["bloch_kato_member"] = cohomology.bloch_kato_member(cls)
    rows = [[v, *_residue_cells(v, k), k.tag_modulus] for v, k in cls.finite]
    return CliResult(doc, ["field", ("archimedean", cls.archimedean), "bloch_kato_member"],
                     ["place", "order_part", "unit_tag", "tag_modulus"], rows)


def cmd_cohomology_collate(cfg: Config, args) -> CliResult:
    data = _read_json(args.input)
    try:
        classes = {label: cohomology.adelic_class_from_json(doc)
                   for label, doc in data["classes"].items()}
        isos = {label: [cohomology.transform_from_json(cls.field, t)
                        for t in data.get("transforms", {}).get(label, [])]
                for label, cls in classes.items()}
    except (AttributeError, KeyError, TypeError) as exc:
        raise CliError(f'{args.input} must hold {{"classes": {{label: class}}, '
                       f'"transforms": {{label: [transform]}}}}') from exc
    except ValueError as exc:
        raise CliError(f"{args.input}: {exc}") from exc
    merged = cohomology.collate(classes, isos)
    docs = sorted((cohomology.adelic_class_to_json(c) for c in merged), key=canon_json)
    doc = {"input_count": len(classes), "collated_count": len(merged),
           "classes": docs}
    return CliResult(doc, ["input_count", "collated_count"])
