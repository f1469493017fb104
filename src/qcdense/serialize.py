"""JSON encoding for groups, elements, characters, and certificates.

Integers that can exceed 2**53 (integer points) travel as decimal strings
so consumers in double-precision languages stay exact.
Bounded integers (character parameters, levels, counts) stay as numbers.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .certify import Certificate, EscapeReport, WitnessRecord
from .circle import UnitRational
from .duality import (
    CyclicChar,
    FiniteAbelianChar,
    ProductChar,
    ProfiniteChar,
    SolenoidChar,
    TorusChar,
)
from .errors import ValidationError
from .groups import (
    Cyclic,
    IntegerPoint,
    ProductElem,
    Product,
    ProductWithFinite,
    Profinite,
    Solenoid,
    SolenoidPoint,
    Torus,
)


def canonical_dumps(obj) -> str:
    """Stable byte-for-byte JSON text for a payload."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _Shared(dict):
    """A JSON object that several records hold; json treats it as a dict."""

    __slots__ = ()


def dump_indented(obj, fh) -> None:
    """Write the bytes json.dump(obj, fh, indent=2, sort_keys=True) writes.

    obj is made of dicts with str keys, lists, str, int, bool and None.
    Dicts are streamed key by key and each list item is rendered in one
    piece and written with one fh.write, so the whole text is never held.
    The text of a _Shared value is rendered once per depth and reused; no
    other value's text is kept.
    """
    shared: dict[tuple[int, int], str] = {}

    def render(o, depth: int) -> str:
        # str values, the most common, are encoded inline by their container
        if isinstance(o, dict):
            if not o:
                return "{}"
            if type(o) is _Shared:
                text = shared.get((id(o), depth))
                if text is not None:
                    return text
            d = depth + 1
            inner = "\n" + "  " * d
            body = ("," + inner).join([
                _encode_str(k) + ": " + (_encode_str(v) if type(v) is str else render(v, d))
                for k, v in sorted(o.items())
            ])
            text = "{" + inner + body + "\n" + "  " * depth + "}"
            if type(o) is _Shared:
                shared[(id(o), depth)] = text
            return text
        if isinstance(o, list):
            if not o:
                return "[]"
            d = depth + 1
            inner = "\n" + "  " * d
            body = ("," + inner).join(
                [_encode_str(v) if type(v) is str else render(v, d) for v in o]
            )
            return "[" + inner + body + "\n" + "  " * depth + "]"
        if isinstance(o, str):
            return _encode_str(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    def stream(o, depth: int) -> None:
        inner = "\n" + "  " * (depth + 1)
        if isinstance(o, dict) and o:
            sep = "{" + inner
            for k, v in sorted(o.items()):
                fh.write(sep + _encode_str(k) + ": ")
                stream(v, depth + 1)
                sep = "," + inner
            fh.write("\n" + "  " * depth + "}")
        elif isinstance(o, list) and o:
            sep = "[" + inner
            for v in o:
                fh.write(sep + render(v, depth + 1))
                sep = "," + inner
            fh.write("\n" + "  " * depth + "]")
        else:
            fh.write(render(o, depth))

    stream(obj, 0)


# ---------------------------------------------------------------------------
# rationals


def rational_to_json(x: UnitRational) -> str:
    return x.to_string()


def rational_from_json(s: str) -> UnitRational:
    if not isinstance(s, str) or "/" not in s:
        raise ValidationError(f"expected 'num/den', got {s!r}")
    num, den = s.split("/", 1)
    return UnitRational(int(num), int(den))


def fraction_to_json(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def fraction_from_json(s: str) -> Fraction:
    num, den = s.split("/", 1)
    return Fraction(int(num), int(den))


# ---------------------------------------------------------------------------
# group descriptors


def group_to_json(G) -> dict:
    kind = G.kind
    if kind == "torus":
        return {"kind": "torus"}
    if kind == "profinite":
        return {"kind": "profinite", "primes": list(G.primes)}
    if kind == "solenoid":
        return {"kind": "solenoid", "primes": list(G.primes)}
    if kind == "cyclic":
        return {"kind": "cyclic", "n": G.n}
    if kind == "product":
        return {"kind": "product", "factors": [group_to_json(f) for f in G.factors]}
    if kind == "product_with_finite":
        F = G.finite
        return {
            "kind": "product_with_finite",
            "abelian": group_to_json(G.abelian),
            "finite": {
                "name": F.name,
                "order": F.order,
                "table": [list(row) for row in F.table],
            },
        }
    raise ValidationError(f"unknown group kind {kind!r}")


def group_from_json(data: dict):
    kind = data.get("kind")
    if kind == "torus":
        return Torus()
    if kind == "profinite":
        return Profinite(tuple(data["primes"]))
    if kind == "solenoid":
        return Solenoid(tuple(data["primes"]))
    if kind == "cyclic":
        return Cyclic(data["n"])
    if kind == "product":
        return Product(tuple(group_from_json(f) for f in data["factors"]))
    if kind == "product_with_finite":
        from .nonabelian import FiniteGroup

        fin = data["finite"]
        F = FiniteGroup(fin.get("name", "loaded"), fin["table"])
        return ProductWithFinite(group_from_json(data["abelian"]), F)
    raise ValidationError(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# elements


def element_to_json(x):
    if isinstance(x, UnitRational):
        return x.to_string()
    if isinstance(x, bool):
        raise ValidationError("booleans are not group elements")
    if isinstance(x, int):
        return x
    if isinstance(x, IntegerPoint):
        return {"type": "int_point", "m": str(x.m)}
    if isinstance(x, SolenoidPoint):
        return {
            "type": "solenoid",
            "r": fraction_to_json(x.r),
            "h": element_to_json(x.h),
        }
    if isinstance(x, ProductElem):
        return {"type": "tuple", "coords": [element_to_json(c) for c in x.coords]}
    raise ValidationError(f"cannot serialize element {x!r}")


def element_from_json(data):
    if isinstance(data, str):
        return rational_from_json(data)
    if isinstance(data, bool):
        raise ValidationError("booleans are not group elements")
    if isinstance(data, int):
        return data
    typ = data.get("type")
    if typ == "int_point":
        return IntegerPoint(int(data["m"]))
    if typ == "solenoid":
        return SolenoidPoint(fraction_from_json(data["r"]), element_from_json(data["h"]))
    if typ == "tuple":
        return ProductElem(tuple(element_from_json(c) for c in data["coords"]))
    raise ValidationError(f"unknown element type {typ!r}")


# ---------------------------------------------------------------------------
# characters


def char_to_json(chi) -> dict:
    kind = chi.kind
    if kind == "torus":
        return {"kind": "torus", "m": chi.m}
    if kind == "profinite":
        return {"kind": "profinite", "q": rational_to_json(chi.q)}
    if kind == "solenoid":
        return {"kind": "solenoid", "q": fraction_to_json(chi.q)}
    if kind == "cyclic":
        return {"kind": "cyclic", "k": chi.k, "n": chi.n}
    if kind == "product":
        return {"kind": "product", "components": [char_to_json(c) for c in chi.components]}
    if kind == "finite_abelian":
        return {
            "kind": "finite_abelian",
            "coeffs": list(chi.coeffs),
            "factors": list(chi.factors),
        }
    raise ValidationError(f"unknown character kind {kind!r}")


def char_from_json(data: dict, group=None):
    """Rebuild a character; finite-abelian parts need the ambient group."""
    kind = data.get("kind")
    if kind == "torus":
        return TorusChar(data["m"])
    if kind == "profinite":
        return ProfiniteChar(rational_from_json(data["q"]))
    if kind == "solenoid":
        return SolenoidChar(fraction_from_json(data["q"]))
    if kind == "cyclic":
        return CyclicChar(data["k"], data["n"])
    if kind == "product":
        comps = []
        for i, c in enumerate(data["components"]):
            sub = None
            if group is not None and group.kind == "product":
                sub = group.factors[i]
            elif group is not None and group.kind == "product_with_finite":
                sub = group if c.get("kind") == "finite_abelian" else group.abelian
            comps.append(char_from_json(c, sub))
        return ProductChar(tuple(comps))
    if kind == "finite_abelian":
        factors = tuple(data["factors"])
        if not factors:
            return FiniteAbelianChar((), (), ())
        if group is None or group.kind != "product_with_finite":
            raise ValidationError(
                "finite characters need the product-with-finite group for the projection"
            )
        from .nonabelian import abelianization

        desc = abelianization(group.finite)
        if desc.factors != factors:
            raise ValidationError("finite character factors do not match the group")
        return FiniteAbelianChar(tuple(data["coeffs"]), factors, desc.proj)
    raise ValidationError(f"unknown character kind {kind!r}")


# ---------------------------------------------------------------------------
# sequences, certificates, reports


def _value_to_json(v):
    if isinstance(v, UnitRational):
        return v.to_string()
    if isinstance(v, Fraction):
        return fraction_to_json(v)
    if isinstance(v, (IntegerPoint, SolenoidPoint, ProductElem)):
        return element_to_json(v)
    if isinstance(v, tuple):
        return [_value_to_json(c) for c in v]
    if v is None or isinstance(v, (int, str, bool)):
        return v
    raise ValidationError(f"cannot serialize parameter value {v!r}")


def _params_to_json(params: tuple) -> list:
    return [[k, _value_to_json(v)] for k, v in params]


def sequence_spec_to_json(spec: tuple[str, tuple]) -> dict:
    generator, params = spec
    return {"generator": generator, "params": _params_to_json(params)}


def superseq_to_json(seq) -> dict:
    return {
        "group": group_to_json(seq.group),
        "generator": seq.generator,
        "params": _params_to_json(seq.params),
        "limit": element_to_json(seq.limit),
        "members": [element_to_json(x) for x in seq.members],
        "index_meta": [_value_to_json(m) for m in seq.index_meta],
        "arc_flags": [bool(f) for f in seq.arc_flags],
    }


def record_to_json(rec: WitnessRecord, witness=None) -> dict:
    """One record; witness, when given, is the already encoded rec.witness."""
    return {
        "character": char_to_json(rec.character),
        "witness": element_to_json(rec.witness) if witness is None else witness,
        "value": rational_to_json(rec.value),
        "in_tplus": rec.in_tplus,
        "method": rec.method,
    }


def certificate_to_json(cert: Certificate) -> dict:
    # witnesses recur across records (the solenoid at bound 200 has 48,926
    # records and 621 distinct members), so each witness object is encoded
    # once, and an object several records hold becomes a _Shared value that
    # dump_indented renders once; the records keep every keyed object alive
    # for the whole call
    uses = Counter(id(rec.witness) for rec in cert.records)
    encoded: dict[int, object] = {}
    records = []
    for rec in cert.records:
        key = id(rec.witness)
        witness = encoded.get(key)
        if witness is None:
            witness = element_to_json(rec.witness)
            if uses[key] > 1 and isinstance(witness, dict):
                witness = _Shared(witness)
            encoded[key] = witness
        records.append(record_to_json(rec, witness))
    return {
        "group": group_to_json(cert.group),
        "sequence": sequence_spec_to_json(cert.sequence_spec),
        "bound": cert.bound,
        "mode": cert.mode,
        "coverage": cert.coverage,
        "status": cert.status,
        "failed_character": (
            None if cert.failed_character is None else char_to_json(cert.failed_character)
        ),
        "records": records,
    }


def certificate_from_json(data: dict) -> Certificate:
    G = group_from_json(data["group"])
    records = tuple(
        WitnessRecord(
            character=char_from_json(r["character"], G),
            witness=element_from_json(r["witness"]),
            value=rational_from_json(r["value"]),
            in_tplus=r["in_tplus"],
            method=r["method"],
        )
        for r in data["records"]
    )
    failed = data.get("failed_character")
    seq = data["sequence"]
    return Certificate(
        group=G,
        sequence_spec=(seq["generator"], tuple((k, _value_from_json(v)) for k, v in seq["params"])),
        bound=data["bound"],
        mode=data["mode"],
        status=data["status"],
        failed_character=None if failed is None else char_from_json(failed, G),
        records=records,
        coverage=data.get("coverage", "full"),
    )


def _value_from_json(v):
    if isinstance(v, list):
        return tuple(_value_from_json(c) for c in v)
    if isinstance(v, dict):
        return element_from_json(v)
    if isinstance(v, str) and "/" in v and v.split("/", 1)[0].isdigit():
        return rational_from_json(v)
    return v


def escape_report_to_json(rep: EscapeReport) -> dict:
    return {
        "group": group_to_json(rep.group),
        "sequence": sequence_spec_to_json(rep.sequence_spec),
        "level": rep.n,
        "count": rep.count,
        "stable": rep.stable,
        "members": [element_to_json(x) for x in rep.members],
    }
