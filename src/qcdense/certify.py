"""Per-character witness search and bounded certification.

A qc-certificate at bound B states: every nonzero character of complexity
at most B sends some member of the sequence outside the closed quarter arc
around zero.  Each record carries the witnessing member and its exact
pairing value, re-verified through the generic evaluation path before the
certificate is assembled.  A generation certificate replaces the escape
condition with a nonzero pairing value, which rules out that the members
sit inside a proper closed subgroup cut out by a bounded character.

Constructive finders exist for the shipped generators; when a finder
reports that the witness falls outside the materialized truncation the
certifier falls back to a brute scan over the members in canonical order.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ._intmath import factorize
from .circle import UnitRational, in_tplus
from .duality import (
    Character,
    ProductChar,
    ProfiniteChar,
    SolenoidChar,
    TorusChar,
    char_sort_key,
    enumerate_chars,
    eval_char,
    is_trivial,
    trivial_char,
)
from .errors import (
    InvariantViolation,
    KindMismatch,
    SizeLimit,
    TruncationTooSmall,
    UnsupportedBound,
    ValidationError,
)
from .groups import (
    IntegerPoint,
    ProductElem,
    group_zero,
    in_Wn,
    k_sequence,
)
from .sequences import SuperSeq

METHOD_TORUS = "torus_formula"
METHOD_MINIMAL_N = "minimal_n"
METHOD_SOLENOID = "solenoid_split"
METHOD_FAN = "fan_component"
METHOD_BRUTE = "brute_force"


@dataclass(frozen=True, init=False)
class WitnessRecord:
    character: Character
    witness: object
    value: UnitRational
    in_tplus: bool
    method: str

    def __init__(self, character, witness, value, in_tplus, method):
        # one record per certified character: fill the instance dict
        # directly instead of one frozen-guarded setattr per field
        d = self.__dict__
        d["character"] = character
        d["witness"] = witness
        d["value"] = value
        d["in_tplus"] = in_tplus
        d["method"] = method


@dataclass(frozen=True)
class Certificate:
    group: object
    sequence_spec: tuple[str, tuple]
    bound: int
    mode: str  # "qc" or "generation"
    status: str  # "certified" or "failed"
    failed_character: Character | None
    records: tuple[WitnessRecord, ...]
    coverage: str = "full"  # "componentwise" for fan-factored sweeps

    @property
    def certified(self) -> bool:
        return self.status == "certified"


# ---------------------------------------------------------------------------
# constructive witness finders


def least_escaping_multiple(num: int, den: int) -> int:
    """Least m >= 1 with m*num/den mod 1 outside the closed quarter arc.

    num/den is canonical and nonzero.  When the point sits inside the arc,
    its step from 0 is at most a quarter turn while the escape arc spans a
    half turn, so the first multiple crossing a quarter boundary cannot
    overshoot; that multiple has a closed form.
    """
    if den <= 1 or num == 0:
        raise ValidationError("the zero point never escapes")
    if 4 * num > den and 4 * num < 3 * den:
        return 1
    if 4 * num <= den:
        return den // (4 * num) + 1
    return den // (4 * (den - num)) + 1


def witness_torus(chi: TorusChar | int, seq: SuperSeq) -> WitnessRecord:
    """Witness for a nonzero circle character: the member phi(1/(2|m|)).

    Its pairing value is exactly a half turn.  The member must exist in the
    truncation, so callers need depth at least |m|.
    """
    chi = TorusChar(chi) if isinstance(chi, int) else chi
    if chi.m == 0:
        raise ValidationError("trivial character has no witness")
    member = seq.reciprocal_members.get(2 * abs(chi.m))
    if member is None:
        raise TruncationTooSmall(
            f"need the member 1/{2 * abs(chi.m)} in the truncation", needed=abs(chi.m)
        )
    value = eval_char(chi, member)
    if in_tplus(value):
        raise InvariantViolation("torus witness failed its escape check")
    return WitnessRecord(chi, member, value, False, METHOD_TORUS)


def minimal_level(b: int, primes: tuple[int, ...]) -> int:
    """The least n with b dividing k_n, from the factorization of b."""
    if b < 2:
        raise ValidationError("need a denominator of at least 2")
    index = {p: i for i, p in enumerate(primes)}
    n = 0
    for p, e in factorize(b).items():
        if p not in index:
            raise UnsupportedBound(
                f"denominator prime {p} is outside the working prime list"
            )
        n = max(n, index[p] + 1, e)
    return n


# level data per denominator, one table per prime tuple: the tables amortize
# factorization and the big-integer reduction across the phi(b) characters
# sharing a denominator.  The tuple of the previous call is matched by
# identity, so a sweep over one prime list never hashes it.  A table is
# emptied when it holds _LEVEL_TABLE_SIZE entries, and all of them when a
# new tuple would make _LEVEL_TABLES of them.
_LEVEL_TABLE_SIZE = 65536
_LEVEL_TABLES = 16
_level_tables: dict[tuple[int, ...], dict[int, tuple[int, int, int]]] = {}
_last_level_table: tuple[object, dict[int, tuple[int, int, int]]] = (None, {})


def _level_data(b: int, primes: tuple[int, ...]) -> tuple[int, int, int]:
    global _last_level_table
    last, table = _last_level_table
    if primes is not last:
        table = _level_tables.get(primes)
        if table is None:
            if len(_level_tables) >= _LEVEL_TABLES:
                _level_tables.clear()
            table = _level_tables[primes] = {}
        _last_level_table = (primes, table)
    data = table.get(b)
    if data is None:
        n = minimal_level(b, primes)
        k_prev = k_sequence(primes, n - 1)
        if len(table) >= _LEVEL_TABLE_SIZE:
            table.clear()
        data = table[b] = (n, k_prev, k_prev % b)
    return data


def _tower_witness_core(a: int, b: int, primes: tuple[int, ...]) -> tuple[int, int, int]:
    """Shared minimal-level witness data for a profinite character a/b.

    Returns (n, m, w): the minimal level n with the character trivial on
    W_n, the least escaping multiplier m, and the member value w = m*k_{n-1}.
    The pairing of the character with k_{n-1}*v must be nonzero by the
    minimality of n; that is re-checked and a violation aborts loudly.
    """
    n, k_prev, k_mod = _level_data(b, primes)
    c0 = (a * k_mod) % b
    if c0 == 0:
        raise InvariantViolation(
            f"character {a}/{b} already vanishes on k_{n - 1}*v although "
            f"{b} does not divide k_{n - 1}"
        )
    g = gcd(c0, b)
    m = least_escaping_multiple(c0 // g, b // g)
    return n, m, m * k_prev


def witness_profinite(
    chi: ProfiniteChar | UnitRational, seq: SuperSeq, primes: tuple[int, ...] | None = None
) -> WitnessRecord:
    """Minimal-level witness for a nonzero profinite character a/b.

    The character kills W_n for the least n with b | k_n but not W_{n-1};
    the witness is the least multiple of k_{n-1}*v escaping the quarter arc.
    """
    chi = ProfiniteChar(chi) if isinstance(chi, UnitRational) else chi
    q = chi.q
    if q.num == 0:
        raise ValidationError("trivial character has no witness")
    if primes is None:
        primes = seq.group.primes
    n, m, w = _tower_witness_core(q.num, q.den, primes)
    witness = seq.integer_members.get(w)
    if witness is None:
        raise TruncationTooSmall(
            f"witness needs truncation level {n - 1} with multiplier cap {m}",
            needed=(n - 1, m),
        )
    value = eval_char(chi, witness)
    if in_tplus(value):
        raise InvariantViolation("tower witness failed its escape check")
    return WitnessRecord(chi, witness, value, False, METHOD_MINIMAL_N)


def witness_solenoid(
    chi: SolenoidChar | Fraction, seq: SuperSeq, primes: tuple[int, ...] | None = None
) -> WitnessRecord:
    """Witness for a nonzero solenoid character q = a/b, split on b.

    Integer characters (b = 1) kill the profinite fiber and factor through
    the arc quotient circle, so the halving block witnesses them; b >= 2
    restricts nontrivially to the fiber and the minimal-level witness comes
    back through the identification pi(0, w*v) = pi(-w, 0).
    """
    chi = SolenoidChar(chi) if isinstance(chi, Fraction) else chi
    if chi.q == 0:
        raise ValidationError("trivial character has no witness")
    if primes is None:
        primes = seq.group.primes
    a, b = chi.q.numerator, chi.q.denominator
    if b == 1:
        member = seq.reciprocal_members.get(2 * abs(a))
        if member is None:
            raise TruncationTooSmall(
                f"need the arc member at 1/{2 * abs(a)}", needed=abs(a)
            )
    else:
        # the fiber restriction pairs h with -a/b
        n, m, w = _tower_witness_core((-a) % b, b, primes)
        member = seq.integer_members.get(-w)
        if member is None:
            raise TruncationTooSmall(
                f"witness needs truncation level {n - 1} with multiplier cap {m}",
                needed=(n - 1, m),
            )
    value = eval_char(chi, member)
    if in_tplus(value):
        raise InvariantViolation("solenoid witness failed its escape check")
    return WitnessRecord(chi, member, value, False, METHOD_SOLENOID)


def brute_force_witness(chi: Character, seq: SuperSeq) -> WitnessRecord | None:
    """First member in canonical order whose pairing escapes, if any."""
    for x in seq.members:
        value = eval_char(chi, x)
        if not in_tplus(value):
            return WitnessRecord(chi, x, value, False, METHOD_BRUTE)
    return None


def _embed(chi_component: Character, j: int, factors: tuple) -> ProductChar:
    comps = [trivial_char(f) for f in factors]
    comps[j] = chi_component
    return ProductChar(tuple(comps))


def _embed_elem(x: object, j: int, zeros: tuple) -> ProductElem:
    coords = list(zeros)
    coords[j] = x
    return ProductElem(tuple(coords))


def _find(chi: Character, seq: SuperSeq, mode: str) -> WitnessRecord | None:
    """Constructive witness for chi on seq, else the first member meeting the mode.

    A qc witness value lies outside the quarter arc, hence is nonzero, so
    the constructive finders and the escape scan serve generation too; only
    when no member escapes does generation fall back to a nonzero pairing.
    """
    kind = seq.group.kind
    try:
        if kind == "torus" and chi.kind == "torus":
            return witness_torus(chi, seq)
        if kind == "profinite" and chi.kind == "profinite":
            return witness_profinite(chi, seq)
        if kind == "solenoid" and chi.kind == "solenoid":
            return witness_solenoid(chi, seq)
        if seq.parts is not None and chi.kind == "product":
            return witness_fan(chi, seq)
    except TruncationTooSmall:
        pass
    rec = brute_force_witness(chi, seq)
    if rec is None and mode == "generation":
        for x in seq.members:
            value = eval_char(chi, x)
            if not value.is_zero():
                return WitnessRecord(chi, x, value, in_tplus(value), METHOD_BRUTE)
    return rec


def witness_fan(chi: ProductChar, seq: SuperSeq) -> WitnessRecord:
    """Witness a product character on a fan through one component.

    Fan members live on single coordinates, so the full character evaluated
    at an embedded member equals the component evaluation there; the least
    nonzero component that yields a member witness decides.
    """
    if seq.parts is None:
        raise KindMismatch("witness_fan needs a fan-generated sequence")
    if not isinstance(chi, ProductChar):
        raise KindMismatch("witness_fan needs a product character")
    zeros = group_zero(seq.group).coords
    for j, comp in enumerate(chi.components):
        if is_trivial(comp):
            continue
        rec = _find(comp, seq.parts[j], "qc")
        if rec is None:
            # this component annihilates its part; a later one may escape
            continue
        witness = _embed_elem(rec.witness, j, zeros)
        value = eval_char(chi, witness)
        if value != rec.value or in_tplus(value):
            raise InvariantViolation("fan witness failed its embedding check")
        return WitnessRecord(chi, witness, value, False, METHOD_FAN)
    raise TruncationTooSmall(
        "no component of the character escapes on its part", needed=None
    )


# ---------------------------------------------------------------------------
# certification


def _reverify(rec: WitnessRecord, mode: str) -> None:
    value = eval_char(rec.character, rec.witness)
    if value != rec.value:
        raise InvariantViolation("record value does not re-verify")
    if mode == "qc" and in_tplus(value):
        raise InvariantViolation("qc record value re-verifies inside the arc")
    if mode == "generation" and value.is_zero():
        raise InvariantViolation("generation record value re-verifies to zero")


def _certify(
    group: object,
    spec: tuple[str, tuple],
    bound: int,
    mode: str,
    items: Iterable[tuple[Character, Character, SuperSeq, int | None]],
    coverage: str = "full",
    zeros: tuple = (),
) -> Certificate:
    """Sweep the work items in order and stop at the first failing character.

    An item (chi, comp, part, j) certifies chi through a witness for comp
    among the members of part.  With j None the record stands as found;
    otherwise its witness is embedded at coordinate j of zeros, and the
    re-verification of the full character at the embedded witness checks
    that the embedding kept the component value.
    """
    records: list[WitnessRecord] = []
    failed: Character | None = None
    for chi, comp, part, j in items:
        rec = _find(comp, part, mode)
        if rec is None:
            failed = chi
            break
        if j is not None:
            witness = _embed_elem(rec.witness, j, zeros)
            rec = WitnessRecord(chi, witness, rec.value, rec.in_tplus, rec.method)
        _reverify(rec, mode)
        records.append(rec)
    return Certificate(
        group=group,
        sequence_spec=spec,
        bound=bound,
        mode=mode,
        status="certified" if failed is None else "failed",
        failed_character=failed,
        records=tuple(records),
        coverage=coverage,
    )


def _fan_items(seq: SuperSeq, bound: int) -> list[tuple[ProductChar, Character, SuperSeq, int]]:
    """Work items for the componentwise fan sweep, complexity-major.

    Every product character at the bound is nonzero on some coordinate, and
    fan members are supported on single coordinates, so records for the
    embedded single-component characters cover all mixed characters: a
    mixed character inherits the witness of any nonzero component with a
    record.  The sweep therefore certifies the full cartesian dual at the
    bound while materializing only the component records.
    """
    factors = seq.group.factors
    tagged: list[tuple[tuple, int, Character]] = []
    for j, f in enumerate(factors):
        for comp in enumerate_chars(f, bound):
            tagged.append((char_sort_key(comp), j, comp))
    tagged.sort(key=lambda t: (t[0], t[1]))
    return [(_embed(comp, j, factors), comp, seq.parts[j], j) for _, j, comp in tagged]


def _certify_sequence(seq: SuperSeq, G: object, bound: int, mode: str) -> Certificate:
    if G != seq.group:
        raise KindMismatch("group descriptor does not match the sequence group")
    spec = (seq.generator, seq.params)
    if seq.parts is not None and G.kind == "product":
        items = _fan_items(seq, bound)
        return _certify(G, spec, bound, mode, items, "componentwise", group_zero(G).coords)
    items = ((chi, chi, seq, None) for chi in enumerate_chars(G, bound))
    return _certify(G, spec, bound, mode, items)


def certify_qc(
    seq: SuperSeq, G: object, bound: int, threads: int | None = None
) -> Certificate:
    """Certify that every nonzero character at the bound escapes on members.

    Fan sequences sweep componentwise (see _fan_items); everything else
    enumerates the full dual at the bound.  The sweep is serial and stops
    at the first character without a witness.  threads is accepted for
    older callers and ignored.
    """
    return _certify_sequence(seq, G, bound, "qc")


def check_generation(
    seq: SuperSeq, G: object, bound: int, threads: int | None = None
) -> Certificate:
    """Certify that no nonzero character at the bound annihilates the members.

    Success means the members topologically generate against every closed
    subgroup a bounded character can cut out.  threads is accepted for
    older callers and ignored.
    """
    return _certify_sequence(seq, G, bound, "generation")


# ---------------------------------------------------------------------------
# escape reports


@dataclass(frozen=True)
class EscapeReport:
    group: object
    sequence_spec: tuple[str, tuple]
    n: int
    members: tuple[object, ...]
    count: int
    stable: bool


ESCAPE_ENUMERATION_LIMIT = 2_000_000


def escape_report(seq: SuperSeq, n: int) -> EscapeReport:
    """Members of a profinite truncation outside the open subgroup W_n.

    Only finitely many members of the full family escape W_n: members
    derived at level n or deeper always lie inside.  The report is stable
    when raising the multiplier cap to its full per-level value cannot add
    escapes, which is checked exactly against the shallow levels.
    """
    if seq.generator != "profinite" or seq.group.kind != "profinite":
        raise KindMismatch("escape reports apply to profinite tower sequences")
    primes = seq.group.primes
    params = dict(seq.params)
    n_max: int = params["n_max"]
    m_cap: int | None = params.get("m_cap")
    escaping = tuple(
        x for x in seq.members if not in_Wn(x, primes, n)
    )
    stable = True
    if n > 0:
        member_values = {x.m for x in seq.members}
        budget = ESCAPE_ENUMERATION_LIMIT
        for j in range(0, min(n - 1, n_max) + 1):
            full_cap = k_sequence(primes, j + 1)
            eff_cap = full_cap if m_cap is None else min(full_cap, m_cap)
            if eff_cap >= full_cap:
                continue
            k_j = k_sequence(primes, j)
            budget -= full_cap - eff_cap
            if budget < 0:
                raise SizeLimit(
                    "stability check needs to enumerate too many candidate members"
                )
            for m in range(eff_cap + 1, full_cap + 1):
                w = m * k_j
                if w in member_values:
                    continue
                if not in_Wn(IntegerPoint(w), primes, n):
                    stable = False
                    break
            if not stable:
                break
    return EscapeReport(
        group=seq.group,
        sequence_spec=(seq.generator, seq.params),
        n=n,
        members=escaping,
        count=len(escaping),
        stable=stable,
    )
