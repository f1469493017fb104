"""JSON round trips, the decimal-string policy, canonical payload bytes."""

import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qcdense import primes_below
from qcdense.certify import certify_qc, check_generation, escape_report
from qcdense.circle import UnitRational, phi
from qcdense.duality import (
    CyclicChar,
    FiniteAbelianChar,
    ProductChar,
    ProfiniteChar,
    SolenoidChar,
    TorusChar,
)
from qcdense.errors import ValidationError
from qcdense.groups import (
    Cyclic,
    IntegerPoint,
    Product,
    ProductElem,
    ProductWithFinite,
    Profinite,
    Solenoid,
    SolenoidPoint,
    Torus,
)
from qcdense.nonabelian import builtin_group, certify_qc_with_finite_factor
from qcdense.sequences import (
    fan,
    from_members,
    profinite_sequence,
    solenoid_sequence,
    torus_sequence,
)
from qcdense.serialize import (
    _Shared,
    canonical_dumps,
    certificate_from_json,
    certificate_to_json,
    char_from_json,
    char_to_json,
    dump_indented,
    element_from_json,
    element_to_json,
    escape_report_to_json,
    fraction_from_json,
    fraction_to_json,
    group_from_json,
    group_to_json,
    rational_from_json,
    rational_to_json,
    superseq_to_json,
)

P235 = (2, 3, 5)


# --- scalars -------------------------------------------------------------------


class TestScalars:
    def test_rational_round_trip(self):
        for x in [UnitRational(0, 1), UnitRational(1, 2), UnitRational(3, 7)]:
            assert rational_from_json(rational_to_json(x)) == x

    def test_rational_rejects_bare_number(self):
        with pytest.raises(ValidationError):
            rational_from_json("5")

    def test_fraction_round_trip(self):
        for q in [Fraction(0), Fraction(-5, 3), Fraction(7)]:
            assert fraction_from_json(fraction_to_json(q)) == q

    def test_fraction_keeps_sign(self):
        assert fraction_to_json(Fraction(-1, 2)) == "-1/2"


# --- groups ----------------------------------------------------------------------


class TestGroups:
    def test_round_trips(self):
        groups = [
            Torus(),
            Profinite(P235),
            Solenoid((2, 3, 5, 7)),
            Cyclic(12),
            Product((Torus(), Profinite(P235))),
            ProductWithFinite(Torus(), builtin_group("S3")),
        ]
        for G in groups:
            assert group_from_json(group_to_json(G)) == G

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            group_from_json({"kind": "lattice"})

    def test_finite_side_carries_its_table(self):
        G = ProductWithFinite(Torus(), builtin_group("Q8"))
        data = group_to_json(G)
        assert data["finite"]["order"] == 8
        assert len(data["finite"]["table"]) == 8


# --- elements ---------------------------------------------------------------------


class TestElements:
    def test_round_trips(self):
        pts = [
            UnitRational(1, 3),
            IntegerPoint(-7),
            IntegerPoint(2**80 + 1),
            SolenoidPoint(Fraction(-3, 2)),
            ProductElem((UnitRational(1, 2), IntegerPoint(3))),
            5,
        ]
        for x in pts:
            assert element_from_json(element_to_json(x)) == x

    def test_big_integers_travel_as_strings(self):
        data = element_to_json(IntegerPoint(2**64))
        assert data == {"type": "int_point", "m": "18446744073709551616"}

    def test_booleans_rejected(self):
        with pytest.raises(ValidationError):
            element_to_json(True)
        with pytest.raises(ValidationError):
            element_from_json(False)

    def test_unknown_type(self):
        with pytest.raises(ValidationError):
            element_from_json({"type": "matrix"})

    def test_residue_towers_rejected(self):
        tower = {"type": "residues", "entries": [[2, "1", 2], [3, "2", 2]], "truncated": False}
        with pytest.raises(ValidationError):
            element_from_json(tower)
        with pytest.raises(ValidationError):
            element_from_json({"type": "solenoid", "r": "0/1", "h": tower})

    def test_solenoid_keeps_exact_fiber(self):
        x = SolenoidPoint(Fraction(1, 2), IntegerPoint(9))
        y = element_from_json(element_to_json(x))
        assert y == x
        assert y.r == x.r


# --- characters -------------------------------------------------------------------


class TestChars:
    def test_round_trips(self):
        chars = [
            TorusChar(-4),
            ProfiniteChar(UnitRational(1, 6)),
            SolenoidChar(Fraction(-2, 3)),
            CyclicChar(3, 8),
            ProductChar((TorusChar(1), TorusChar(0))),
        ]
        for chi in chars:
            assert char_from_json(char_to_json(chi)) == chi

    def test_trivial_finite_char_needs_no_group(self):
        zeta = FiniteAbelianChar((), (), ())
        assert char_from_json(char_to_json(zeta)) == zeta

    def test_finite_char_rebuilt_through_the_group(self):
        from qcdense.nonabelian import abelianization, finite_abelian_chars

        S3 = builtin_group("S3")
        G = ProductWithFinite(Torus(), S3)
        (zeta,) = finite_abelian_chars(abelianization(S3))
        assert char_from_json(char_to_json(zeta), G) == zeta

    def test_finite_char_without_group(self):
        data = {"kind": "finite_abelian", "coeffs": [1], "factors": [2]}
        with pytest.raises(ValidationError):
            char_from_json(data)

    def test_finite_char_factor_mismatch(self):
        G = ProductWithFinite(Torus(), builtin_group("S3"))
        data = {"kind": "finite_abelian", "coeffs": [1], "factors": [3]}
        with pytest.raises(ValidationError):
            char_from_json(data, G)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            char_from_json({"kind": "spin"})


# --- sequences ----------------------------------------------------------------------


class TestSuperSeqJson:
    def test_torus_payload_shape(self):
        data = superseq_to_json(torus_sequence(2))
        assert data["group"] == {"kind": "torus"}
        assert data["generator"] == "torus"
        assert data["members"] == ["1/2", "1/4"]
        assert len(data["arc_flags"]) == 2
        json.dumps(data)

    def test_profinite_payload_uses_strings(self):
        data = superseq_to_json(profinite_sequence(P235, 1))
        assert all(m["m"].lstrip("-").isdigit() for m in data["members"])
        json.dumps(data)

    def test_solenoid_payload(self):
        data = superseq_to_json(solenoid_sequence(P235, 0, 2))
        kinds = {m["type"] for m in data["members"]}
        assert kinds == {"solenoid"}
        json.dumps(data)


# --- certificates ---------------------------------------------------------------------


class TestCertificates:
    def test_torus_round_trip(self):
        cert = certify_qc(torus_sequence(20), Torus(), 10)
        assert certificate_from_json(certificate_to_json(cert)) == cert

    def test_profinite_round_trip(self):
        cert = certify_qc(profinite_sequence(P235, 2), Profinite(P235), 6)
        assert certificate_from_json(certificate_to_json(cert)) == cert

    def test_solenoid_round_trip(self):
        cert = certify_qc(solenoid_sequence(P235, 2, 6), Solenoid(P235), 6)
        assert certificate_from_json(certificate_to_json(cert)) == cert

    def test_generation_round_trip(self):
        cert = check_generation(torus_sequence(10), Torus(), 5)
        assert certificate_from_json(certificate_to_json(cert)) == cert

    def test_failed_round_trip(self):
        s = from_members(Torus(), [phi("1/3")], name="singleton")
        cert = certify_qc(s, Torus(), 3)
        back = certificate_from_json(certificate_to_json(cert))
        assert back == cert
        assert back.failed_character == TorusChar(3)

    def test_fan_round_trip(self):
        f = fan([torus_sequence(10), torus_sequence(10)])
        cert = certify_qc(f, f.group, 3)
        back = certificate_from_json(certificate_to_json(cert))
        assert back == cert
        assert back.coverage == "componentwise"

    def test_finite_factor_round_trip(self):
        cert = certify_qc_with_finite_factor(torus_sequence(10), builtin_group("A5"), 4)
        assert certificate_from_json(certificate_to_json(cert)) == cert

    def test_failed_finite_factor_round_trip(self):
        cert = certify_qc_with_finite_factor(torus_sequence(10), builtin_group("S3"), 4)
        back = certificate_from_json(certificate_to_json(cert))
        assert back == cert
        assert back.failed_character.components[1].coeffs == (1,)

    def test_residue_tower_witness_rejected(self):
        data = certificate_to_json(certify_qc(profinite_sequence(P235, 2), Profinite(P235), 6))
        data["records"][3]["witness"] = {
            "type": "residues", "entries": [[2, "1", 2], [3, "2", 2]], "truncated": False
        }
        with pytest.raises(ValidationError):
            certificate_from_json(data)

    def test_status_and_bound_preserved(self):
        cert = certify_qc(torus_sequence(10), Torus(), 5)
        data = certificate_to_json(cert)
        assert data["status"] == "certified"
        assert data["mode"] == "qc"
        assert data["bound"] == 5
        assert data["failed_character"] is None


# --- escape reports ----------------------------------------------------------------


class TestEscapeReportJson:
    def test_payload(self):
        rep = escape_report(profinite_sequence(P235, 2), 1)
        data = escape_report_to_json(rep)
        assert data["level"] == 1
        assert data["count"] == 1
        assert data["stable"] is True
        assert data["members"] == [{"type": "int_point", "m": "1"}]
        json.dumps(data)

    def test_unstable_payload(self):
        rep = escape_report(profinite_sequence(P235, 2, m_cap=1), 2)
        data = escape_report_to_json(rep)
        assert data["stable"] is False
        assert data["count"] == 2


# --- canonical text -----------------------------------------------------------------


class TestCanonical:
    def test_sorted_compact(self):
        assert canonical_dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_certificate_bytes_reproducible(self):
        a = certify_qc(torus_sequence(50), Torus(), 25)
        b = certify_qc(torus_sequence(50), Torus(), 25)
        assert canonical_dumps(certificate_to_json(a)) == canonical_dumps(
            certificate_to_json(b)
        )

    def test_round_trip_preserves_bytes(self):
        cert = certify_qc(profinite_sequence(P235, 2), Profinite(P235), 5)
        text = canonical_dumps(certificate_to_json(cert))
        back = certificate_from_json(json.loads(text))
        assert canonical_dumps(certificate_to_json(back)) == text


class TestWitnessEncoding:
    """Each witness object is encoded once per call, never across calls."""

    def test_records_carry_their_own_witness(self):
        # each certificate is freed before the next: new members may reuse its ids
        for args in ((2, 6), (1, 3, 4), (2, 6, 2)):
            seq = solenoid_sequence(P235, *args)
            cert = certify_qc(seq, seq.group, 6)
            expected = [element_to_json(r.witness) for r in cert.records]
            assert [r["witness"] for r in certificate_to_json(cert)["records"]] == expected
            del seq, cert

    def test_certificates_sharing_members(self):
        seq = solenoid_sequence(P235, 2, 6)
        qc, gen = certify_qc(seq, seq.group, 6), check_generation(seq, seq.group, 6)
        # the fiber witnesses are the sequence's own members in both
        fiber = [(a, b) for a, b in zip(qc.records, gen.records) if a.character.q.denominator > 1]
        assert fiber and all(a.witness is b.witness for a, b in fiber)

        def encode(cert):
            return canonical_dumps(certificate_to_json(cert))

        one_after_other = [encode(qc), encode(gen), encode(qc)]
        fresh = solenoid_sequence(P235, 2, 6)
        alone = [encode(certify_qc(fresh, fresh.group, 6)),
                 encode(check_generation(fresh, fresh.group, 6))]
        assert one_after_other == alone + alone[:1]


# --- indented writer ----------------------------------------------------------


def _json_dump(obj) -> str:
    fh = io.StringIO()
    json.dump(obj, fh, indent=2, sort_keys=True)
    return fh.getvalue()


def _dump_indented(obj) -> str:
    fh = io.StringIO()
    dump_indented(obj, fh)
    return fh.getvalue()


_TEXT = (
    st.text()
    | st.text(st.characters(max_codepoint=0x1F))
    | st.text(st.characters(min_codepoint=0x7F, max_codepoint=0x10FFFF))
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | st.sampled_from([0, 1, True, False])
    | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(_TEXT, children, max_size=5),
    max_leaves=25,
)


class _CountingDict(dict):
    """A dict that counts how often its items are read, that is, rendered."""

    def items(self):
        self.reads = getattr(self, "reads", 0) + 1
        return super().items()


class TestDumpIndented:
    """dump_indented writes the bytes of json.dump(indent=2, sort_keys=True)."""

    @given(_VALUES)
    def test_matches_json_dump(self, value):
        assert _dump_indented(value) == _json_dump(value)

    @given(st.dictionaries(_TEXT, _VALUES, max_size=4), _VALUES, st.integers(2, 40))
    def test_shared_value_at_two_depths(self, content, other, times):
        shared = _Shared(content)
        doc = {"a": shared, "b": [shared] * times + [other, {"c": [shared, shared]}]}
        assert _dump_indented(doc) == _json_dump(doc)
        assert _dump_indented([shared, doc, shared]) == _json_dump([shared, doc, shared])

    @pytest.mark.parametrize(
        "value",
        [{}, [], [{}], {"": []}, None, True, 1, -(10**200), "é\u2028\x00\ud800",
         [True, 1, 0, False]],
    )
    def test_edge_values(self, value):
        assert _dump_indented(value) == _json_dump(value)

    def test_only_shared_values_are_kept(self):
        # a shared value is rendered once per depth; any other dict each time it occurs
        inner, plain = _CountingDict(x=1), _CountingDict(y=2)
        shared = _Shared(inner=inner)
        doc = {"records": [{"w": shared, "p": plain} for _ in range(50)], "top": shared}
        text = _dump_indented(doc)
        # rendered once for the 50 records, and streamed once under "top"
        assert inner.reads == 2
        assert plain.reads == 50
        assert text == _json_dump(doc)

    def test_writes_one_piece_per_list_item(self):
        records = [{"k": i, "v": [i, str(i)]} for i in range(10)]
        writes = []

        class Sink:
            def write(self, text):
                writes.append(text)

        dump_indented({"records": records}, Sink())
        assert "".join(writes) == _json_dump({"records": records})
        items = [json.dumps(r, indent=2, sort_keys=True).replace("\n", "\n    ") for r in records]
        assert [w for w in writes if '"k"' in w] == [
            ("[" if i == 0 else ",") + "\n    " + item for i, item in enumerate(items)
        ]

    def test_rejects_other_types(self):
        for value in (1.5, (1, 2), {"a": Fraction(1, 2)}, [object()]):
            with pytest.raises(TypeError):
                _dump_indented(value)


class TestSharedWitnesses:
    """certificate_to_json marks exactly the witness values several records hold."""

    @staticmethod
    def _dicts(value):
        if isinstance(value, dict):
            yield value
            for v in value.values():
                yield from TestSharedWitnesses._dicts(v)
        elif isinstance(value, list):
            for v in value:
                yield from TestSharedWitnesses._dicts(v)

    def test_solenoid(self):
        seq = solenoid_sequence(tuple(primes_below(24)), 8, 20, 8)
        cert = certify_qc(seq, seq.group, 20)
        payload = certificate_to_json(cert)
        uses = {}
        for rec in cert.records:
            uses[id(rec.witness)] = uses.get(id(rec.witness), 0) + 1
        marked = {id(d) for d in self._dicts(payload) if type(d) is _Shared}
        expected = set()
        for rec, r in zip(cert.records, payload["records"]):
            assert (type(r["witness"]) is _Shared) == (uses[id(rec.witness)] > 1)
            if uses[id(rec.witness)] > 1:
                expected.add(id(r["witness"]))
        assert marked == expected
        assert len(marked) == len({r.witness for r in cert.records if uses[id(r.witness)] > 1})
        assert all(type(d) in (dict, _Shared) for d in self._dicts(payload))

    def test_finite_factor_marks_nothing(self):
        cert = certify_qc_with_finite_factor(torus_sequence(30), builtin_group("A5"), 30)
        assert not any(type(d) is _Shared for d in self._dicts(certificate_to_json(cert)))


# --- golden payload hashes ----------------------------------------------------------


def _fan_cert(check):
    P = tuple(primes_below(100))
    seq = fan([solenoid_sequence(P, 24, 20, 8), profinite_sequence(P, 24, 8), torus_sequence(20)])
    return check(seq, seq.group, 20)


def _solenoid_cert(check):
    # every character at bound 20 has a solenoid_split witness
    P = tuple(primes_below(24))
    seq = solenoid_sequence(P, 8, 20, 8)
    return check(seq, seq.group, 20)


GOLDEN = {
    "fan qc": (
        lambda: _fan_cert(certify_qc),
        "06697bf73b27fc2e5809eeb350b8887d1eac4537f2f858429be5c5a967b8a4f4",
    ),
    "fan generation": (
        lambda: _fan_cert(check_generation),
        "98e441d470a7e49d6298c69dcd82fc247619a1a65735d194de17a8f1e70cf409",
    ),
    "torus x A5": (
        lambda: certify_qc_with_finite_factor(torus_sequence(30), builtin_group("A5"), 30),
        "400b188a362bc535504036ee84c836b00e2ab9d730b98bc9eb1d4a8b856ddc61",
    ),
    "torus x S3 fails": (
        lambda: certify_qc_with_finite_factor(torus_sequence(30), builtin_group("S3"), 30),
        "c278e080210bba74af3b1343b0ae1b8dd0c34096f8cf73898de6241e01f6df2f",
    ),
    "singleton 1/3 fails": (
        lambda: certify_qc(from_members(Torus(), [phi("1/3")], name="singleton"), Torus(), 3),
        "2f88fa902a3bf7fa42fe54ef279f5724318f70f08ff1b0a33bfe734302386e20",
    ),
    "profinite brute fallback": (
        lambda: certify_qc(profinite_sequence(P235, 0), Profinite(P235), 5),
        "0400a6ff9e8e25b6a460ffabef4959776b27617e2ff662102d142a9d2442a53c",
    ),
    "solenoid qc": (
        lambda: _solenoid_cert(certify_qc),
        "c1cdd6d4cc0432f695a9d310859c74a1fcc17fba78315a755c2619edf9ceada5",
    ),
    "solenoid generation": (
        lambda: _solenoid_cert(check_generation),
        "73526b7c838e941833966e82ce22c72bf05901bdc520027ae03ec2ad4ccaf39c",
    ),
    "solenoid brute fallback": (
        lambda: certify_qc(solenoid_sequence(P235, 1, 4, 2), Solenoid(P235), 5),
        "f15c2c327c6189e19cfa0dcf9f4676d4c1344e254bd87d94a2379c5b86ba3019",
    ),
}


class TestGoldenPayloads:
    """Payload bytes pinned across versions, not only across runs of one version."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_sha256(self, name):
        build, expected = GOLDEN[name]
        text = canonical_dumps(certificate_to_json(build()))
        assert hashlib.sha256(text.encode()).hexdigest() == expected
