"""Checks of qcdense's outputs, computed apart from the program.

Every check here works on plain integers and fractions.Fraction, taken from
the records a run returned (read by attribute) or from the JSON it wrote.
Nothing is imported from qcdense: the enumeration order, the counts, the
character values and the member families are all recomputed from their
definitions.  Each check raises CheckError on the first record that is
wrong, missing or out of place.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class CheckError(Exception):
    """An output of the program failed an independent check."""


# ---------------------------------------------------------------------------
# arithmetic


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * max(n, 2)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return [p for p in range(2, n) if sieve[p]]


def k_value(primes, n: int) -> int:
    """k_n = (p_0 * ... * p_{n-1}) ** n, with k_0 = 1."""
    prod = 1
    for p in primes[:n]:
        prod *= p
    return prod**n


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def totient(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def is_smooth(b: int, primes) -> bool:
    return set(factorize(b)) <= set(primes)


def in_arc(num: int, den: int) -> bool:
    """Whether num/den mod 1 lies in the closed quarter arc around 0 (den > 0)."""
    num %= den
    return 4 * num <= den or 4 * num >= 3 * den


def mod1(x: Fraction) -> tuple[int, int]:
    """Canonical (num, den) of x mod 1, with 0 <= num < den in lowest terms."""
    return x.numerator % x.denominator, x.denominator


def parse_ratio(text) -> Fraction:
    if not isinstance(text, str) or text.count("/") != 1:
        raise CheckError(f"expected 'num/den', got {text!r}")
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# character enumerations in the documented order, and their sizes by formula


def solenoid_chars(bound: int):
    """Reduced a/b with max(|a|, b) <= bound, nonzero a, in the documented order.

    The order is complexity max(|a|, b), then b, then |a|, then a > 0 before
    a < 0; it is generated directly, one complexity shell at a time.
    """
    for c in range(1, bound + 1):
        for b in range(1, c + 1):
            for a in ((c,) if b < c else range(1, c + 1)):
                if gcd(a, b) == 1:
                    yield a, b
                    yield -a, b


def solenoid_count(bound: int) -> int:
    """2 * #{(a, b) in [1, bound]^2 coprime}, from the totient sum."""
    return 2 * (2 * sum(totient(k) for k in range(1, bound + 1)) - 1)


def profinite_count(bound: int) -> int:
    return sum(totient(b) for b in range(2, bound + 1))


def smooth_profinite_count(bound: int, primes) -> int:
    """Sum of phi(b) over the b in [2, bound] with every prime factor in primes."""
    return sum(totient(b) for b in range(2, bound + 1) if is_smooth(b, primes))


# ---------------------------------------------------------------------------
# member families, by their definitions


class TowerFamily:
    """Values m * k_j with 0 <= j <= n_max and 1 <= m <= min(k_{j+1}, m_cap)."""

    def __init__(self, primes, n_max: int, m_cap: int):
        self.n_max = n_max
        self.m_cap = m_cap
        self.k = [k_value(primes, j) for j in range(n_max + 2)]
        self._seen: dict[int, bool] = {}

    def __contains__(self, w: int) -> bool:
        hit = self._seen.get(w)
        if hit is None:
            hit = w > 0 and any(
                w % self.k[j] == 0 and w // self.k[j] <= min(self.k[j + 1], self.m_cap)
                for j in range(self.n_max + 1)
            )
            self._seen[w] = hit
        return hit


def in_halving_block(x: Fraction, N: int) -> bool:
    """x = 1/(2n) for some 1 <= n <= N."""
    return x.numerator == 1 and x.denominator % 2 == 0 and x.denominator // 2 <= N


def solenoid_member(r: Fraction, h: int, tower: TowerFamily, N: int) -> bool:
    """pi(r, h) is in the two-block solenoid family: h = 0 and r = -w or 1/(2n)."""
    if h != 0:
        return False
    if r.denominator == 1:
        return -r.numerator in tower
    return in_halving_block(r, N)


def solenoid_value(a: int, b: int, r: Fraction, h: int) -> tuple[int, int]:
    """a*r/b - a*(h mod b)/b mod 1."""
    return mod1(Fraction(a, b) * r - Fraction(a * (h % b), b))


# ---------------------------------------------------------------------------
# solenoid-cli: the certificate file the CLI wrote


def check_solenoid_document(doc, primes, n_max: int, N: int, m_cap: int, bound: int) -> dict:
    """Check a `qcdense certify --group solenoid` document; return method counts."""
    payload = doc.get("payload") if isinstance(doc, dict) else None
    require(isinstance(payload, dict), "document has no payload object")
    require(payload.get("status") == "certified", f"status is {payload.get('status')!r}")
    require(payload.get("mode") == "qc", f"mode is {payload.get('mode')!r}")
    require(payload.get("bound") == bound, f"bound is {payload.get('bound')!r}")
    require(payload.get("failed_character") is None, "a failed character is recorded")
    require(
        payload.get("group") == {"kind": "solenoid", "primes": list(primes)},
        "group is not the solenoid over the working primes",
    )
    records = payload.get("records")
    require(isinstance(records, list), "payload has no record list")
    expected = solenoid_count(bound)
    require(len(records) == expected, f"{len(records)} records, expected {expected}")
    tower = TowerFamily(primes, n_max, m_cap)
    methods: dict[str, int] = {}
    listed = 0
    for i, ((a, b), rec) in enumerate(zip(solenoid_chars(bound), records)):
        listed += 1
        where = f"record {i} (character {a}/{b})"
        chi = rec["character"]
        require(chi.get("kind") == "solenoid", f"{where}: character kind {chi.get('kind')!r}")
        q = parse_ratio(chi["q"])
        require((q.numerator, q.denominator) == (a, b), f"{where}: got character {chi['q']}")
        wit = rec["witness"]
        require(wit.get("type") == "solenoid", f"{where}: witness is not a solenoid point")
        hdata = wit["h"]
        require(hdata.get("type") == "int_point", f"{where}: fiber part is not an integer point")
        r, h = parse_ratio(wit["r"]), int(hdata["m"])
        require(solenoid_member(r, h, tower, N), f"{where}: witness {wit['r']} is not a member")
        value = solenoid_value(a, b, r, h)
        v = parse_ratio(rec["value"])
        require((v.numerator, v.denominator) == value, f"{where}: value {rec['value']} != {value}")
        require(not in_arc(*value), f"{where}: value stays in the quarter arc")
        require(rec["in_tplus"] is False, f"{where}: record claims the arc")
        methods[rec["method"]] = methods.get(rec["method"], 0) + 1
    require(listed == expected, f"the enumeration lists {listed} characters, expected {expected}")
    return methods


# ---------------------------------------------------------------------------
# profinite-sweep: minimal-level witnesses, one denominator at a time


class ProfiniteChecker:
    """Checks witness_profinite records against the tower family."""

    def __init__(self, primes, n_max: int, m_cap: int):
        self.n_max = n_max
        self.m_cap = m_cap
        self.k = [k_value(primes, n) for n in range(len(primes) + 1)]

    def level(self, b: int) -> int:
        """The least n >= 1 with b | k_n."""
        for n in range(1, len(self.k)):
            if self.k[n] % b == 0:
                return n
        raise CheckError(f"denominator {b} divides no k_n over the working primes")

    def check_batch(self, b: int, numerators, records) -> dict:
        """Records for the characters a/b, a in numerators, in that order.

        A None record stands for a character whose finder failed; it is
        counted by the caller and skipped here.  Returns method counts.
        """
        require(len(records) == len(numerators), f"b={b}: {len(records)} records for "
                f"{len(numerators)} characters")
        n = self.level(b)
        require(n - 1 <= self.n_max, f"b={b}: needs level {n - 1} past the truncation")
        k_prev = self.k[n - 1]
        k_mod = k_prev % b
        cap = min(self.k[n], self.m_cap)
        methods: dict[str, int] = {}
        for a, rec in zip(numerators, records):
            if rec is None:
                continue
            where = f"character {a}/{b}"
            q = rec.character.q
            require((q.num, q.den) == (a, b), f"{where}: record is for {q.num}/{q.den}")
            w = rec.witness.m
            g = gcd(a * w % b, b)
            value = (a * w % b // g, b // g)
            require((rec.value.num, rec.value.den) == value, f"{where}: value "
                    f"{rec.value.num}/{rec.value.den} != {value[0]}/{value[1]}")
            require(not in_arc(*value), f"{where}: value stays in the quarter arc")
            require(rec.in_tplus is False, f"{where}: record claims the arc")
            m, rest = divmod(w, k_prev)
            require(rest == 0 and 1 <= m <= cap, f"{where}: witness is not m*k_{n - 1} "
                    f"with 1 <= m <= {cap}")
            c0 = a * k_mod % b
            for smaller in range(1, m):
                require(in_arc(smaller * c0, b), f"{where}: multiplier {smaller} < {m} "
                        f"already escapes")
            methods[rec.method] = methods.get(rec.method, 0) + 1
        return methods


# ---------------------------------------------------------------------------
# product-sweeps: componentwise fan sweeps and the A5 finite factor


def fan_components(bound: int):
    """(factor, parameter) of the single-component characters, in sweep order.

    Factors are 0 solenoid (a/b), 1 profinite (a/b), 2 torus (m).  Each
    factor's own order is its documented key; the merged order is that key,
    compared as a tuple, then the factor index.
    """
    tagged = []
    for a, b in solenoid_chars(bound):
        tagged.append(((max(abs(a), b), b, abs(a), 0 if a > 0 else 1), 0, Fraction(a, b)))
    for b in range(2, bound + 1):
        for a in range(1, b):
            if gcd(a, b) == 1:
                tagged.append(((b, a), 1, Fraction(a, b)))
    for m in range(1, bound + 1):
        tagged.append(((m, 0), 2, m))
        tagged.append(((m, 1), 2, -m))
    tagged.sort(key=lambda t: (t[0], t[1]))
    return [(j, p) for _, j, p in tagged]


def fan_count(bound: int) -> int:
    return solenoid_count(bound) + profinite_count(bound) + 2 * bound


def _component(chi, j: int):
    """The parameter of component j of a fan character, None when trivial."""
    if j == 0:
        return chi.q if chi.q != 0 else None
    if j == 1:
        return Fraction(chi.q.num, chi.q.den) if chi.q.num else None
    return chi.m if chi.m else None


def _coord_is_zero(x, j: int) -> bool:
    if j == 0:
        return x.r == 0 and x.h.m == 0
    if j == 1:
        return x.m == 0
    return x.num == 0


class FanChecker:
    """Checks fan certificates over (solenoid, profinite, torus) parts."""

    def __init__(self, primes, n_max: int, torus_N: int, solenoid_N: int, m_cap: int):
        self.tower = TowerFamily(primes, n_max, m_cap)
        self.torus_N = torus_N
        self.solenoid_N = solenoid_N

    def _value_and_membership(self, j: int, p, x) -> tuple[tuple[int, int], bool]:
        if j == 0:
            h = x.h.m
            return (solenoid_value(p.numerator, p.denominator, x.r, h),
                    solenoid_member(x.r, h, self.tower, self.solenoid_N))
        if j == 1:
            a, b = p.numerator, p.denominator
            return mod1(Fraction(a * (x.m % b), b)), x.m in self.tower
        point = Fraction(x.num, x.den)
        return mod1(p * point), in_halving_block(point, self.torus_N)

    def check(self, cert, mode: str, bound: int) -> dict:
        require(cert.status == "certified", f"{mode} fan certificate is {cert.status!r}")
        require(cert.mode == mode and cert.bound == bound, "certificate mode or bound differs")
        require(cert.coverage == "componentwise", f"coverage is {cert.coverage!r}")
        require(cert.failed_character is None, "a failed character is recorded")
        expected = fan_count(bound)
        records = cert.records
        require(len(records) == expected, f"{len(records)} fan records, expected {expected}")
        order = fan_components(bound)
        require(len(order) == expected, f"the enumeration lists {len(order)}, expected {expected}")
        methods: dict[str, int] = {}
        for i, ((j, p), rec) in enumerate(zip(order, records)):
            where = f"{mode} fan record {i}"
            comps = rec.character.components
            require(len(comps) == 3, f"{where}: character has {len(comps)} components")
            present = [(jj, _component(c, jj)) for jj, c in enumerate(comps)]
            present = [(jj, q) for jj, q in present if q is not None]
            require(present == [(j, p)], f"{where}: components {present} != {[(j, p)]}")
            coords = rec.witness.coords
            require(len(coords) == 3, f"{where}: witness has {len(coords)} coordinates")
            for jj, x in enumerate(coords):
                if jj != j:
                    require(_coord_is_zero(x, jj), f"{where}: witness is nonzero off its part")
            value, member = self._value_and_membership(j, p, coords[j])
            require(member, f"{where}: witness component is not a member of part {j}")
            require((rec.value.num, rec.value.den) == value, f"{where}: value "
                    f"{rec.value.num}/{rec.value.den} != {value[0]}/{value[1]}")
            require(rec.in_tplus == in_arc(*value), f"{where}: arc flag is wrong")
            if mode == "qc":
                require(not in_arc(*value), f"{where}: value stays in the quarter arc")
            else:
                require(value[0] != 0, f"{where}: value is zero")
            methods[rec.method] = methods.get(rec.method, 0) + 1
        return methods


def finite_identity(table) -> int:
    order = len(table)
    for e in range(order):
        if all(table[e][x] == x and table[x][e] == x for x in range(order)):
            return e
    raise CheckError("finite factor table has no identity")


def check_finite_factor(cert, bound: int) -> dict:
    """Certificate of torus x F for a perfect F: the 2*bound pairs (+-m, trivial)."""
    require(cert.status == "certified", f"finite-factor certificate is {cert.status!r}")
    require(cert.mode == "qc" and cert.bound == bound, "certificate mode or bound differs")
    require(cert.failed_character is None, "a failed character is recorded")
    identity = finite_identity(cert.group.finite.table)
    records = cert.records
    require(len(records) == 2 * bound, f"{len(records)} records, expected {2 * bound}")
    methods: dict[str, int] = {}
    for i, rec in enumerate(records):
        m = (i // 2 + 1) * (1 if i % 2 == 0 else -1)
        where = f"finite-factor record {i} (m={m})"
        torus_part, finite_part = rec.character.components
        require(torus_part.m == m, f"{where}: torus part is {torus_part.m}")
        require(finite_part.factors == () and finite_part.coeffs == (),
                f"{where}: finite part is not the trivial character")
        x, e = rec.witness.coords
        require((x.num, x.den) == (1, 2 * abs(m)) and e == identity,
                f"{where}: witness is not (1/{2 * abs(m)}, identity)")
        value = mod1(Fraction(m * x.num, x.den))
        require(value == (1, 2) and (rec.value.num, rec.value.den) == value,
                f"{where}: value is not 1/2")
        require(rec.in_tplus is False, f"{where}: record claims the arc")
        methods[rec.method] = methods.get(rec.method, 0) + 1
    return methods
