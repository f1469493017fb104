"""Exact construction and certification of qc-dense super-sequences.

A super-sequence is a compact countable set with at most one limit point;
qc-density asks that no nonzero character keep the whole set inside the
closed quarter arc around zero.  Everything here runs in exact rational
arithmetic and produces per-character witness certificates.
"""

from ._intmath import factorize, is_prime, primes_below
from .circle import UnitRational, ZERO, circle_add, circle_neg, circle_scale, in_tplus, phi
from .errors import (
    IndexOutOfRange,
    InvariantViolation,
    KindMismatch,
    QcdenseError,
    SizeLimit,
    TruncationTooSmall,
    UnsupportedBound,
    ValidationError,
)
from .groups import (
    Cyclic,
    IntegerPoint,
    Product,
    ProductElem,
    ProductWithFinite,
    Profinite,
    Solenoid,
    SolenoidPoint,
    Torus,
    group_zero,
    in_Wn,
    k_sequence,
    residue_mod,
)
from .duality import (
    CyclicChar,
    FiniteAbelianChar,
    ProductChar,
    ProfiniteChar,
    SolenoidChar,
    TorusChar,
    annihilates,
    char_sort_key,
    complexity,
    enumerate_chars,
    escapes,
    eval_char,
    is_trivial,
    trivial_char,
)
from .sequences import (
    DropFiniteFactor,
    ProductProjection,
    SolenoidToTorus,
    SuperSeq,
    fan,
    from_members,
    profinite_sequence,
    pushforward,
    solenoid_sequence,
    torus_sequence,
)
from .certify import (
    Certificate,
    EscapeReport,
    WitnessRecord,
    brute_force_witness,
    certify_qc,
    check_generation,
    escape_report,
    least_escaping_multiple,
    minimal_level,
    witness_fan,
    witness_profinite,
    witness_solenoid,
    witness_torus,
)
from .nonabelian import (
    FiniteAbelianDesc,
    FiniteGroup,
    abelianization,
    builtin_group,
    certify_qc_with_finite_factor,
    cyclic_group,
    derived_subgroup,
    dihedral_group,
    finite_abelian_chars,
    from_permutations,
    is_perfect,
    load_finite_group,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
