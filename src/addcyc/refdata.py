"""Built-in reference data: the worked q=3, n=7 classification and the
table of good codes with their generators.

Field elements are written in the package token format (prime-subfield
integers, or "w^k" powers of the designated generator of GF(q^2) under the
reference moduli of gf.PAPER_MODULI); polynomial coefficient strings are
low-to-high.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- the worked example at q = 3, n = 7 (reference moduli) --------------------

WORKED_N = 7
WORKED_Q = 3

#: irreducible factors of X^7 - 1 over F_3, by least coset representative
WORKED_FACTORS_Q = ["2,1", "1,1,1,1,1,1,1"]

#: irreducible factors over GF(9), keyed "i,j"
WORKED_FACTORS_QT = {
    "0,0": "2,1",
    "1,0": "2,w^7,w,1",
    "1,1": "2,w^5,w^3,1",
}

#: primitive idempotents, keyed "i,j"
WORKED_IDEMPOTENTS = {
    "0,0": "1,1,1,1,1,1,1",
    "1,0": "0,w^7,w^7,w^5,w^7,w^5,w^5",
    "1,1": "0,w^5,w^5,w^7,w^5,w^7,w^7",
}

#: counts of the worked example: WORKED_COUNT_* follow the published case
#: list (58 / 28); WORKED_VERIFIED_* are the complete counts (87 / 56), which
#: the brute-force oracle and enumerate_codes(complete=True) both reach (the
#: published list omits the isotropic prime-subfield identity option)
WORKED_COUNT_SO = 58
WORKED_COUNT_SD = 28
WORKED_TOTAL_CYCLIC = 4392
WORKED_VERIFIED_SO = 87
WORKED_VERIFIED_SD = 56

#: generator matrix of the showcase (7, (3^2)^3, 5) code, row tokens
WORKED_GOOD_MATRIX = [
    "0,w^7,w^7,w^5,w^7,w^5,w^5",
    "w^5,0,w^7,w^7,w^5,w^7,w^5",
    "w^5,w^5,0,w^7,w^7,w^5,w^7",
    "w^7,w^5,w^5,0,w^7,w^7,w^5",
    "w^5,w^7,w^5,w^5,0,w^7,w^7",
    "w^7,w^5,w^7,w^5,w^5,0,w^7",
]

WORKED_GOOD_DISTANCE = 5


# -- the good-code table -------------------------------------------------------

@dataclass(frozen=True)
class GoodCodeRow:
    """One row of the good-code table: generator and claimed parameters.

    ``k`` counts GF(q^2) symbols: the cardinality is (q^2)^k, so the
    F_q-dimension is 2k.  ``d`` is the claimed minimum Hamming distance.
    """

    q: int
    n: int
    k: int
    d: int
    generator: str  # coefficient tokens, low-to-high


GOOD_CODE_TABLE: list[GoodCodeRow] = [
    GoodCodeRow(2, 11, 5, 6,
                "1,w^2,w,w^2,w^2,w^2,w,w,w,w^2,w"),
    GoodCodeRow(2, 19, 9, 8,
                "1,w^2,w,w,w^2,w^2,w^2,w^2,w,w^2,w,w^2,w,w,w,w,w^2,w^2,w"),
    GoodCodeRow(3, 7, 3, 5,
                "0,w^7,w^7,w^5,w^7,w^5,w^5"),
    GoodCodeRow(3, 19, 9, 10,
                "0,w^7,w^5,w^5,w^7,w^7,w^7,w^7,w^5,w^7,w^5,w^7,w^5,w^5,w^5,w^5,w^7,w^7,w^5"),
    GoodCodeRow(5, 7, 3, 5,
                "4,w^11,w^11,w^7,w^11,w^7,w^7"),
    GoodCodeRow(5, 23, 11, 12,
                "2,w^14,w^14,w^14,w^14,w^22,w^14,w^22,w^14,w^14,w^22,w^22,"
                "w^14,w^14,w^22,w^22,w^14,w^22,w^14,w^22,w^22,w^22,w^22"),
    GoodCodeRow(7, 11, 5, 7,
                "3,w^47,w^41,w^47,w^47,w^47,w^41,w^41,w^41,w^47,w^41"),
    GoodCodeRow(7, 23, 11, 12,
                "2,w^5,w^5,w^5,w^5,w^35,w^5,w^35,w^5,w^5,w^35,w^35,"
                "w^5,w^5,w^35,w^35,w^5,w^35,w^5,w^35,w^35,w^35,w^35"),
    GoodCodeRow(11, 23, 11, 12,
                "0,w^9,w^9,w^9,w^9,w^99,w^9,w^99,w^9,w^9,w^99,w^99,"
                "w^9,w^9,w^99,w^99,w^9,w^99,w^9,w^99,w^99,w^99,w^99"),
    GoodCodeRow(13, 11, 5, 7,
                "4,w^38,w^158,w^38,w^38,w^38,w^158,w^158,w^158,w^38,w^158"),
    GoodCodeRow(13, 19, 9, 11,
                "8,w^11,w^143,w^143,w^11,w^11,w^11,w^11,w^143,w^11,"
                "w^143,w^11,w^143,w^143,w^143,w^143,w^11,w^11,w^143"),
    GoodCodeRow(17, 7, 3, 5,
                "15,w^104,w^104,w^40,w^104,w^40,w^40"),
    GoodCodeRow(17, 11, 5, 7,
                "2,w^35,w^19,w^35,w^35,w^35,w^19,w^19,w^19,w^35,w^19"),
    GoodCodeRow(19, 7, 3, 5,
                "14,w^79,w^79,w^61,w^79,w^61,w^61"),
    GoodCodeRow(19, 11, 5, 7,
                "16,w^169,w^331,w^169,w^169,w^169,w^331,w^331,w^331,w^169,w^331"),
]

#: rows whose d is not yet proved: their information-set enumeration needs
#: more words than codes.EXHAUSTIVE_BUDGET, so the budget stops it and lb is
#: the bound of the levels it completed; ub = d with a witness of weight d
UNPROVED_ROWS = [(5, 23), (7, 23), (11, 23), (13, 19)]


def row_for(q: int, n: int) -> GoodCodeRow:
    for row in GOOD_CODE_TABLE:
        if row.q == q and row.n == n:
            return row
    raise KeyError(f"no good-code row for q={q}, n={n}")
