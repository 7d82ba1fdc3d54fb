"""Frozen reference rows for the verification table.

Each row pins the full coefficient vector (highest degree first), the real
root count, and the discriminant sign/exponent of one monogenic period
polynomial.  The `table1` CLI command regenerates every row from scratch
and compares; any mismatch is a hard verification failure.
"""

from __future__ import annotations

from typing import NamedTuple


class ReferenceRow(NamedTuple):
    e: int
    p: int
    n_real: int
    disc_sign: int
    coeffs_high_to_low: tuple[int, ...]

    @property
    def f(self) -> int:
        return (self.p - 1) // self.e

    def expected_discriminant(self) -> int:
        return self.disc_sign * self.p ** (self.e - 1)


def _ones(e: int) -> tuple[int, ...]:
    return (1,) * (e + 1)


TABLE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow(4, 5, 0, 1, _ones(4)),
    ReferenceRow(5, 11, 5, 1, (1, 1, -4, -3, 3, 1)),
    ReferenceRow(6, 7, 0, -1, _ones(6)),
    ReferenceRow(6, 13, 6, 1, (1, 1, -5, -4, 6, 3, -1)),
    ReferenceRow(8, 17, 8, 1, (1, 1, -7, -6, 15, 10, -10, -4, 1)),
    ReferenceRow(9, 19, 9, 1, (1, 1, -8, -7, 21, 15, -20, -10, 5, 1)),
    ReferenceRow(10, 11, 0, -1, _ones(10)),
    ReferenceRow(11, 23, 11, 1, (1, 1, -10, -9, 36, 28, -56, -35, 35, 15, -6, -1)),
    ReferenceRow(12, 13, 0, 1, _ones(12)),
    ReferenceRow(
        14, 29, 14, 1,
        (1, 1, -13, -12, 66, 55, -165, -120, 210, 126, -126, -56, 28, 7, -1),
    ),
    ReferenceRow(
        15, 31, 15, 1,
        (1, 1, -14, -13, 78, 66, -220, -165, 330, 210, -252, -126, 84, 28, -8, -1),
    ),
    ReferenceRow(16, 17, 0, 1, _ones(16)),
    ReferenceRow(18, 19, 0, -1, _ones(18)),
    ReferenceRow(
        18, 37, 18, 1,
        (1, 1, -17, -16, 120, 105, -455, -364, 1001, 715, -1287, -792, 924, 462,
         -330, -120, 45, 9, -1),
    ),
    ReferenceRow(
        20, 41, 20, 1,
        (1, 1, -19, -18, 153, 136, -680, -560, 1820, 1365, -3003, -2002, 3003,
         1716, -1716, -792, 495, 165, -55, -10, 1),
    ),
    ReferenceRow(
        21, 43, 21, 1,
        (1, 1, -20, -19, 171, 153, -816, -680, 2380, 1820, -4368, -3003, 5005,
         3003, -3432, -1716, 1287, 495, -220, -55, 11, 1),
    ),
    ReferenceRow(22, 23, 0, -1, _ones(22)),
    ReferenceRow(
        23, 47, 23, 1,
        (1, 1, -22, -21, 210, 190, -1140, -969, 3876, 3060, -8568, -6188, 12376,
         8008, -11440, -6435, 6435, 3003, -2002, -715, 286, 66, -12, -1),
    ),
    ReferenceRow(
        26, 53, 26, 1,
        (1, 1, -25, -24, 276, 253, -1771, -1540, 7315, 5985, -20349, -15504,
         38760, 27132, -50388, -31824, 43758, 24310, -24310, -11440, 8008, 3003,
         -1365, -364, 91, 13, -1),
    ),
    ReferenceRow(28, 29, 0, 1, _ones(28)),
    ReferenceRow(
        29, 59, 29, 1,
        (1, 1, -28, -27, 351, 325, -2600, -2300, 12650, 10626, -42504, -33649,
         100947, 74613, -170544, -116280, 203490, 125970, -167960, -92378, 92378,
         43758, -31824, -12376, 6188, 1820, -560, -105, 15, 1),
    ),
    ReferenceRow(30, 31, 0, -1, _ones(30)),
    ReferenceRow(
        30, 61, 30, 1,
        (1, 1, -29, -28, 378, 351, -2925, -2600, 14950, 12650, -53130, -42504,
         134596, 100947, -245157, -170544, 319770, 203490, -293930, -167960,
         184756, 92378, -75582, -31824, 18564, 6188, -2380, -560, 120, 15, -1),
    ),
    ReferenceRow(
        33, 67, 33, 1,
        (1, 1, -32, -31, 465, 435, -4060, -3654, 23751, 20475, -98280, -80730,
         296010, 230230, -657800, -480700, 1081575, 735471, -1307504, -817190,
         1144066, 646646, -705432, -352716, 293930, 125970, -77520, -27132,
         11628, 3060, -816, -136, 17, 1),
    ),
)
