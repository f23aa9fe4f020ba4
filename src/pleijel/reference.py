"""Embedded copies of the two reference tables (4-decimal displays of
gamma_tilde and gamma_bar for 1 <= n, m <= 10), used by the offline
self-check suite.

Rows are n = 1..10 top to bottom, columns m = 1..10 left to right,
exactly as printed in the source tables, including their shading
(inadmissible pairs) and red-highlight (admissible value > 1) markup.

Two printed cells are provably wrong and recorded as errata:

* gamma_bar at (1, 3): printed 1.5803, but the quantity is the exact
  rational 2 * (4/81) * Gamma(3/2)Gamma(5)/Gamma(5/2) = 128/81
  = 1.580246913..., which rounds to 1.5802 under any standard rounding.

* gamma_tilde at (9, 10): printed 0.0010, but high-precision evaluation
  gives 0.00089738951657... (certified enclosure far narrower than the
  gap), which rounds to 0.0009.  Every neighbouring cell matches.

The check suite compares computed values against the printed digits for
the 198 consistent cells and against the corrected digits for these two,
reporting the errata explicitly.
"""

_GAMMA_TILDE_ROWS = """
3.2423 2.1392 1.5574 1.1666 0.8835 0.6718 0.5115 0.3893 0.2960 0.2248
1.8238 1.2325 0.8662 0.6221 0.4530 0.3329 0.2462 0.1828 0.1361 0.1015
1.0689 0.7141 0.4892 0.3413 0.2414 0.1726 0.1244 0.0903 0.0659 0.0482
0.6249 0.4120 0.2771 0.1893 0.1310 0.0917 0.0647 0.0461 0.0330 0.0237
0.3626 0.2365 0.1568 0.1054 0.0718 0.0494 0.0343 0.0240 0.0169 0.0120
0.2089 0.1350 0.0885 0.0588 0.0395 0.0268 0.0184 0.0127 0.0088 0.0062
0.1196 0.0767 0.0499 0.0328 0.0218 0.0146 0.0099 0.0068 0.0046 0.0032
0.0681 0.0434 0.0280 0.0183 0.0120 0.0080 0.0054 0.0036 0.0025 0.0017
0.0386 0.0245 0.0157 0.0102 0.0067 0.0044 0.0029 0.0020 0.0013 0.0010
0.0218 0.0138 0.0088 0.0057 0.0037 0.0024 0.0016 0.0011 0.0007 0.0005
"""

_GAMMA_BAR_ROWS = """
4.0000 2.2500 1.5803 1.1719 0.8847 0.6722 0.5116 0.3893 0.2960 0.2248
3.0000 1.4815 0.9375 0.6451 0.4609 0.3357 0.2472 0.1832 0.1362 0.1016
2.3704 1.0254 0.5898 0.3781 0.2558 0.1784 0.1269 0.0913 0.0663 0.0484
1.8750 0.7258 0.3841 0.2308 0.1483 0.0992 0.0681 0.0476 0.0337 0.0241
1.4746 0.5199 0.2558 0.1450 0.0888 0.0571 0.0379 0.0257 0.0178 0.0124
1.1523 0.3751 0.1730 0.0930 0.0545 0.0337 0.0217 0.0143 0.0096 0.0066
0.8953 0.2718 0.1184 0.0606 0.0341 0.0204 0.0127 0.0081 0.0054 0.0036
0.6921 0.1977 0.0817 0.0401 0.0217 0.0125 0.0076 0.0047 0.0030 0.0020
0.5329 0.1440 0.0568 0.0267 0.0140 0.0078 0.0046 0.0028 0.0018 0.0011
0.4087 0.1051 0.0397 0.0180 0.0091 0.0049 0.0028 0.0017 0.0010 0.0006
"""


def _parse(rows: str) -> dict[tuple[int, int], str]:
    table = {}
    for n, line in enumerate(rows.strip().splitlines(), start=1):
        for m, cell in enumerate(line.split(), start=1):
            table[n, m] = cell
    assert len(table) == 100
    return table


#: printed 4-decimal displays, keyed by (n, m)
GAMMA_TILDE_PRINTED = _parse(_GAMMA_TILDE_ROWS)
GAMMA_BAR_PRINTED = _parse(_GAMMA_BAR_ROWS)

#: printed cells that contradict exact/certified evaluation: (n, m) -> corrected display
GAMMA_TILDE_ERRATA = {(9, 10): "0.0009"}
GAMMA_BAR_ERRATA = {(1, 3): "1.5802"}


def corrected(table: dict[tuple[int, int], str],
              errata: dict[tuple[int, int], str]) -> dict[tuple[int, int], str]:
    out = dict(table)
    out.update(errata)
    return out


#: grey cells of the printed tables (same shading in both figures)
INADMISSIBLE_PRINTED = frozenset(
    (n, m)
    for n, max_m in ((1, 1), (2, 3), (3, 1), (4, 7), (5, 1),
                     (6, 3), (7, 1), (8, 8), (9, 1), (10, 3))
    for m in range(max_m + 1, 11)
)

#: red cells: admissible with printed value > 1
RED_PRINTED_GAMMA_TILDE = frozenset({(1, 1), (2, 1), (2, 2), (3, 1)})
RED_PRINTED_GAMMA_BAR = frozenset({(1, 1), (2, 1), (2, 2), (3, 1), (4, 1), (5, 1), (6, 1)})
