"""A fixed pure-Python load that gauges how fast the host runs right now.

    python3 perfbench/reference.py

A shared host can change speed by tens of percent for minutes at a time.
The benchmark times this script in fresh interpreters between its passes and
scales its timings by it (see README.md). The load is the kind of work
specialortho does: sparse integer polynomials held in dicts, operator
dispatch on a small class, integer gcds and an elimination loop. It imports
nothing from the program, so no change to the program can move it. Editing
it changes the scale of every time the benchmark reports.
"""

from math import gcd

DEGREE = 4  # terms of higher total degree are dropped, so sizes stay fixed
ROUNDS = 60


class Poly:
    """A polynomial in three variables: packed exponents -> integer coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int]):
        self.terms = terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            c += out.get(key, 0)
            if c:
                out[key] = c
            else:
                out.pop(key, None)
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[int, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = k1 + k2
                if (key & 63) + (key >> 6 & 63) + (key >> 12) > DEGREE:
                    continue
                c = out.get(key, 0) + c1 * c2
                if c:
                    out[key] = c
                else:
                    del out[key]
        return Poly(out)

    def primitive(self) -> "Poly":
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return Poly({k: c // g for k, c in self.terms.items()}) if g > 1 else self


def matrix(seed: int, n: int) -> list[list[Poly]]:
    """n x n polynomials from a fixed linear congruential sequence."""
    state = seed
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            for _ in range(4):
                state = (state * 1103515245 + 12345) % 2**31
                a, b, c = state % 3, state // 3 % 3, state // 9 % 2
                terms[a + (b << 6) + (c << 12)] = state // 18 % 19 - 9 or 1
            row.append(Poly(terms))
        rows.append(row)
    return rows


def eliminate(rows: list[list[Poly]]) -> int:
    """Division-free elimination; returns the number of terms left."""
    n = len(rows)
    for k in range(n - 1):
        pivot = rows[k][k]
        for i in range(k + 1, n):
            lead = rows[i][k]
            rows[i] = [
                (pivot * rows[i][j] + Poly({0: -1}) * lead * rows[k][j]).primitive()
                for j in range(n)
            ]
    return sum(len(p.terms) for row in rows for p in row)


def main() -> None:
    print(sum(eliminate(matrix(seed, 7)) for seed in range(ROUNDS)))


if __name__ == "__main__":
    main()
