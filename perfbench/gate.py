"""The correctness gate: checks a pattern file against the database text.

It never trusts the miner's arithmetic. The database is read with its own
parser, each reported pattern is recomputed by intersecting the transaction
id sets of its items, and every itemset of one or two items is scored by
brute force so that completeness can be checked up to size 2.

Checks, per result:
  1. each pattern's utility, period set and period total, and the printed
     ratio, match the recomputation;
  2. patterns are in strict ranking order (ratio descending, then fewer
     items, then smaller item tuple) and there are min(k, ...) of them;
  3. every itemset of size <= 2 that ranks ahead of the k-th reported
     pattern is reported;
  4. (in run.py) every run of one workload and seed writes the same bytes.
"""

from __future__ import annotations

import re
from fractions import Fraction

_LINE = re.compile(r"(\d+(?: \d+)*) #UTIL: (-?\d+) #TO: (-?\d+) #RU: (-?\d+)/(-?\d+)")


def _key(items: tuple[int, ...], utility: int, period_total: int):
    return (-Fraction(utility, period_total), len(items), items)


class Reference:
    """Independent figures of one database, built once per input."""

    def __init__(self, text: str):
        self.rows: list[dict[int, int]] = []
        self.row_period: list[int] = []
        self.period_totals: dict[int, int] = {}
        self.tids: dict[int, set[int]] = {}
        for line in text.splitlines():
            ids, tu, utils, period = line.split(":")
            items = [int(x) for x in ids.split()]
            values = [int(x) for x in utils.split()]
            h = int(period)
            tid = len(self.rows)
            self.rows.append(dict(zip(items, values)))
            self.row_period.append(h)
            self.period_totals[h] = self.period_totals.get(h, 0) + int(tu)
            for item in items:
                self.tids.setdefault(item, set()).add(tid)
        self.labels = sorted(self.period_totals)
        self._small = self._score_small()

    def _score_small(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """(utility, period bitmask) of every occurring itemset of size 1 or 2."""
        bit = {h: 1 << d for d, h in enumerate(self.labels)}
        small: dict[tuple[int, ...], list[int]] = {}
        for row, h in zip(self.rows, self.row_period):
            b = bit[h]
            entries = sorted(row.items())
            for a, (i, ui) in enumerate(entries):
                cell = small.get((i,))
                if cell is None:
                    small[(i,)] = [ui, b]
                else:
                    cell[0] += ui
                    cell[1] |= b
                for j, uj in entries[a + 1:]:
                    cell = small.get((i, j))
                    if cell is None:
                        small[(i, j)] = [ui + uj, b]
                    else:
                        cell[0] += ui + uj
                        cell[1] |= b
        return {items: (u, mask) for items, (u, mask) in small.items()}

    def _mask_total(self, mask: int) -> int:
        total = 0
        while mask:
            low = mask & -mask
            total += self.period_totals[self.labels[low.bit_length() - 1]]
            mask ^= low
        return total

    def recompute(self, items: tuple[int, ...]):
        """(utility, sorted periods, period total) of an itemset, or None if
        no transaction holds it."""
        sets = sorted((self.tids.get(i, set()) for i in items), key=len)
        tids = set.intersection(*sets) if sets else set()
        if not tids:
            return None
        utility = sum(self.rows[t][i] for t in tids for i in items)
        periods = sorted({self.row_period[t] for t in tids})
        return utility, periods, sum(self.period_totals[h] for h in periods)

    def check(self, text: str, periods: list[list[int]], k: int) -> list[str]:
        """Every way the result departs from the database; empty if correct."""
        errors: list[str] = []
        lines = text.split("\n")
        if lines[-1] != "":
            errors.append("pattern file does not end with a newline")
        lines = [line for line in lines if line]
        if len(periods) != len(lines):
            errors.append(f"{len(lines)} pattern lines but {len(periods)} period sets")
        reported: list[tuple[int, ...]] = []
        keys = []
        for n, line in enumerate(lines, start=1):
            m = _LINE.fullmatch(line)
            if not m:
                errors.append(f"line {n}: malformed {line!r}")
                continue
            items = tuple(int(x) for x in m.group(1).split())
            utility, total, ru_num, ru_den = (int(m.group(g)) for g in range(2, 6))
            if list(items) != sorted(set(items)):
                errors.append(f"line {n}: items not strictly ascending")
            truth = self.recompute(items)
            if truth is None:
                errors.append(f"line {n}: itemset {items} occurs in no transaction")
                continue
            t_utility, t_periods, t_total = truth
            if (utility, total) != (t_utility, t_total):
                errors.append(
                    f"line {n}: {items} reported {utility}/{total}, "
                    f"recomputed {t_utility}/{t_total}"
                )
            if (ru_num, ru_den) != (utility, total):
                errors.append(f"line {n}: ratio field {ru_num}/{ru_den} disagrees")
            if n <= len(periods) and sorted(periods[n - 1]) != t_periods:
                errors.append(f"line {n}: {items} period set differs")
            reported.append(items)
            keys.append(_key(items, t_utility, t_total))

        for n in range(1, len(keys)):
            if not keys[n - 1] < keys[n]:
                errors.append(f"lines {n}-{n + 1}: not in strict ranking order")
                break

        nonnegative = sum(1 for u, _ in self._small.values() if u >= 0)
        if not min(k, nonnegative) <= len(lines) <= k:
            errors.append(f"{len(lines)} patterns for k={k}, with {nonnegative} "
                          "itemsets of size <= 2 at a non-negative ratio")
        present = set(reported)
        missing = []
        if len(lines) >= k and keys:
            # Ahead of the k-th: higher ratio, or equal ratio and a smaller
            # (length, items) key. Compared by cross-multiplication.
            kth = keys[-1]
            k_num, k_den = -kth[0].numerator, kth[0].denominator
            for items, (u, mask) in self._small.items():
                lhs, rhs = u * k_den, k_num * self._mask_total(mask)
                if lhs > rhs or (lhs == rhs and (len(items), items) < kth[1:]):
                    if items not in present:
                        missing.append(items)
        else:
            # Fewer than k: every pattern with a non-negative ratio is due.
            missing = [items for items, (u, _) in self._small.items()
                       if u >= 0 and items not in present]
        if missing:
            missing.sort(key=lambda items: _key(
                items, self._small[items][0], self._mask_total(self._small[items][1])))
            errors.append(f"{len(missing)} itemsets of size <= 2 rank ahead of the k-th "
                          f"but are missing, such as {missing[:3]}")
        return errors
