"""A fixed pure-Python workload that gauges how fast this machine runs right now.

The benchmark runs this file as a child right after every sweep and reports
the median, over the sweeps of a run, of the sweep's wall time divided by
this child's (``wall_rel``).  On a shared host the speed of a core swings by
tens of percent for seconds at a time, and the ratio cancels most of that.
It mimics the program's hot loops (partition enumeration and hook lengths
over tuples, kept in a table) without importing blockcraft, so no change to
the program can change it.  Editing it changes every ``wall_rel``, so do not.
"""

N = 33


def partitions(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for part in range(min(n, cap), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def main() -> None:
    # Keep every hook multiset, as the program's memo tables do, so that the
    # working set is megabytes and not a few cache lines.
    hooks_of = {}
    for lam in partitions(N, N):
        conj = tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))
        hooks_of[lam] = tuple(sorted(
            (row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row)),
            reverse=True,
        ))
    total = 0
    for lam, hooks in hooks_of.items():
        total += sum(h for h in hooks if h % 3 == 0) + len(hooks_of.get(lam[1:], ()))
    print(total, len(hooks_of))


if __name__ == "__main__":
    main()
