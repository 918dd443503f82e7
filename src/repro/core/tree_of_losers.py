"""Tree-of-losers priority queues (tournament trees), plain and OVC.

Software equivalent of IBM's UPT "update tree" instruction (paper
Section 3). The tree is a balanced binary tree embedded in an array:
slot 0 holds the unary root (the overall winner), slots 1..M-1 hold the
losers of past comparisons, and M merge inputs are fixed to the leaves.
A pop replaces the winner with the successor from the same input and
retraces the winner's leaf-to-root path with one comparison per level.

In the OVC variant every entry carries an offset-value code relative to
the key that last beat it; along the winner's path all entries are coded
relative to the winner, so ``repro.core.ovc.compare_update`` applies at
every node and most comparisons are decided by one integer compare.
Exhausted inputs become late fences folded into the code word.
``PlainLoserTree`` is the same tree with a full-key match: the baseline
that Figures 1 and 3 measure against.

Streams yield ``(key, code, payload)`` triples: ``key`` a tuple of ints,
``code`` the row's ascending OVC relative to its predecessor *within the
same stream* (the first row primed at offset 0), ``payload`` opaque.
The merged output stream has the same shape, with each row's code
relative to the previous *output* row — i.e. the merge produces OVCs for
free (Sections 3 and 4.9).
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.core.keys import compare_keys
from repro.core.ovc import OvcSpec, compare_update
from repro.core.stats import CompareStats

Entry = tuple  # (key | None, code, payload, leaf_index)


class OvcLoserTree:
    """Multiway merge of sorted, OVC-coded streams.

    ``streams`` is a sequence of iterators/iterables of
    ``(key, code, payload)``. Iterate the instance to get the merged
    stream with output OVCs. ``stats`` counts row comparisons, code-only
    decisions, and column-value comparisons.
    """

    def __init__(
        self,
        streams: Sequence[Iterable],
        spec: OvcSpec,
        stats: CompareStats | None = None,
    ) -> None:
        if not streams:
            raise ValueError("need at least one input stream")
        self.spec = spec
        self.stats = stats
        m = 1
        while m < len(streams):
            m *= 2
        self._m = m
        self._streams = [iter(s) for s in streams] + [iter(())] * (m - len(streams))
        # slots 1..m-1: losers; slot 0: overall winner.
        self._nodes: list[Entry | None] = [None] * m
        self._nodes[0] = self._build(1) if m > 1 else self._fetch(0)

    # -- internals ----------------------------------------------------

    def _fetch(self, leaf: int) -> Entry:
        """Next entry from input ``leaf``, or a late fence when exhausted."""
        try:
            key, code, payload = next(self._streams[leaf])
        except StopIteration:
            return (None, self.spec.late_fence_code, None, leaf)
        return (key, code, payload, leaf)

    def _play(self, a: Entry, b: Entry) -> tuple[Entry, Entry]:
        """One tournament match; returns (winner, loser) with the
        loser's code updated relative to the winner."""
        a_wins, loser_code = compare_update(
            self.spec, a[0], a[1], b[0], b[1], self.stats
        )
        if a_wins:
            return a, (b[0], loser_code, b[2], b[3])
        return b, (a[0], loser_code, a[2], a[3])

    def _build(self, node: int) -> Entry:
        """Recursive bottom-up tournament; stores losers, returns winner."""
        if node >= self._m:
            return self._fetch(node - self._m)
        w_l = self._build(2 * node)
        w_r = self._build(2 * node + 1)
        winner, loser = self._play(w_l, w_r)
        self._nodes[node] = loser
        return winner

    # -- public API ---------------------------------------------------

    def __iter__(self) -> Iterator[tuple]:
        while True:
            winner = self._nodes[0]
            assert winner is not None
            if winner[0] is None:  # all inputs exhausted
                return
            yield winner[0], winner[1], winner[2]
            self._replace(winner[3])

    def _replace(self, leaf: int) -> None:
        """Leaf-to-root pass for the successor of the popped winner."""
        cur = self._fetch(leaf)
        node = (self._m + leaf) // 2
        while node >= 1:
            incumbent = self._nodes[node]
            assert incumbent is not None
            cur, loser = self._play(cur, incumbent)
            self._nodes[node] = loser
            node //= 2
        self._nodes[0] = cur


class PlainLoserTree(OvcLoserTree):
    """Baseline tree-of-losers merge using full key comparisons only.

    Streams and output have the same ``(key, code, payload)`` shape as
    ``OvcLoserTree``; codes pass through untouched (plain inputs carry
    code 0). Every match compares keys column by column from column 0,
    which is what OVC avoids — ``stats.col_cmps`` shows the difference.
    """

    def __init__(
        self,
        streams: Sequence[Iterable],
        stats: CompareStats | None = None,
    ) -> None:
        # Only the late-fence code is read from the spec; the match
        # below recognises fences by their missing key.
        super().__init__(streams, OvcSpec(1), stats)

    def _play(self, a: Entry, b: Entry) -> tuple[Entry, Entry]:
        if self.stats is not None:
            self.stats.row_cmps += 1
        if a[0] is None:
            return b, a
        if b[0] is None:
            return a, b
        if compare_keys(a[0], b[0], self.stats) <= 0:
            return a, b
        return b, a
