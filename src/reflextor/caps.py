"""Computation caps and cooperative cancellation.

Every potentially long-running routine threads a `Caps` value and calls
`tick` between reduction steps, or `poll`, the cancel check alone, where
its steps are not S-pairs; a normal form calls `step` once per reduction
step, which polls every POLL_STEPS steps of the run.  Blowing a cap
raises `CapExceeded`, a distinct outcome that is never a silently wrong
answer; a caller-supplied cancel callback raises `ComputationCancelled`
the same way.

Answers are kept in two homes, both through `Caps.memo`, one charged
replay: a miss stores its value with the number of pairs its computation
charged, and a hit ticks that many times (`replay`), so the pair cap, the
cancel poll and every answer are as a recomputation would leave them.
`QuotientRing.memo` keeps verdicts that depend only on the ring and a
presentation (reflexivity, torsion-freeness, Fitting chains); it lives
with the ring, so equal modules built by later tasks share them.
`Caps.task_memo` keeps what the engine builds, for one run only: relation
spans and syzygy runs (`modules.ring_membership_span`,
`modules.syzygies_over_ring`), replayed on a hit, and module resolutions
and ideal bases, which the run pays for when it computes them and then
uses for free (`once`), as a run that kept them in a local would.  It
lives on the run's `Caps`, which `fresh` makes empty, and holds no `Caps`
itself, so it is freed by refcount when the run ends, and what a run pays
never depends on what earlier runs computed.  A `Caps` shared across
threads can build one entry twice, or count one thread's pairs in
another's memo entry, which mis-charges a later hit but never gives a
wrong answer.
"""

from dataclasses import dataclass, field

POLL_STEPS = 256  # reduction steps between two cancel polls


class CapExceeded(RuntimeError):
    """A configured pair-count, degree or length cap was hit."""


class ComputationCancelled(RuntimeError):
    """The caller's cancel token fired between reduction steps."""


@dataclass
class Caps:
    max_pairs: int = 200_000
    max_degree: int = 120
    resolution_length: int = 8
    tor_window: int = 6
    cancel: object = None  # optional zero-arg callable returning True to stop
    _pairs_used: int = field(default=0, repr=False)
    _steps: int = field(default=0, repr=False)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)  # task_memo

    def poll(self):
        """The cancel check alone; it uses none of the pair budget."""
        if self.cancel is not None and self.cancel():
            raise ComputationCancelled("computation cancelled by caller")

    def step(self):
        """Count one reduction step; every POLL_STEPS-th polls the cancel."""
        self._steps += 1
        if self._steps % POLL_STEPS == 0:
            self.poll()

    def tick(self, degree: int = 0):
        self.poll()
        self._pairs_used += 1
        if self._pairs_used > self.max_pairs:
            raise CapExceeded(f"pair cap exceeded ({self.max_pairs})")
        if degree > self.max_degree:
            raise CapExceeded(f"degree cap exceeded ({self.max_degree})")

    def replay(self, pairs: int):
        """Tick `pairs` times: the charge of an answer kept from an earlier
        computation, as a recomputation would tick."""
        for _ in range(pairs):
            self.tick()

    def memo(self, store, key, compute, once=False):
        """`compute()` once per key of the dict `store`, with charged replay.

        A miss stores the value with the number of pairs `compute()`
        charged to this `Caps`, only if it returns normally; a hit replays
        that many ticks.  With `once` the entry is stored with no pairs,
        so only the miss pays.  No memoized computation may use a `once`
        entry that outlives it: its pairs would depend on whether the run
        had built that entry already.
        """
        entry = store.get(key)
        if entry is None:
            start = self._pairs_used
            value = compute()
            store[key] = (value, 0 if once else self._pairs_used - start)
            return value
        value, pairs = entry
        self.replay(pairs)
        return value

    def task_memo(self, owner, key, compute, once=False):
        """`memo` in this run's own store, one per `owner` (a ring or a
        module), which the store pins so that its id names it for as long
        as the store lives.  Values must hold no `Caps`, so that dropping
        the run's `Caps` frees them."""
        store = self._memo.setdefault(id(owner), (owner, {}))[1]
        return self.memo(store, key, compute, once)

    def fresh(self) -> "Caps":
        """Copy with the pair counter reset (one budget per top-level run)."""
        return Caps(
            max_pairs=self.max_pairs,
            max_degree=self.max_degree,
            resolution_length=self.resolution_length,
            tor_window=self.tor_window,
            cancel=self.cancel,
        )


DEFAULT_CAPS = Caps()
