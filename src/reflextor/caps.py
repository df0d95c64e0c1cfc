"""Computation caps and cooperative cancellation.

Every potentially long-running routine threads a `Caps` value and calls
`tick` between reduction steps, or `poll`, the cancel check alone, where
its steps are not S-pairs; a normal form calls `step` once per reduction
step, which polls every POLL_STEPS steps of the run.  Blowing a cap
raises `CapExceeded`, a distinct outcome that is never a silently wrong
answer; a caller-supplied cancel callback raises `ComputationCancelled`
the same way.

Two memos keep answers, both through `Caps.memo`, the one charged
replay: a miss stores its value with the number of pairs its computation
charged, and a hit ticks that many times (`replay`), so the pair cap, the
cancel poll and every answer are as a recomputation would leave them.
`QuotientRing.memo` keeps verdicts that depend only on the ring and a
presentation (reflexivity, torsion-freeness, Fitting chains, ideal
bases); it lives with the ring, so equal modules built by later tasks
share them.  `Caps.task_memo` keeps the engine's relation spans and
syzygy runs (`modules.ring_membership_span`, `modules.syzygies_over_ring`)
for one task only: it lives on the task's `Caps`, which `fresh` makes
empty, and holds no `Caps` itself, so it is freed by refcount when the
task ends, while a ring, held in reference cycles, would keep such bulky
entries until a full collection.

An answer that a run computes once and then keeps, an ideal basis or a
step of a module's resolution, is charged once per run instead
(`pay_once`), so what a run pays never depends on what earlier runs
left in a cache.  A `Caps` shared across threads can count one thread's
pairs in another's memo entry, which mis-charges a later hit but never
gives a wrong answer.
"""

from dataclasses import dataclass, field

POLL_STEPS = 256  # reduction steps between two cancel polls


class CapExceeded(RuntimeError):
    """A configured pair-count, degree or length cap was hit."""


class ComputationCancelled(RuntimeError):
    """The caller's cancel token fired between reduction steps."""


class Token:
    """Names one kept answer for `Caps.pay_once`: equal only to itself,
    and weakly referable, so a test can see what still holds it."""

    __slots__ = ("__weakref__",)


@dataclass
class Caps:
    max_pairs: int = 200_000
    max_degree: int = 120
    resolution_length: int = 8
    tor_window: int = 6
    cancel: object = None  # optional zero-arg callable returning True to stop
    _pairs_used: int = field(default=0, repr=False)
    _steps: int = field(default=0, repr=False)
    _paid: set = field(default_factory=set, repr=False)  # see pay_once
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

    def pay_once(self, key, pairs: int):
        """Tick `pairs` times for the kept answer `key`, unless this run has
        paid for it already; pass 0 right after computing it, as its ticks
        are made.  Keys are built on `Token`s, which `_paid` keeps alive,
        so no two answers share one."""
        if key not in self._paid:
            self.replay(pairs)
            self._paid.add(key)

    def memo(self, store, key, compute, once=False):
        """`compute()` once per key of the dict `store`, with charged replay.

        A miss stores the value with the number of pairs `compute()`
        charged to this `Caps`, only if it returns normally; a hit replays
        that many ticks.  With `once` a hit charges only if this run has
        not paid for the entry yet (`pay_once`).  No memoized computation
        may use an answer charged once per run that outlives it (a basis,
        a resolution kept on a module): its pairs would carry that charge,
        and a run could pay it twice or not at all.
        """
        entry = store.get(key)
        if entry is None:
            start = self._pairs_used
            value = compute()
            token = Token() if once else None
            store[key] = (value, self._pairs_used - start, token)
            if once:
                self.pay_once(token, 0)
            return value
        value, pairs, token = entry
        if once:
            self.pay_once(token, pairs)
        else:
            self.replay(pairs)
        return value

    def task_memo(self, owner, key, compute):
        """`memo` in this run's own store, one per `owner` (a ring), which
        the store pins so that its id names it for as long as the store
        lives.  Values must hold no `Caps`, so that dropping the run's
        `Caps` frees them."""
        store = self._memo.setdefault(id(owner), (owner, {}))[1]
        return self.memo(store, key, compute)

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
