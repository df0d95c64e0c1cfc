"""Computation caps and cooperative cancellation.

Every potentially long-running routine threads a `Caps` value and calls
`tick` between reduction steps, or `poll`, the cancel check alone, where
its steps are not S-pairs; a normal form calls `step` once per reduction
step, which polls every POLL_STEPS steps of the run.  Blowing a cap
raises `CapExceeded`, a distinct outcome that is never a silently wrong
answer; a caller-supplied cancel callback raises `ComputationCancelled`
the same way.
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
