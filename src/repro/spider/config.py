"""SPIDeR deployment parameters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SpiderConfig:
    """Knobs of one SPIDeR deployment (defaults follow Section 7.2).

    * ``commit_interval`` — seconds between commitments (60 in the
      evaluation; the paper notes 15 is feasible);
    * ``delta`` — the loose-synchronization input window (Section 6.4);
    * ``nagle_delay`` / ``max_batch`` — signature batching (Section 6.2);
    * ``ack_timeout`` — T_max before a missing ACK raises an alarm;
    * ``retention_seconds`` — how far back verification may reach
      (R = 365 days in the paper);
    * ``checkpoint_interval`` — how often a full routing snapshot is
      logged (the paper estimates one per day);
    * ``commit_workers`` — the paper's ``c`` commitment threads (§7.1):
      when > 1 the recorder keeps one warm shared-memory
      :class:`~repro.mtt.pool.LabelPool` this wide (spawned lazily on
      the first commitment, shut down by ``Recorder.close()``) and MTT
      subtrees are labeled on its workers.
    """

    commit_interval: float = 60.0
    delta: float = 5.0
    nagle_delay: float = 0.05
    max_batch: int = 32
    ack_timeout: float = 10.0
    retention_seconds: float = 365 * 24 * 3600
    checkpoint_interval: float = 24 * 3600
    commit_workers: int = 1

    def __post_init__(self) -> None:
        if self.commit_interval <= 0:
            raise ValueError("commit_interval must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.delta >= self.commit_interval:
            raise ValueError("delta must be below the commit interval")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.commit_workers < 1:
            raise ValueError("commit_workers must be at least 1")
