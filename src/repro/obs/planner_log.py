"""Planner regret tracking: did ``backend="auto"`` pick the fast backend?

Inside a :func:`use_planner_log` block, every join dispatched through
:func:`repro.engine.join` or a session appends one
:class:`PlannerRecord` to the installed :class:`PlannerLog`: instance
shape, the spec, the backend that ran, measured wall time and work
counters — and, for ``backend="auto"`` joins, the planner's predicted
:class:`~repro.engine.protocol.CostEstimate` total per feasible
backend.  There is no default log: with none installed (and no sink
attached to the session) no record is built.  What a log keeps is not
free.  A session's batch-1 ``lsh`` query retains about 690 B
(``tracemalloc`` over 10,000 queries: the stage-record dict ~336 B, the
record ~224 B, plus boxed numbers; the ``predicted`` map is built once
per plan and shared), so a full log of 65,536 records holds about
43 MiB.

Regret needs a measured time for more than one backend on the *same*
instance, which a single join cannot produce.  The workflow is a sweep
(``benchmarks/bench_join_crossover.py``, or any caller) that runs the
instance under each explicit backend plus ``"auto"``; the log groups
rows by instance key, takes the fastest measured backend per group, and
scores every auto row against it.  ``tools/planner_report.py`` renders
the table from a saved log, and
:meth:`repro.engine.planner.CostModel.from_planner_log` feeds the
measurements back into calibration.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ParameterError


@dataclass(frozen=True)
class PlannerRecord:
    """One dispatched join: what ran, how it was chosen, what it cost."""

    n: int
    m: int
    d: int
    s: float
    c: float
    signed: bool
    variant: str
    #: ``"auto"`` when the planner chose, ``"explicit"`` when the caller did.
    mode: str
    #: The backend that actually ran.
    picked: str
    wall_s: float
    #: Planner-predicted total ops per feasible plan (auto mode only).
    predicted: Dict[str, float] = field(default_factory=dict)
    evaluated: int = 0
    generated: int = 0
    n_workers: int = 1
    #: One dict per executed plan stage (``index``, ``backend``, ``n``,
    #: ``m``, ``wall_s``, ``evaluated``, ``generated``, ``answered``,
    #: and — for auto picks — ``predicted_ops``), so regret attributes
    #: to stages, not just whole plans.  Single-backend joins carry one
    #: entry.
    stages: List[dict] = field(default_factory=list)
    #: Query count the planner amortized the build over (1 = one-shot
    #: dispatch; sessions pass their ``expected_queries`` hint).
    expected_queries: int = 1
    #: How many queries this session had already answered when this one
    #: ran (0 for one-shot joins and a session's first query).  Together
    #: with ``expected_queries`` this lets regret reports separate
    #: amortized session picks from one-shot picks: an auto pick that
    #: loses the one-shot race may still be right for query fifty.
    session_reuse: int = 0

    @property
    def is_session(self) -> bool:
        """True when this record came from a session-amortized dispatch."""
        return self.expected_queries > 1 or self.session_reuse > 0

    def key(self) -> Tuple:
        """Instance identity: rows sharing a key answered the same problem."""
        return (self.n, self.m, self.d, self.s, self.c, self.signed, self.variant)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "PlannerRecord":
        names = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in payload.items() if k in names})


@dataclass
class RegretRow:
    """One auto-dispatched join scored against the measured fastest backend."""

    key: Tuple
    picked: str
    predicted_best: str
    wall_s: float
    fastest: str
    fastest_s: float
    #: ``wall(picked) / wall(fastest) - 1``; 0 when the pick was right.
    regret: float
    #: Measured backends available for this instance (regret denominators).
    measured: Dict[str, float] = field(default_factory=dict)


class PlannerLog:
    """Bounded record accumulator with JSONL persistence and regret scoring."""

    def __init__(self, maxlen: Optional[int] = 65536):
        self._records: deque = deque(maxlen=maxlen)

    def record(self, record: PlannerRecord) -> None:
        self._records.append(record)

    def extend(self, records) -> None:
        for r in records:
            self.record(r)

    def clear(self) -> None:
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[PlannerRecord]:
        return iter(list(self._records))

    @property
    def records(self) -> List[PlannerRecord]:
        return list(self._records)

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        """Append-friendly JSONL: one record per line."""
        path = Path(path)
        with open(path, "w") as handle:
            for record in self._records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True))
                handle.write("\n")

    @classmethod
    def load(cls, path, maxlen: Optional[int] = 65536) -> "PlannerLog":
        path = Path(path)
        if not path.exists():
            raise ParameterError(f"no planner log at {path}")
        log = cls(maxlen=maxlen)
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    log.record(PlannerRecord.from_dict(json.loads(line)))
                except (json.JSONDecodeError, TypeError) as exc:
                    raise ParameterError(
                        f"{path}:{lineno} is not a planner record: {exc}"
                    ) from exc
        return log

    # -- analysis -------------------------------------------------------

    def measured_walls(self) -> Dict[Tuple, Dict[str, float]]:
        """Per instance key, the best measured wall time per backend."""
        walls: Dict[Tuple, Dict[str, float]] = {}
        for rec in self._records:
            per_backend = walls.setdefault(rec.key(), {})
            best = per_backend.get(rec.picked)
            if best is None or rec.wall_s < best:
                per_backend[rec.picked] = rec.wall_s
        return walls

    def regret_rows(self, session: Optional[bool] = None) -> List[RegretRow]:
        """Score every auto-mode record against its instance's fastest backend.

        Instances whose only rows are auto picks still produce a row
        (regret 0 against themselves — no alternative was measured);
        sweeps that also run explicit backends produce real regret.

        ``session=True`` keeps only session-amortized records
        (:attr:`PlannerRecord.is_session`), ``session=False`` only
        one-shot ones; the regret *denominators* always come from the
        full log, so a session pick is still scored against the fastest
        backend anyone measured on that instance.
        """
        walls = self.measured_walls()
        rows: List[RegretRow] = []
        for rec in self._records:
            if rec.mode != "auto":
                continue
            if session is not None and rec.is_session != session:
                continue
            measured = walls[rec.key()]
            fastest = min(measured, key=lambda b: measured[b])
            fastest_s = measured[fastest]
            predicted_best = (
                min(rec.predicted, key=lambda b: rec.predicted[b])
                if rec.predicted
                else rec.picked
            )
            regret = rec.wall_s / fastest_s - 1.0 if fastest_s > 0 else 0.0
            rows.append(
                RegretRow(
                    key=rec.key(),
                    picked=rec.picked,
                    predicted_best=predicted_best,
                    wall_s=rec.wall_s,
                    fastest=fastest,
                    fastest_s=fastest_s,
                    regret=max(0.0, regret),
                    measured=dict(measured),
                )
            )
        return rows

    def stage_rows(self) -> List[Tuple[Tuple, str, dict]]:
        """Flatten every record's stage entries for per-stage attribution.

        Returns ``(instance key, plan backend, stage dict)`` triples in
        record order — the raw material for asking *which stage* of a
        hybrid plan spent the time (or did the answering), rather than
        scoring whole plans only.
        """
        rows: List[Tuple[Tuple, str, dict]] = []
        for rec in self._records:
            for stage in rec.stages:
                rows.append((rec.key(), rec.picked, dict(stage)))
        return rows

    def pick_distribution(self, session: Optional[bool] = None) -> Dict[str, int]:
        """How often each backend was picked by ``backend="auto"``.

        ``session`` filters like :meth:`regret_rows`.
        """
        counts: Dict[str, int] = {}
        for rec in self._records:
            if rec.mode != "auto":
                continue
            if session is not None and rec.is_session != session:
                continue
            counts[rec.picked] = counts.get(rec.picked, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def session_counts(self) -> Tuple[int, int]:
        """``(amortized, one_shot)`` record counts, for report headers."""
        amortized = sum(1 for rec in self._records if rec.is_session)
        return amortized, len(self._records) - amortized


def format_regret_table(log: PlannerLog, session: Optional[bool] = None) -> str:
    """The regret table as aligned text (one row per auto join).

    ``session=True``/``False`` restricts the rows to session-amortized /
    one-shot dispatches (denominators still come from the whole log).
    """
    rows = log.regret_rows(session=session)
    if not rows:
        if session is True:
            return "no session-amortized auto joins recorded"
        if session is False:
            return "no one-shot auto joins recorded"
        return "no auto-dispatched joins recorded"
    header = ["n", "m", "d", "s", "c", "variant", "picked", "fastest",
              "wall", "best", "regret"]
    table: List[List[str]] = []
    for row in rows:
        n, m, d, s, c, signed, variant = row.key
        table.append([
            str(n), str(m), str(d), f"{s:g}", f"{c:g}",
            variant if signed else f"{variant}|u",
            row.picked, row.fastest,
            f"{row.wall_s * 1e3:.1f}ms", f"{row.fastest_s * 1e3:.1f}ms",
            f"{row.regret * 100:+.0f}%",
        ])
    widths = [max(len(header[i]), max(len(r[i]) for r in table))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in table)
    hits = sum(1 for r in rows if r.picked == r.fastest)
    mean_regret = sum(r.regret for r in rows) / len(rows)
    lines.append(
        f"picked fastest {hits}/{len(rows)} "
        f"({100.0 * hits / len(rows):.0f}%), mean regret "
        f"{mean_regret * 100:.1f}%, max regret "
        f"{max(r.regret for r in rows) * 100:.1f}%"
    )
    return "\n".join(lines)


def format_stage_table(log: PlannerLog, multi_stage_only: bool = True) -> str:
    """Per-stage wall/work attribution as aligned text.

    One row per executed stage; by default only plans with more than one
    stage are shown (single-backend joins add nothing over the regret
    table).  ``predicted_ops`` is blank for explicit picks.
    """
    triples = [
        (key, plan, stage)
        for key, plan, stage in log.stage_rows()
        if not multi_stage_only or "+" in plan
    ]
    if not triples:
        return "no multi-stage plans recorded"
    header = ["n", "m", "d", "plan", "stage", "backend", "sub_n", "sub_m",
              "wall", "answered", "evaluated", "pred_ops"]
    table: List[List[str]] = []
    for key, plan, stage in triples:
        n, m, d = key[0], key[1], key[2]
        predicted = stage.get("predicted_ops")
        table.append([
            str(n), str(m), str(d), plan, str(stage.get("index", "?")),
            str(stage.get("backend", "?")),
            str(stage.get("n", "?")), str(stage.get("m", "?")),
            f"{stage.get('wall_s', 0.0) * 1e3:.1f}ms",
            str(stage.get("answered", 0)),
            str(stage.get("evaluated", 0)),
            f"{predicted:.3g}" if predicted is not None else "-",
        ])
    widths = [max(len(header[i]), max(len(r[i]) for r in table))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in table)
    return "\n".join(lines)


def format_pick_distribution(log: PlannerLog) -> str:
    """The ``backend="auto"`` pick distribution as aligned text."""
    counts = log.pick_distribution()
    if not counts:
        return "no auto-dispatched joins recorded"
    total = sum(counts.values())
    width = max(len(name) for name in counts)
    lines = [
        f"{name.ljust(width)}  {count:4d}  {100.0 * count / total:5.1f}%"
        for name, count in counts.items()
    ]
    lines.append(f"{'total'.ljust(width)}  {total:4d}")
    return "\n".join(lines)


#: The log :func:`use_planner_log` installed, if any.
_CURRENT: Optional[PlannerLog] = None


def current_log() -> Optional[PlannerLog]:
    """The installed planner log, or ``None`` when none is installed."""
    return _CURRENT


@contextmanager
def use_planner_log(log: PlannerLog) -> Iterator[PlannerLog]:
    """Route engine join records into ``log`` within the block."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = log
    try:
        yield log
    finally:
        _CURRENT = previous
