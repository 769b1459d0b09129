"""Sharded path control: the per-epoch solve fanned across processes.

The hop-limited min-plus DP dominates the control epoch at planetary
scale, and its structure is embarrassingly row-parallel: row ``i`` of
every DP layer depends only on row ``i`` of the previous layer and the
full weight matrix (`pathcontrol.dp_row_block`).  `ControlPool`
partitions the source rows into contiguous blocks, ships each block to
a worker process, and concatenates the results **in block order** — the
merge is byte-identical to the monolithic `_dp_layers` because every
block runs the exact same kernel over the exact same rows.

The reaction-plan reverse walks shard the same way: walks depend only
on a path's region sequence, so the distinct routes of a result are
partitioned across workers (`reaction_walks`) and the merged per-route
memo is handed to `generate_reaction_plans` via its ``walks`` seam.

Pool machinery is shared with the experiment orchestrator
(`repro.experiments.orchestrator.pool_context` / `Deadline`): fork
workers, worker-side cooperative monotonic deadlines, deterministic
work partitioning.  The deadlines are deliberately *not* the
orchestrator's ``SIGALRM`` alarms: fork workers inherit the parent's
signal dispositions, and a parent with its own handlers (the serve
mode) or an asyncio loop owns signal delivery — worker kernels check a
monotonic deadline between bounded units of work (a DP row chunk, one
route walk), which composes with any parent.
Any worker failure or timeout permanently degrades the pool to the
in-process kernels for the rest of its life — sharding is a pure
performance seam, so correctness never depends on the pool being
healthy.  Every output is bit-identical to the monolithic solve; the
golden-equivalence suite (`tests/controlplane/test_sharded.py`) pins
that down for 1, 2 and 4 workers.
"""

from __future__ import annotations

import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.controlplane import pathcontrol as _pc
from repro.controlplane import reactionplan as _rp
from repro.controlplane.pathcontrol import EpochSolveContext
from repro.experiments.orchestrator import Deadline, pool_context
from repro.obs import telemetry as _telemetry
from repro.underlay.snapshot import LinkStateSnapshot

_TEL = _telemetry()

#: Rows per deadline check in a DP shard.  `dp_row_block` is row-
#: independent, so sub-chunking a shard and stacking the pieces is the
#: same computation — the chunk size only bounds how stale a worker's
#: deadline check can get.
_DP_CHUNK_ROWS = 64


def _shard_bounds(n: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous row blocks [lo, hi) covering ``range(n)``.

    Same split `np.array_split` produces: the first ``n % shards``
    blocks get one extra row.  Deterministic in (n, shards) only.
    """
    shards = max(1, min(shards, n))
    base, extra = divmod(n, shards)
    bounds = []
    lo = 0
    for k in range(shards):
        hi = lo + base + (1 if k < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _dp_shard(w: np.ndarray, lo: int, hi: int, n_layers: int,
              timeout_s: Optional[float]
              ) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Worker task: one row block of the DP, under a cooperative deadline.

    Each worker builds its own contiguous transpose — an O(N^2) copy,
    negligible next to the O(rows * N^2) DP itself — so only ``w`` is
    shipped.  The block is computed in `_DP_CHUNK_ROWS` sub-chunks with
    a monotonic deadline check between them; rows are independent, so
    stacking the chunks is bit-identical to one `dp_row_block` call.
    """
    deadline = Deadline(timeout_s)
    wT = np.ascontiguousarray(w.T)
    if hi - lo <= _DP_CHUNK_ROWS:
        deadline.check()
        return _pc.dp_row_block(w, wT, lo, hi, n_layers)
    parts = []
    for clo in range(lo, hi, _DP_CHUNK_ROWS):
        deadline.check()
        chi = min(clo + _DP_CHUNK_ROWS, hi)
        parts.append(_pc.dp_row_block(w, wT, clo, chi, n_layers))
    dist = np.vstack([p[0] for p in parts])
    vias = [np.vstack([p[1][layer] for p in parts])
            for layer in range(n_layers)]
    improved = [np.vstack([p[2][layer] for p in parts])
                for layer in range(n_layers)]
    return dist, vias, improved


def _walks_shard(routes: Sequence[Tuple[str, ...]], snap: LinkStateSnapshot,
                 loss_ms_penalty: float, timeout_s: Optional[float]
                 ) -> List[Dict[str, Tuple[str, ...]]]:
    """Worker task: Algorithm 2's reverse walk for a block of routes.

    One cooperative deadline check per route — each walk is bounded by
    the route length, so per-route granularity keeps the check fresh.
    """
    deadline = Deadline(timeout_s)
    walks = []
    for route in routes:
        deadline.check()
        walks.append(_rp.route_walk(route, snap, loss_ms_penalty))
    return walks


def _shutdown_executor(executor: ProcessPoolExecutor) -> None:
    """`weakref.finalize` backstop: reap workers of an abandoned pool.

    Runs when a `ControlPool` is garbage-collected without `close()` —
    e.g. a `Controller` that was replaced or dropped without teardown.
    ``wait=False`` because a finalizer must not block (the processes
    exit on their own once the work queues are torn down).
    """
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - interpreter-shutdown races
        pass


class ControlPool:
    """A process pool that shards the control-plane solve.

    Plug `dp_fn` into an `EpochSolveContext` (or call `solve_context()`)
    to run every shortest-path build of an epoch process-parallel, and
    use `reaction_walks` to fan the reaction-plan route walks out.  The
    pool is lazy (no processes until first use), reusable across epochs
    (fork cost is paid once), and degrades permanently to the in-process
    kernels on any worker failure or timeout.

    ``min_shard_rows`` guards against sharding tiny problems where the
    pickle/IPC round-trip dwarfs the kernel; tests pass 1 to force
    sharding at toy sizes.
    """

    def __init__(self, workers: int = 2, *, timeout_s: float = 60.0,
                 min_shard_rows: int = 32):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.timeout_s = float(timeout_s)
        self.min_shard_rows = int(min_shard_rows)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None
        self._broken = False
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    def _pool(self) -> Optional[ProcessPoolExecutor]:
        if self._broken or self._closed or self.workers < 2:
            return None
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=pool_context())
            # GC backstop: a pool dropped without close() (a replaced
            # Controller, an abandoned simulator) must not strand its
            # fork workers until process exit.  The finalizer holds the
            # executor, never the pool, so it cannot keep `self` alive.
            self._finalizer = weakref.finalize(
                self, _shutdown_executor, self._executor)
        return self._executor

    def _detach_finalizer(self) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None

    def _degrade(self, what: str, exc: BaseException) -> None:
        """Fall back to in-process kernels for the rest of the pool's life."""
        self._broken = True
        warnings.warn(
            f"sharded {what} failed ({type(exc).__name__}: {exc}); "
            "falling back to the in-process solver for this pool",
            RuntimeWarning, stacklevel=3)
        if _TEL.enabled:
            _TEL.counter("pathcontrol.shard_fallbacks").inc()
        if self._executor is not None:
            self._detach_finalizer()
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        self._closed = True
        if self._executor is not None:
            self._detach_finalizer()
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ControlPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------- DP
    def dp_fn(self, w: np.ndarray, n_layers: int
              ) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
        """Drop-in `pathcontrol.DpFn`: the DP fanned across workers.

        Bit-identical to `pathcontrol._dp_layers`: each worker runs the
        same `dp_row_block` kernel on its contiguous row block, and the
        blocks are concatenated in ascending row order regardless of
        completion order.
        """
        n = w.shape[0]
        bounds = _shard_bounds(n, self.workers)
        if len(bounds) < 2 or n < self.min_shard_rows:
            return _pc._dp_layers(w, n_layers)
        pool = self._pool()
        if pool is None:
            return _pc._dp_layers(w, n_layers)
        try:
            futures = [pool.submit(_dp_shard, w, lo, hi, n_layers,
                                   self.timeout_s)
                       for lo, hi in bounds]
            parts = [f.result(timeout=self.timeout_s) for f in futures]
        except Exception as exc:  # incl. ExperimentTimeout, pool breakage
            self._degrade("DP build", exc)
            return _pc._dp_layers(w, n_layers)
        dist = np.vstack([p[0] for p in parts])
        vias = [np.vstack([p[1][layer] for p in parts])
                for layer in range(n_layers)]
        improved = [np.vstack([p[2][layer] for p in parts])
                    for layer in range(n_layers)]
        if _TEL.enabled:
            _TEL.counter("pathcontrol.shard_dp_builds").inc()
        return dist, vias, improved

    def solve_context(self) -> EpochSolveContext:
        """A fresh per-epoch context wired to this pool's DP."""
        return EpochSolveContext(dp_fn=self.dp_fn)

    # ------------------------------------------------------------ plan walks
    def reaction_walks(self, result: "_pc.PathControlResult",
                       snap: LinkStateSnapshot,
                       loss_ms_penalty: float = 2500.0
                       ) -> Dict[Tuple[str, ...], Dict[str, Tuple[str, ...]]]:
        """Pre-compute Algorithm 2's route walks across the pool.

        Returns the per-route memo `generate_reaction_plans` accepts as
        ``walks``.  Routes are deduplicated in first-appearance order
        and partitioned contiguously, so the merged dict carries exactly
        the entries the monolithic walk would compute.
        """
        routes: List[Tuple[str, ...]] = []
        seen = set()
        for a in result.assignments:
            regions = a.path.regions
            if regions not in seen:
                seen.add(regions)
                routes.append(regions)
        if len(routes) < 2 * self.workers:
            return {route: _rp.route_walk(route, snap, loss_ms_penalty)
                    for route in routes}
        pool = self._pool()
        if pool is None:
            return {route: _rp.route_walk(route, snap, loss_ms_penalty)
                    for route in routes}
        bounds = _shard_bounds(len(routes), self.workers)
        try:
            futures = [pool.submit(_walks_shard, routes[lo:hi], snap,
                                   loss_ms_penalty, self.timeout_s)
                       for lo, hi in bounds]
            parts = [f.result(timeout=self.timeout_s) for f in futures]
        except Exception as exc:  # incl. ExperimentTimeout, pool breakage
            self._degrade("reaction walks", exc)
            return {route: _rp.route_walk(route, snap, loss_ms_penalty)
                    for route in routes}
        walks: Dict[Tuple[str, ...], Dict[str, Tuple[str, ...]]] = {}
        for (lo, hi), part in zip(bounds, parts):
            for route, rec_plan in zip(routes[lo:hi], part):
                walks[route] = rec_plan
        if _TEL.enabled:
            _TEL.counter("pathcontrol.shard_walk_builds").inc()
        return walks
