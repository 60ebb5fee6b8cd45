"""The three workloads and the deployment each one serves from.

Every workload is set up the way this repository serves an index: build
offline, save a version-3 archive, load it memory-mapped, and put an
``AsyncSearchService`` with its default batch window under a
``SearchHttpApp``.  Why each workload exists, which layers it loads and
which it bypasses is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

from repro import AsyncSearchService, build_index, build_sharded_index, load_index
from repro.serving import ReplicaSet, SearchHttpApp

from . import streams
from .spans import SpanRecorder

#: Construction threshold of every index (the paper's τ_min).
TAU_MIN = 0.1


@dataclass(frozen=True)
class Inputs:
    """Everything generated from the seed: one indexed input per archive
    version (two for the listing workload) and the request stream."""

    versions: Tuple[Any, ...]
    stream: streams.RequestStream


@dataclass(frozen=True)
class Workload:
    """One workload: its input generator, how its index is built and
    served, how many requests warm it up before measuring, and the share
    of stream indices whose answers are checked against the oracle."""

    name: str
    generate: Callable[[int, int], Inputs]
    build: Callable[[Any], Any]
    replicated: bool
    warmup: int
    check_rate: float


def _sparse_inputs(seed: int, count: int) -> Inputs:
    string_seed, stream_seed = streams.sub_seeds(seed, 2)
    string = streams.protein_string(8000, seed=string_seed)
    stream = streams.uniform_stream(
        string.most_likely_string(),
        count,
        seed=stream_seed,
        min_length=4,
        max_length=50,
        taus=streams.COARSE_TAUS,
    )
    return Inputs((string,), stream)


#: Pattern lengths 2, 3 and 4 of ``substring-dense`` in the ratio 2:1:1.
#: A length-2 answer (~250 matches) costs several times a longer one, and
#: the service evaluates the two clients' requests in one batch, so the
#: latencies form a fast and a slow mode.  At uniform lengths 5/9 of the
#: batches hold a length-2 request and the median falls in the gap between
#: the modes, where it moved 18% between seeds; at 2:1:1 it is 3/4 and the
#: median lies inside the slow mode.
DENSE_LENGTH_WEIGHTS = (2.0, 1.0, 1.0)


def _dense_inputs(seed: int, count: int) -> Inputs:
    string_seed, stream_seed = streams.sub_seeds(seed, 2)
    string = streams.nucleotide_string(4000, seed=string_seed)
    stream = streams.uniform_stream(
        string.most_likely_string(),
        count,
        seed=stream_seed,
        min_length=2,
        max_length=4,
        taus=streams.FINE_TAUS,
        length_weights=DENSE_LENGTH_WEIGHTS,
    )
    return Inputs((string,), stream)


#: ``listing-churn`` swaps after every 1500 completed requests of a
#: measured phase, three times.  A swap takes 1-2 s, so a minority of a
#: 15 s phase (and of its throughput windows) overlaps one, and the swap
#: count stays at three down to 300 req/s (4500 requests in 15 s).
SWAP_POINTS = (1500, 3000, 4500)


def _churn_inputs(seed: int, count: int) -> Inputs:
    collection_seed, key_seed, stream_seed = streams.sub_seeds(seed, 3)
    first, second = streams.collection_versions(
        8000, seed=collection_seed, replaced_fraction=0.1
    )
    keys = streams.listing_keys(
        first, 2000, seed=key_seed, min_length=3, max_length=8, taus=streams.COARSE_TAUS
    )
    stream = streams.zipf_stream(
        keys, count, seed=stream_seed, exponent=1.0, swap_points=SWAP_POINTS
    )
    return Inputs((first, second), stream)


def _general(data: Any) -> Any:
    return build_index(data, tau_min=TAU_MIN, kind="general")


def _listing_shards(data: Any) -> Any:
    return build_sharded_index(data, shards=2, tau_min=TAU_MIN, query_executor="thread")


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "substring-sparse", _sparse_inputs, _general,
            replicated=False, warmup=600, check_rate=0.02,
        ),
        Workload(
            "substring-dense", _dense_inputs, _general,
            replicated=False, warmup=200, check_rate=0.5,
        ),
        Workload(
            "listing-churn", _churn_inputs, _listing_shards,
            replicated=True, warmup=600, check_rate=0.08,
        ),
    )
}


def engines_of(served: Any) -> List[Any]:
    """The engines behind what the service serves (replicas unwrapped)."""
    return served.engines if isinstance(served, ReplicaSet) else [served]


class Deployment:
    """One set-up of a workload: archives, the served engine, the service.

    ``recorder`` (traced runs only) receives a span per set-up step and per
    swap.  ``instrument`` is applied to every engine a swap loads, so a
    traced phase keeps tracing across swaps.
    """

    def __init__(
        self,
        workload: Workload,
        inputs: Inputs,
        workdir: Path,
        recorder: Optional[SpanRecorder] = None,
    ) -> None:
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.recorder = recorder
        self.instrument: Optional[Callable[[Any], None]] = None
        self.paths: List[Path] = []
        self.served: Any = None
        self.service: Optional[AsyncSearchService] = None
        self.app: Optional[SearchHttpApp] = None
        self.version = 0
        #: ``(loaded, swapped, version)``: the swap to ``version`` had its
        #: engine loaded at ``loaded`` and returned at ``swapped``.
        self.swaps: List[Tuple[float, float, int]] = []
        self.swap_seconds: List[float] = []
        self._caches: List[Any] = []
        self._swapper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="perfbench-swap")

    def _step(self, name: str) -> ContextManager[Any]:
        return nullcontext() if self.recorder is None else self.recorder.span(name)

    async def start(self) -> None:
        """Build, save, load and start serving (the timed set-up)."""
        with self._step("setup"):
            for version, data in enumerate(self.inputs.versions):
                with self._step("build"):
                    engine = self.workload.build(data)
                with self._step("persistence.save"):
                    self.paths.append(engine.save(self.workdir / f"v{version}"))
                close = getattr(engine, "close", None)
                if close is not None:
                    close()
            if self.workload.replicated:
                with self._step("replicas.load"):
                    self.served = ReplicaSet.load(self.paths[0], replicas=1, mmap=True)
            else:
                with self._step("persistence.load"):
                    self.served = load_index(self.paths[0], mmap=True)
            with self._step("service.start"):
                self.service = await AsyncSearchService(self.served).start()
                self.app = SearchHttpApp(self.service)
        self._caches.extend(engine.cache for engine in engines_of(self.served))

    def swap(self) -> None:
        """Swap the replica to the other archive (runs on the swap thread)."""
        target = 1 - self.version
        loaded = 0.0

        def build(slot: int) -> Any:
            nonlocal loaded
            with self._step("persistence.load"):
                engine = load_index(self.paths[target], mmap=True)
            if self.instrument is not None:
                self.instrument(engine)
            self._caches.append(engine.cache)
            loaded = perf_counter()
            return engine

        started = perf_counter()
        with self._step("replicas.swap"):
            self.served.swap(build)
        swapped = perf_counter()
        self.version = target
        self.swaps.append((loaded, swapped, target))
        self.swap_seconds.append(swapped - started)

    def start_swap(self) -> "asyncio.Future[None]":
        return asyncio.get_running_loop().run_in_executor(self._swapper, self.swap)

    def cache_totals(self) -> Tuple[int, int, int]:
        """Hits, misses and evictions summed over every cache ever served."""
        totals = [0, 0, 0]
        for cache in self._caches:
            stats = cache.stats()
            totals[0] += stats["hits"]
            totals[1] += stats["misses"]
            totals[2] += stats["evictions"]
        return totals[0], totals[1], totals[2]

    def index_bytes(self) -> int:
        return sum(engine.nbytes() for engine in engines_of(self.served))

    async def close(self) -> None:
        if self.service is not None:
            await self.service.stop()
        self._swapper.shutdown(wait=True)
        close = getattr(self.served, "close", None)
        if close is not None:
            close()
