"""Seeded inputs and request streams for the benchmark workloads.

Everything a run sends to ``repro`` is derived here from the workload seed:
the indexed string or document collections, the request stream (pattern
and threshold of request ``i``) and the request counts at which the
listing workload swaps archives.  ``repro`` receives only these results;
nothing in this module times or calls the system under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets import SyntheticConfig, generate_collection, generate_uncertain_string
from repro.strings import UncertainString, UncertainStringCollection

#: Coarse threshold grid (the paper's τ range) for sparse and listing keys.
COARSE_TAUS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)

#: Fine threshold grid for the dense workload: 401 values, so its few
#: hundred short patterns still spread over ≫ 1024 cache keys.
FINE_TAUS: Tuple[float, ...] = tuple(round(0.1 + 0.001 * step, 3) for step in range(401))


@dataclass(frozen=True)
class RequestStream:
    """The requests of one run, in the order clients take them.

    Request ``i`` asks for ``text[starts[i] : starts[i] + lengths[i]]`` at
    threshold ``taus[i]``.  ``swap_points`` are the counts of completed
    requests, within a measured phase, at which an archive swap starts.
    """

    text: str
    starts: np.ndarray
    lengths: np.ndarray
    taus: np.ndarray
    swap_points: Tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.starts)

    def request(self, index: int) -> Tuple[str, float]:
        """Pattern and threshold of request ``index``."""
        start = int(self.starts[index])
        return self.text[start : start + int(self.lengths[index])], float(self.taus[index])

    def target(self, index: int) -> str:
        """The ``GET /search`` target of request ``index``."""
        pattern, tau = self.request(index)
        return f"/search?pattern={pattern}&tau={tau!r}"


def sub_seeds(seed: int, count: int) -> List[int]:
    """``count`` independent 31-bit seeds derived from the workload seed."""
    return [
        int(child.generate_state(1)[0] & 0x7FFFFFFF)
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


def uniform_stream(
    text: str,
    count: int,
    *,
    seed: int,
    min_length: int,
    max_length: int,
    taus: Sequence[float],
    length_weights: Optional[Sequence[float]] = None,
) -> RequestStream:
    """Patterns drawn uniformly from ``text`` (lengths and start positions),
    thresholds uniformly from ``taus``.  ``length_weights`` (one per length
    from ``min_length`` to ``max_length``) skews the length draw.

    Lengths, starts and thresholds each come from their own generator, so
    request ``i`` does not depend on ``count``: a longer stream only
    appends requests.
    """
    length_rng, start_rng, tau_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)
    )
    if length_weights is None:
        lengths = length_rng.integers(min_length, max_length + 1, size=count)
    else:
        weights = np.asarray(length_weights, dtype=np.float64)
        draws = length_rng.choice(len(weights), size=count, p=weights / weights.sum())
        lengths = min_length + draws
    starts = (start_rng.random(count) * (len(text) - lengths + 1)).astype(np.int64)
    tau_values = np.asarray(taus, dtype=np.float64)[tau_rng.integers(0, len(taus), size=count)]
    return RequestStream(text, starts, lengths, tau_values)


def zipf_stream(
    keys: Sequence[Tuple[str, float]],
    count: int,
    *,
    seed: int,
    exponent: float,
    swap_points: Tuple[int, ...] = (),
) -> RequestStream:
    """Requests drawn from ``keys`` with Zipf popularity (rank ``r`` has
    weight ``r ** -exponent``, ranks in the order given).  One draw per
    request, so request ``i`` does not depend on ``count``."""
    rng = np.random.default_rng(seed)
    patterns = [pattern for pattern, _ in keys]
    lengths = np.asarray([len(pattern) for pattern in patterns], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    weights = np.arange(1, len(keys) + 1, dtype=np.float64) ** -exponent
    draws = rng.choice(len(keys), size=count, p=weights / weights.sum())
    tau_values = np.asarray([tau for _, tau in keys], dtype=np.float64)
    return RequestStream(
        "".join(patterns),
        offsets[draws],
        lengths[draws],
        tau_values[draws],
        swap_points=swap_points,
    )


def protein_string(length: int, *, seed: int) -> UncertainString:
    """The paper's synthetic protein recipe at θ = 0.3."""
    return generate_uncertain_string(length, theta=0.3, seed=seed)


def nucleotide_string(length: int, *, seed: int) -> UncertainString:
    """The same recipe over a uniform 4-letter backbone."""
    rng = np.random.default_rng(seed)
    backbone = "".join(rng.choice(list("ACGT"), size=length))
    return generate_uncertain_string(
        length,
        config=SyntheticConfig(theta=0.3, alphabet="ACGT"),
        seed=int(rng.integers(0, 2**31 - 1)),
        base_sequence=backbone,
    )


def collection_versions(
    total_positions: int, *, seed: int, replaced_fraction: float
) -> Tuple[UncertainStringCollection, UncertainStringCollection]:
    """Two versions of one document collection.

    The second replaces ``replaced_fraction`` of the documents by freshly
    generated ones of the same length, so both versions cost the same to
    serve while answers differ for patterns from the replaced documents.
    """
    first = generate_collection(total_positions, theta=0.3, seed=seed)
    rng = np.random.default_rng(seed + 1)
    documents = list(first)
    replaced = rng.choice(
        len(documents), size=max(1, int(len(documents) * replaced_fraction)), replace=False
    )
    for document in sorted(int(value) for value in replaced):
        documents[document] = generate_uncertain_string(
            len(documents[document]), theta=0.3, seed=int(rng.integers(0, 2**31 - 1))
        )
    return first, UncertainStringCollection(documents)


def listing_keys(
    collection: UncertainStringCollection,
    count: int,
    *,
    seed: int,
    min_length: int,
    max_length: int,
    taus: Sequence[float],
) -> List[Tuple[str, float]]:
    """``count`` distinct ``(pattern, tau)`` keys from the collection's
    most likely document realizations, in a seeded random rank order."""
    rng = np.random.default_rng(seed)
    backbones = [document.most_likely_string() for document in collection]
    keys: List[Tuple[str, float]] = []
    seen = set()
    while len(keys) < count:
        backbone = backbones[int(rng.integers(0, len(backbones)))]
        length = int(rng.integers(min_length, max_length + 1))
        start = int(rng.integers(0, len(backbone) - length + 1))
        key = (backbone[start : start + length], float(taus[int(rng.integers(0, len(taus)))]))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys
