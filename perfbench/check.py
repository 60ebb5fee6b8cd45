"""Answer check: a seeded sample of served answers against the oracle.

Whether request ``i`` of the stream is checked depends only on the seed
and ``i``, so the same seed checks the same request indices whatever the
timing, ``--seconds`` or ``--trace``.  Each sampled response body is
compared with :class:`repro.core.baseline.BruteForceOracle` outside the
timed phases.  Identifiers must agree exactly and values to a relative
``1e-9``; the one tolerance is a match whose oracle value lies within
``1e-9`` of the threshold, which either side may report (the indexes
compare in log space, the oracle in linear space).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import BruteForceOracle, ListingMatch, Occurrence
from repro.strings import UncertainString, UncertainStringCollection

from .streams import RequestStream

TOLERANCE = 1e-9

OracleMatch = Union[Occurrence, ListingMatch]


@dataclass(frozen=True)
class Served:
    """One answered request: stream index, send and answer instants, body."""

    index: int
    sent: float
    answered: float
    body: bytes


class AnswerSample:
    """Served answers of a seeded share ``rate`` of the stream indices.

    Index ``i`` is kept when the ``i``-th draw of a generator seeded with
    ``seed`` is below ``rate``; the draws are prefix-stable, so the choice
    of ``i`` does not depend on the stream length.
    """

    def __init__(self, rate: float, seed: int, length: int) -> None:
        self._chosen = np.random.default_rng(seed).random(length) < rate
        self.items: List[Served] = []

    def offer(self, item: Served) -> None:
        if self._chosen[item.index]:
            self.items.append(item)


def _value(match: OracleMatch) -> float:
    return match.probability if isinstance(match, Occurrence) else match.relevance


def _wire_pairs(matches: Sequence[Mapping[str, Any]]) -> Dict[int, float]:
    if matches and "document" in matches[0]:
        return {match["document"]: match["relevance"] for match in matches}
    return {match["position"]: match["probability"] for match in matches}


def _oracle_pairs(matches: Sequence[OracleMatch]) -> Dict[int, float]:
    return {
        (match.position if isinstance(match, Occurrence) else match.document): _value(match)
        for match in matches
    }


def compare(
    served: Sequence[Mapping[str, Any]], expected: Sequence[OracleMatch], tau: float
) -> Optional[str]:
    """``None`` when the wire ``served`` matches are a correct answer at ``tau``."""
    got = _wire_pairs(served)
    want = _oracle_pairs(expected)
    if len(got) != len(served):
        return "duplicate identifiers in the served answer"
    for identifier in sorted(set(got) | set(want)):
        if identifier in got and identifier in want:
            if not math.isclose(got[identifier], want[identifier], rel_tol=TOLERANCE):
                return f"id {identifier}: served {got[identifier]!r}, oracle {want[identifier]!r}"
            continue
        value = want[identifier] if identifier in want else got[identifier]
        if abs(value - tau) > TOLERANCE * max(1.0, tau):
            side = "missing" if identifier in want else "unexpected"
            return f"id {identifier} {side} (value {value!r}, tau {tau!r})"
    return None


class Oracle:
    """Brute-force answers for each version of the indexed data.

    The oracle is asked once per ``(version, pattern)``, at ``floor`` (the
    lowest threshold any request uses); the answer at a higher ``tau`` is
    the matches whose value exceeds it.  A match within rounding of
    ``tau`` may fall on either side, which :func:`compare` tolerates.
    """

    def __init__(
        self,
        versions: Sequence[Union[UncertainString, UncertainStringCollection]],
        floor: float,
    ) -> None:
        self._floor = floor
        self._oracles = [
            (BruteForceOracle(collection=data), True)
            if isinstance(data, UncertainStringCollection)
            else (BruteForceOracle(string=data), False)
            for data in versions
        ]
        self._memo: Dict[Tuple[int, str], List[OracleMatch]] = {}

    def answer(self, version: int, pattern: str, tau: float) -> List[OracleMatch]:
        if tau < self._floor:
            raise ValueError(f"tau {tau!r} is below the oracle floor {self._floor!r}")
        key = (version, pattern)
        if key not in self._memo:
            oracle, listing = self._oracles[version]
            self._memo[key] = (
                oracle.listing_matches(pattern, self._floor)
                if listing
                else oracle.substring_occurrences(pattern, self._floor)
            )
        return [match for match in self._memo[key] if _value(match) > tau]


def versions_during(
    swaps: Sequence[Tuple[float, float, int]], sent: float, answered: float
) -> List[int]:
    """Data versions served at some instant of ``[sent, answered]``.

    Version 0 is served first; ``swaps`` lists ``(loaded, swapped,
    version)`` per swap, in order.  Between a swap's load and its return
    the replica slot is repointed at a moment the benchmark does not
    observe, so both versions count as served then.
    """
    versions = set()
    begin = float("-inf")
    current = 0
    for loaded, swapped, target in swaps:
        if begin <= answered and swapped >= sent:
            versions.add(current)
        begin, current = loaded, target
    if begin <= answered:
        versions.add(current)
    return sorted(versions)


def check_answers(
    sample: Sequence[Served],
    stream: RequestStream,
    oracle: Oracle,
    swaps: Sequence[Tuple[float, float, int]],
) -> List[str]:
    """Mismatch descriptions for the sampled answers (empty: all correct).

    Each answer must equal the oracle's for one of the versions served
    while the request was in flight (see :func:`versions_during`).
    """
    problems = []
    for served in sample:
        pattern, tau = stream.request(served.index)
        payload = json.loads(served.body)
        if payload.get("pattern") != pattern or payload.get("tau") != tau:
            problems.append(f"request {served.index}: echoed {payload.get('pattern')!r}")
            continue
        if payload.get("count") != len(payload.get("matches", ())):
            problems.append(f"request {served.index}: count does not match the matches")
            continue
        outcomes = []
        for version in versions_during(swaps, served.sent, served.answered):
            outcome = compare(payload["matches"], oracle.answer(version, pattern, tau), tau)
            if outcome is None:
                break
            outcomes.append(outcome)
        else:
            problems.append(f"request {served.index} ({pattern!r}, tau={tau}): {outcomes}")
    return problems
