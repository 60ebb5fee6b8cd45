import numpy as np

from perfbench.check import AnswerSample, Oracle, Served, check_answers, compare, versions_during
from perfbench.streams import RequestStream
from repro import ListingMatch, Occurrence, UncertainString


def test_compare_accepts_equal_answers_and_boundary_matches_only():
    expected = [Occurrence(1, 0.5), Occurrence(4, 0.3 + 1e-12)]
    served = [{"position": 1, "probability": 0.5}]
    # Position 4 sits within 1e-9 of tau = 0.3: either side may report it.
    assert compare(served, expected, 0.3) is None
    assert compare(served + [{"position": 4, "probability": 0.3 + 1e-12}], expected, 0.3) is None
    assert "missing" in compare([], expected, 0.3)
    assert "unexpected" in compare(served + [{"position": 9, "probability": 0.7}], expected, 0.3)
    assert "oracle" in compare([{"position": 1, "probability": 0.51}], expected[:1], 0.3)


def test_compare_reads_listing_answers():
    expected = [ListingMatch(0, 0.8), ListingMatch(3, 0.4)]
    served = [{"document": 0, "relevance": 0.8}, {"document": 3, "relevance": 0.4}]
    assert compare(served, expected, 0.2) is None
    assert compare(served[:1], expected, 0.2) is not None


def test_answer_sample_chooses_indices_from_the_seed_alone():
    def fill(seed, length, order):
        sample = AnswerSample(0.1, seed, length)
        for index in order:
            sample.offer(Served(index, 0.0, 0.0, b""))
        return sorted(item.index for item in sample.items)

    forward = fill(1, 1000, range(1000))
    assert forward == fill(1, 1000, reversed(range(1000)))
    assert forward != fill(2, 1000, range(1000))
    assert 50 < len(forward) < 150
    # A longer stream (more --seconds, or a traced phase) keeps the choice.
    assert fill(1, 5000, range(1000)) == forward


def test_versions_during_counts_both_versions_inside_a_swap():
    swaps = [(10.0, 11.0, 1), (20.0, 21.0, 0)]
    assert versions_during([], 0.0, 100.0) == [0]
    assert versions_during(swaps, 1.0, 2.0) == [0]
    assert versions_during(swaps, 10.5, 10.6) == [0, 1]
    assert versions_during(swaps, 12.0, 13.0) == [1]
    assert versions_during(swaps, 9.0, 12.0) == [0, 1]
    assert versions_during(swaps, 25.0, 26.0) == [0]


def _stream(text, patterns):
    starts = np.asarray([text.index(pattern) for pattern, _ in patterns])
    lengths = np.asarray([len(pattern) for pattern, _ in patterns])
    taus = np.asarray([tau for _, tau in patterns])
    return RequestStream(text, starts, lengths, taus)


def test_check_answers_flags_a_wrong_answer():
    string = UncertainString([{"A": 0.6, "C": 0.4}, {"T": 1.0}, {"A": 0.5, "G": 0.5}])
    stream = _stream("AT", [("AT", 0.3)])
    right = (
        b'{"pattern": "AT", "tau": 0.3, "count": 1,'
        b' "matches": [{"position": 0, "probability": 0.6}]}'
    )
    wrong = b'{"pattern": "AT", "tau": 0.3, "count": 0, "matches": []}'
    oracle = Oracle([string], 0.1)
    assert check_answers([Served(0, 0.0, 1.0, right)], stream, oracle, []) == []
    assert len(check_answers([Served(0, 0.0, 1.0, wrong)], stream, oracle, [])) == 1


def test_oracle_filters_the_floor_answer_by_tau():
    string = UncertainString([{"A": 0.6, "C": 0.4}, {"T": 1.0}, {"A": 0.5, "G": 0.5}, {"T": 1.0}])
    oracle = Oracle([string], 0.1)
    assert [match.position for match in oracle.answer(0, "AT", 0.1)] == [0, 2]
    assert [match.position for match in oracle.answer(0, "AT", 0.55)] == [0]
    assert oracle.answer(0, "AT", 0.7) == []
