import numpy as np

from perfbench import streams


def test_same_seed_same_stream_other_seed_other_stream():
    text = "ACDEFGHIKLMNPQRSTVWY" * 50

    def requests(seed):
        stream = streams.uniform_stream(
            text, 500, seed=seed, min_length=4, max_length=50, taus=streams.COARSE_TAUS
        )
        return [stream.request(index) for index in range(500)]

    assert requests(7) == requests(7)
    assert requests(7) != requests(8)


def test_streams_are_prefix_stable():
    text = "ACDEFGHIKLMNPQRSTVWY" * 50
    short, long = (
        streams.uniform_stream(
            text, count, seed=4, min_length=4, max_length=50, taus=streams.COARSE_TAUS
        )
        for count in (300, 5000)
    )
    assert [short.request(i) for i in range(300)] == [long.request(i) for i in range(300)]
    keys = [(f"P{rank:04d}", 0.1) for rank in range(100)]
    short, long = (streams.zipf_stream(keys, count, seed=4, exponent=1.0) for count in (300, 5000))
    assert [short.request(i) for i in range(300)] == [long.request(i) for i in range(300)]


def test_uniform_stream_respects_lengths_grid_and_text():
    text = "ACGT" * 100
    stream = streams.uniform_stream(
        text, 2000, seed=1, min_length=2, max_length=4, taus=streams.FINE_TAUS
    )
    for index in range(len(stream)):
        pattern, tau = stream.request(index)
        assert 2 <= len(pattern) <= 4
        assert pattern in text
        assert tau in streams.FINE_TAUS
    assert stream.swap_points == ()
    assert stream.target(0).startswith("/search?pattern=")


def test_length_weights_skew_the_length_draw():
    stream = streams.uniform_stream(
        "ACGT" * 100, 4000, seed=2, min_length=2, max_length=4,
        taus=streams.COARSE_TAUS, length_weights=(2.0, 1.0, 1.0),
    )
    counts = np.bincount(stream.lengths, minlength=5)
    assert counts[2] + counts[3] + counts[4] == 4000
    assert 0.47 < counts[2] / 4000 < 0.53
    assert 0.22 < counts[4] / 4000 < 0.28


def test_fine_grid_spans_the_coarse_range():
    assert streams.FINE_TAUS[0] == 0.1 and streams.FINE_TAUS[-1] == 0.5
    assert len(set(streams.FINE_TAUS)) == 401


def test_zipf_stream_is_skewed_towards_low_ranks():
    keys = [(f"P{rank:04d}", 0.1) for rank in range(1000)]
    stream = streams.zipf_stream(keys, 20000, seed=3, exponent=1.0, swap_points=(10, 20))
    counts = {}
    for index in range(len(stream)):
        pattern, _ = stream.request(index)
        counts[pattern] = counts.get(pattern, 0) + 1
    assert counts["P0000"] > counts.get("P0010", 0) > counts.get("P0999", 0)
    # Rank 1 carries 1 / H(1000) ≈ 13% of the draws at exponent 1.
    assert 0.11 < counts["P0000"] / len(stream) < 0.15
    assert stream.swap_points == (10, 20)


def test_listing_keys_are_distinct_substrings_of_documents():
    first, second = streams.collection_versions(600, seed=5, replaced_fraction=0.1)
    keys = streams.listing_keys(
        first, 200, seed=2, min_length=3, max_length=8, taus=streams.COARSE_TAUS
    )
    assert len(set(keys)) == 200
    backbones = [document.most_likely_string() for document in first]
    for pattern, tau in keys:
        assert 3 <= len(pattern) <= 8 and tau in streams.COARSE_TAUS
        assert any(pattern in backbone for backbone in backbones)


def test_collection_versions_replace_a_fraction_of_same_length_documents():
    first, second = streams.collection_versions(1500, seed=11, replaced_fraction=0.1)
    assert len(first) == len(second)
    assert [len(document) for document in first] == [len(document) for document in second]
    changed = sum(a is not b for a, b in zip(first, second))
    assert changed == max(1, int(len(first) * 0.1))


def test_inputs_are_reproducible_from_the_seed():
    assert streams.sub_seeds(4, 3) == streams.sub_seeds(4, 3)
    assert streams.sub_seeds(4, 3) != streams.sub_seeds(5, 3)
    a = streams.nucleotide_string(200, seed=9)
    b = streams.nucleotide_string(200, seed=9)
    assert a.most_likely_string() == b.most_likely_string()
    assert set(a.most_likely_string()) <= set("ACGT")
    assert np.isclose(a.uncertainty_fraction, 0.3, atol=0.01)
