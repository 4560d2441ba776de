"""Tests for the LBS provider and the CSP answer cache (§VII)."""

import pytest

from repro import Point, Rect, ReproError
from repro.core.geometry import Circle
from repro.core.requests import AnonymizedRequest
from repro.lbs import AnswerCache, LBSProvider, generate_pois


@pytest.fixture
def region():
    return Rect(0, 0, 1000, 1000)


@pytest.fixture
def provider(region):
    return LBSProvider(generate_pois(region, {"rest": 80, "groc": 40}, seed=121))


def nn_request(rid=1, cloak=Rect(100, 100, 200, 200), category="rest"):
    return AnonymizedRequest(rid, cloak, (("poi", category),))


class TestProvider:
    def test_nn_serving(self, provider):
        answer = provider.serve(nn_request())
        assert answer.size >= 1
        assert all(p.category == "rest" for p in answer.candidates)

    def test_range_serving(self, provider, region):
        request = AnonymizedRequest(
            2, Rect(0, 0, 500, 500), (("poi", "groc"), ("range", "50"))
        )
        answer = provider.serve(request)
        window = Rect(0, 0, 550, 550)
        assert all(window.contains(p.location) for p in answer.candidates)
        assert all(p.category == "groc" for p in answer.candidates)

    @pytest.mark.parametrize(
        "margin",
        [
            "-400",  # negative: once served with no candidates
            "-1e6",  # negative and wider than the cloak
            "nan",
            "abc",
            "",
            "-inf",
            "inf",  # once served as the whole map
        ],
    )
    def test_bad_range_fails_closed(self, provider, margin):
        request = AnonymizedRequest(
            3, Rect(100, 100, 200, 200), (("poi", "rest"), ("range", margin))
        )
        with pytest.raises(ReproError, match="range payload"):
            provider.serve(request)
        assert provider.served == 0 and provider.billing == {}

    def test_zero_range_is_the_cloak(self, provider):
        cloak = Rect(100, 100, 400, 400)
        request = AnonymizedRequest(4, cloak, (("poi", "rest"), ("range", "0")))
        assert provider.serve(request).candidates == tuple(
            provider.pois.range_query(cloak, "rest")
        )

    def test_billing_counters(self, provider):
        provider.serve(nn_request(1, category="rest"))
        provider.serve(nn_request(2, category="rest"))
        provider.serve(nn_request(3, category="groc"))
        assert provider.billing == {"rest": 2, "groc": 1}
        assert provider.served == 3

    def test_missing_category_rejected(self, provider):
        with pytest.raises(ReproError, match="poi"):
            provider.serve(AnonymizedRequest(1, Rect(0, 0, 1, 1), ()))

    def test_circle_cloak_rejected(self, provider):
        request = AnonymizedRequest(
            1, Circle(Point(0, 0), 5), (("poi", "rest"),)
        )
        with pytest.raises(ReproError, match="rectangular"):
            provider.serve(request)


class TestCache:
    def test_hit_on_identical_cloak_and_payload(self, provider):
        cache = AnswerCache(provider)
        first = cache.fetch(nn_request(1))
        second = cache.fetch(nn_request(2))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert first.candidates == second.candidates
        # Each answer carries its own request id.
        assert first.request_id == 1 and second.request_id == 2
        # The LBS saw only one request — the duplicate was suppressed.
        assert provider.served == 1

    def test_miss_on_different_payload(self, provider):
        cache = AnswerCache(provider)
        cache.fetch(nn_request(1, category="rest"))
        cache.fetch(nn_request(2, category="groc"))
        assert cache.stats.misses == 2

    def test_miss_on_different_cloak(self, provider):
        cache = AnswerCache(provider)
        cache.fetch(nn_request(1, cloak=Rect(0, 0, 100, 100)))
        cache.fetch(nn_request(2, cloak=Rect(0, 0, 100, 200)))
        assert cache.stats.misses == 2

    def test_deferred_billing_and_flush(self, provider):
        cache = AnswerCache(provider)
        for rid in range(1, 5):
            cache.fetch(nn_request(rid))
        assert cache.deferred_billing == {"rest": 3}
        settled = cache.flush()
        assert settled == {"rest": 3}
        assert len(cache) == 0
        assert cache.deferred_billing == {}
        # After the flush the next identical request hits the LBS again.
        cache.fetch(nn_request(9))
        assert provider.served == 2

    def test_hit_rate(self, provider):
        cache = AnswerCache(provider)
        assert cache.stats.hit_rate == 0.0
        cache.fetch(nn_request(1))
        cache.fetch(nn_request(2))
        assert cache.stats.hit_rate == 0.5
