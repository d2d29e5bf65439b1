"""Unit tests for the simulated HTTP layer."""

import time

import pytest

from repro.errors import HttpError
from repro.simnet.http import (
    HTTP_FORBIDDEN,
    HTTP_NOT_FOUND,
    HTTP_OK,
    HttpRequest,
    HttpResponse,
    HttpTransport,
    Router,
)
from repro.simnet.network import Network


def make_transport(blocking=False, network=None):
    network = network or Network(seed=3)
    router = Router()
    router.add(
        "GET",
        r"/hello/(?P<name>\w+)",
        lambda request, match: HttpResponse(
            body=f"hi {match.group('name')}"
        ),
    )
    router.add(
        "POST",
        r"/echo",
        lambda request, match: HttpResponse(
            body=request.params.get("message", "")
        ),
    )
    transport = HttpTransport(router, network, blocking=blocking)
    egress = network.create_egress()
    return transport, egress


class TestRouting:
    def test_basic_get(self):
        transport, egress = make_transport()
        response = transport.get("/hello/world", egress)
        assert response.status == HTTP_OK
        assert response.body == "hi world"

    def test_unknown_path_404(self):
        transport, egress = make_transport()
        assert transport.get("/nope", egress).status == HTTP_NOT_FOUND

    def test_method_mismatch_404(self):
        transport, egress = make_transport()
        assert transport.post("/hello/x", egress).status == HTTP_NOT_FOUND

    def test_post_with_params(self):
        transport, egress = make_transport()
        response = transport.post(
            "/echo", egress, params={"message": "ping"}
        )
        assert response.body == "ping"

    def test_partial_path_does_not_match(self):
        # Patterns are full-match: /hello/world/extra must 404.
        transport, egress = make_transport()
        assert transport.get("/hello/world/extra", egress).status == HTTP_NOT_FOUND


class TestResponse:
    def test_ok_property(self):
        assert HttpResponse(status=200).ok
        assert not HttpResponse(status=404).ok

    def test_raise_for_status(self):
        with pytest.raises(HttpError) as excinfo:
            HttpResponse(status=500).raise_for_status()
        assert excinfo.value.status == 500

    def test_raise_for_status_passthrough(self):
        response = HttpResponse(status=200)
        assert response.raise_for_status() is response


class TestRequestHeaders:
    def test_case_insensitive_header(self):
        request = HttpRequest(
            method="GET",
            path="/",
            client_ip="1.1.1.1",
            headers={"X-Session": "abc"},
        )
        assert request.header("x-session") == "abc"
        assert request.header("missing", "default") == "default"


class TestMiddleware:
    def test_middleware_can_short_circuit(self):
        transport, egress = make_transport()
        transport.add_middleware(
            lambda request: HttpResponse(status=HTTP_FORBIDDEN, body="no")
            if request.path.startswith("/hello")
            else None
        )
        assert transport.get("/hello/x", egress).status == HTTP_FORBIDDEN

    def test_middleware_pass_through(self):
        transport, egress = make_transport()
        seen = []
        transport.add_middleware(
            lambda request: seen.append(request.path) or None
        )
        response = transport.get("/hello/y", egress)
        assert response.ok
        assert seen == ["/hello/y"]

    def test_first_middleware_wins(self):
        transport, egress = make_transport()
        transport.add_middleware(
            lambda request: HttpResponse(status=401, body="first")
        )
        transport.add_middleware(
            lambda request: HttpResponse(status=403, body="second")
        )
        assert transport.get("/hello/z", egress).status == 401


class TestBlockingMode:
    def test_blocking_sleeps_roughly_the_latency(self):
        transport, egress = make_transport(blocking=True)
        started = time.perf_counter()
        transport.get("/hello/a", egress)
        elapsed = time.perf_counter() - started
        # Direct egress base latency 20 ms one-way -> ~40 ms RTT +- jitter.
        assert elapsed >= 0.025

    def test_non_blocking_is_fast(self):
        transport, egress = make_transport(blocking=False)
        started = time.perf_counter()
        for _ in range(50):
            transport.get("/hello/a", egress)
        assert time.perf_counter() - started < 0.5


class TestLatencySampling:
    """Only a blocking transport draws a round-trip sample, and it sleeps it."""

    def test_non_blocking_draws_no_sample(self, monkeypatch):
        network = Network(seed=3)

        def no_draw(egress):
            raise AssertionError("a non-blocking request drew a latency sample")

        monkeypatch.setattr(network.latency, "sample_rtt_s", no_draw)
        transport, egress = make_transport(blocking=False, network=network)
        assert transport.get("/hello/a", egress).body == "hi a"
        assert transport.get("/nope", egress).status == HTTP_NOT_FOUND

    def test_blocking_draws_one_sample_per_request(self, monkeypatch):
        network = Network(seed=3)
        drawn = []

        def tiny_rtt(egress):
            drawn.append(egress.ip.value)
            return 1e-4

        monkeypatch.setattr(network.latency, "sample_rtt_s", tiny_rtt)
        transport, egress = make_transport(blocking=True, network=network)
        assert transport.get("/hello/a", egress).ok
        assert drawn == [egress.ip.value]
