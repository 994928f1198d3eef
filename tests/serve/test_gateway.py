"""End-to-end HTTP tests for the JSON gateway.

The acceptance bar: POSTing a raw full-grid window to ``/forecast`` must
return merged demand **bit-identical** to calling the per-shard services
directly — JSON floats round-trip exactly (``repr`` ↔ parse), so HTTP adds
no numeric drift — including when one shard is fault-injected into its
degraded tier.
"""

import http.client
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.serve.gateway import MAX_BODY_BYTES, ForecastGateway

from .conftest import make_shard_router


def _post(url, payload, timeout=30):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as reply:
        return reply.status, json.loads(reply.read())


def _get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as reply:
        return reply.status, json.loads(reply.read())


@pytest.fixture
def gateway_factory(serve_dataset):
    """Yields a builder: router kwargs → a live gateway on an ephemeral port."""
    stack = []

    def build(**router_kwargs):
        router = make_shard_router(serve_dataset, **router_kwargs)
        gateway = ForecastGateway(router).start()
        stack.append((gateway, router))
        return gateway

    yield build
    for gateway, router in reversed(stack):
        gateway.stop()
        router.close()


class TestForecastRoute:
    def test_post_returns_demand_bit_identical_to_direct_calls(
        self, gateway_factory, raw_windows
    ):
        gateway = gateway_factory()
        window = raw_windows[0]
        status, payload = _post(f"{gateway.url}/forecast", {"window": window.tolist()})
        assert status == 200
        router = gateway.router
        served = np.array(payload["demand"])
        for region in router.regions:
            direct = router.services[region.name].predict_one(
                region.slice_window(window)
            )
            block = served[
                :, region.rows[0] : region.rows[1], region.cols[0] : region.cols[1]
            ]
            assert np.array_equal(block, direct.demand)
        assert payload["degraded"] is False
        assert payload["failed_shards"] == []
        assert [report["shard"] for report in payload["shards"]] == ["shard0", "shard1"]
        assert all(report["tier"] == "Primary" for report in payload["shards"])

    def test_fault_injected_shard_degrades_but_stays_bit_identical(
        self, gateway_factory, raw_windows
    ):
        gateway = gateway_factory(poisoned=("shard0",))
        window = raw_windows[0]
        status, payload = _post(f"{gateway.url}/forecast", {"window": window.tolist()})
        assert status == 200
        assert payload["degraded"] is True
        assert payload["failed_shards"] == []
        by_name = {report["shard"]: report for report in payload["shards"]}
        assert by_name["shard0"]["tier"] == "Floor" and by_name["shard0"]["degraded"]
        assert by_name["shard1"]["tier"] == "Primary"
        served = np.array(payload["demand"])
        router = gateway.router
        for region in router.regions:
            direct = router.services[region.name].predict_one(
                region.slice_window(window)
            )
            block = served[
                :, region.rows[0] : region.rows[1], region.cols[0] : region.cols[1]
            ]
            assert np.array_equal(block, direct.demand)

    def test_failed_shard_is_reported_not_fatal(self, gateway_factory, raw_windows):
        gateway = gateway_factory(failing=("shard0",))
        status, payload = _post(
            f"{gateway.url}/forecast", {"window": raw_windows[0].tolist()}
        )
        assert status == 200
        assert payload["failed_shards"] == ["shard0"]
        assert payload["degraded"] is True
        assert payload["shards"][0]["failed"] is True
        assert "shard down" in payload["shards"][0]["error"]
        assert np.array(payload["demand"]).shape == (2, 4, 4)

    def test_deadline_ms_is_forwarded(self, gateway_factory, raw_windows):
        gateway = gateway_factory()
        status, payload = _post(
            f"{gateway.url}/forecast",
            {"window": raw_windows[0].tolist(), "deadline_ms": 60_000},
        )
        assert status == 200
        assert payload["deadline_missed"] is False


class TestErrorHandling:
    def test_missing_window_field_is_400(self, gateway_factory):
        gateway = gateway_factory()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{gateway.url}/forecast", {"deadline_ms": 100})
        assert excinfo.value.code == 400
        assert "window" in json.loads(excinfo.value.read())["error"]

    def test_wrong_window_shape_is_400(self, gateway_factory):
        gateway = gateway_factory()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{gateway.url}/forecast", {"window": [[1.0, 2.0]]})
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "deadline_ms", ["soon", [100], True, float("nan"), float("inf"), -5, 10**400]
    )
    def test_invalid_deadline_ms_is_400(self, gateway_factory, raw_windows, deadline_ms):
        gateway = gateway_factory()
        rejected = obs_metrics.counter(
            "gateway_requests_total", route="/forecast", status="400"
        )
        before = rejected.value
        body = {"window": raw_windows[0].tolist(), "deadline_ms": deadline_ms}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{gateway.url}/forecast", body)
        assert excinfo.value.code == 400
        assert "deadline_ms" in json.loads(excinfo.value.read())["error"]
        # The handler counts just after it answers.
        waited = time.monotonic() + 5.0
        while rejected.value == before and time.monotonic() < waited:
            time.sleep(0.01)
        assert rejected.value == before + 1

    @pytest.mark.parametrize(
        "content_length, status",
        [
            (None, 400),
            ("many", 400),
            ("1.5", 400),
            ("-1", 400),
            (str(MAX_BODY_BYTES + 1), 413),
        ],
        ids=["missing", "non-integer", "fraction", "negative", "over-cap"],
    )
    def test_bad_content_length_is_rejected_before_reading(
        self, gateway_factory, content_length, status
    ):
        gateway = gateway_factory()
        rejected = obs_metrics.counter(
            "gateway_requests_total", route="/forecast", status=str(status)
        )
        before = rejected.value
        # Headers only: a gateway that tried to read a body would hang here.
        connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            connection.putrequest("POST", "/forecast")
            if content_length is not None:
                connection.putheader("Content-Length", content_length)
            connection.endheaders()
            reply = connection.getresponse()
            assert reply.status == status
            assert "error" in json.loads(reply.read())
        finally:
            connection.close()
        waited = time.monotonic() + 5.0
        while rejected.value == before and time.monotonic() < waited:
            time.sleep(0.01)
        assert rejected.value == before + 1

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -1.0]
    )
    def test_non_finite_window_is_400(self, gateway_factory, raw_windows, bad):
        gateway = gateway_factory()
        window = raw_windows[0].tolist()
        window[0][0][0][0] = bad  # json.dumps writes NaN/Infinity, json.loads reads them
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{gateway.url}/forecast", {"window": window})
        assert excinfo.value.code == 400
        assert "finite" in json.loads(excinfo.value.read())["error"]

    def test_non_json_body_is_400(self, gateway_factory):
        gateway = gateway_factory()
        request = urllib.request.Request(
            f"{gateway.url}/forecast", data=b"not json", headers={}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, gateway_factory):
        gateway = gateway_factory()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{gateway.url}/nope")
        assert excinfo.value.code == 404


class TestIntrospectionRoutes:
    def test_healthz_reports_shards_and_grid(self, gateway_factory):
        gateway = gateway_factory()
        status, payload = _get(f"{gateway.url}/healthz")
        assert status == 200
        assert payload == {"status": "ok", "shards": 2, "grid": [4, 4]}

    def test_shards_route_matches_router_describe(self, gateway_factory):
        gateway = gateway_factory()
        status, payload = _get(f"{gateway.url}/shards")
        assert status == 200
        assert payload["shards"] == gateway.router.describe()


class TestTraceLinkage:
    def test_gateway_router_shard_spans_nest_into_one_trace(
        self, gateway_factory, raw_windows
    ):
        gateway = gateway_factory()
        tracing.start_recording()
        try:
            _post(f"{gateway.url}/forecast", {"window": raw_windows[0].tolist()})
            records = tracing.recent()
        finally:
            tracing.stop_recording()
            tracing.reset()
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        (gateway_span,) = by_name["gateway.request"]
        (route_span,) = by_name["serve.route"]
        (request_span,) = by_name["serve.request"]
        shard_spans = by_name["serve.shard"]
        assert route_span["parent_id"] == gateway_span["span_id"]
        assert request_span["parent_id"] == route_span["span_id"]
        # One span per region, started on the router's worker from the
        # request's context and named after its shard and answering tier.
        assert [span["attributes"]["shard"] for span in shard_spans] == [
            region.name for region in gateway.router.regions
        ]
        assert {span["parent_id"] for span in shard_spans} == {request_span["span_id"]}
        assert all(span["attributes"]["tier"] == "Primary" for span in shard_spans)
        assert {span["thread"] for span in shard_spans} == {"repro-serve-batcher"}
        # The request lifecycle is one trace end to end. (Worker-side
        # serve.batch/serve.tier spans are deliberate separate roots: one
        # coalesced batch may serve many traces.)
        lifecycle = [gateway_span, route_span, request_span, *shard_spans]
        assert {span["trace_id"] for span in lifecycle} == {gateway_span["trace_id"]}

    def test_answer_names_its_trace_and_shard_generations(
        self, gateway_factory, raw_windows
    ):
        from .conftest import ConstantForecaster

        gateway = gateway_factory()
        service = gateway.router.services["shard1"]
        service.swap_primary(ConstantForecaster(service.horizon, 0.2))
        body = {"window": raw_windows[0].tolist()}
        _, untraced = _post(f"{gateway.url}/forecast", body)
        tracing.start_recording()
        try:
            _, traced = _post(f"{gateway.url}/forecast", body)
            records = tracing.recent()
        finally:
            tracing.stop_recording()
            tracing.reset()
        (gateway_span,) = [r for r in records if r["name"] == "gateway.request"]
        assert untraced["trace_id"] is None
        assert traced["trace_id"] == gateway_span["trace_id"]
        for payload in (untraced, traced):
            assert [r["generation"] for r in payload["shards"]] == [0, 1]


class _StubController:
    """Just enough of an AdaptationController for the status surface."""

    def __init__(self, state="idle", swapped=0):
        self._state = state
        self._swapped = swapped

    def status(self):
        return {"state": self._state, "swapped": self._swapped}


class TestAdaptationRoute:
    def test_without_controllers_reports_disabled(self, gateway_factory):
        gateway = gateway_factory()
        status, payload = _get(f"{gateway.url}/adaptation")
        assert status == 200
        assert payload["enabled"] is False
        assert payload["shards"] == {}
        # Serving generations are reported regardless of adaptation.
        assert set(payload["generations"]) == {"shard0", "shard1"}
        assert all(g == 0 for g in payload["generations"].values())

    def test_attached_controllers_surface_their_status(self, gateway_factory):
        gateway = gateway_factory()
        gateway.router.attach_adaptation(
            {"shard0": _StubController(state="cooldown", swapped=2)}
        )
        status, payload = _get(f"{gateway.url}/adaptation")
        assert status == 200
        assert payload["enabled"] is True
        assert payload["shards"] == {"shard0": {"state": "cooldown", "swapped": 2}}

    def test_unknown_shard_name_is_rejected(self, gateway_factory):
        gateway = gateway_factory()
        with pytest.raises(ValueError, match="no shard"):
            gateway.router.attach_adaptation({"nope": _StubController()})

    def test_generation_moves_are_visible_per_shard(self, gateway_factory):
        from .conftest import ConstantForecaster

        gateway = gateway_factory()
        service = gateway.router.services["shard1"]
        service.swap_primary(ConstantForecaster(service.horizon, 0.2))
        _, payload = _get(f"{gateway.url}/adaptation")
        assert payload["generations"] == {"shard0": 0, "shard1": 1}
