"""Listener hardening: shared-secret auth and pending-queue backpressure."""

import time

import pytest

from repro.engine.registry import scenario, unregister
from repro.engine.spec import ScenarioSpec
from repro.service.backend import LocalBackend
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import BackgroundServer, ScenarioServer

SLOW_S = 0.5


@pytest.fixture(scope="module", autouse=True)
def hardening_scenarios():
    @scenario("_hd_fast", params={"n": 2})
    def _fast(n=2):
        return {"rows": [{"i": i} for i in range(n)],
                "verdict": {"ok": True}}

    @scenario("_hd_slow", params={"delay": SLOW_S})
    def _slow(delay=SLOW_S):
        time.sleep(delay)
        return {"rows": [{"slept": delay}], "verdict": {"ok": True}}

    yield
    for name in ("_hd_fast", "_hd_slow"):
        unregister(name)


def guarded_server(**kwargs):
    return BackgroundServer(
        server=ScenarioServer(LocalBackend(), port=0,
                              **kwargs)
    )


class TestAuth:
    def test_tokenless_frames_get_a_structured_error(self):
        with guarded_server(auth_token="s3cret") as bg:
            with ServiceClient(bg.host, bg.port, timeout=10) as client:
                with pytest.raises(ServiceError) as info:
                    client.ping()
                assert info.value.code == "unauthorized"

    def test_wrong_token_rejected_but_connection_survives(self):
        with guarded_server(auth_token="s3cret") as bg:
            with ServiceClient(bg.host, bg.port, timeout=10,
                               auth_token="wrong") as client:
                with pytest.raises(ServiceError) as info:
                    client.ping()
                assert info.value.code == "unauthorized"
                # same connection, right token now: accepted
                client.auth_token = "s3cret"
                assert client.ping()

    def test_matching_token_submits_normally(self):
        with guarded_server(auth_token="s3cret") as bg:
            with ServiceClient(bg.host, bg.port, timeout=30,
                               auth_token="s3cret") as client:
                results = client.submit([ScenarioSpec("_hd_fast")])
                assert results[0].ok

    def test_open_listener_ignores_stray_tokens(self):
        with guarded_server() as bg:
            with ServiceClient(bg.host, bg.port, timeout=30,
                               auth_token="whatever") as client:
                assert client.ping()


class TestBackpressure:
    """Deterministic choreography: a slow job occupies the 1-spec cap
    (its ack is read synchronously, so the server definitely holds it)
    while a contender submits against the full queue."""

    @staticmethod
    def _occupy(client):
        from repro.service import protocol

        client.send(
            protocol.make_submit([ScenarioSpec("_hd_slow").to_dict()])
        )
        ack = client._recv_checked()
        assert ack["type"] == "ack"

    @staticmethod
    def _drain(client):
        results = []
        while True:
            frame = client._recv_checked()
            if frame["type"] == "done":
                return results
            results.append(frame["result"])

    def test_over_limit_submit_is_rejected_busy_with_detail(self):
        with guarded_server(max_pending=1) as bg:
            with ServiceClient(bg.host, bg.port, timeout=30) as blocker, \
                 ServiceClient(bg.host, bg.port, timeout=30,
                               busy_retries=0) as second:
                self._occupy(blocker)
                with pytest.raises(ServiceError) as info:
                    second.submit([ScenarioSpec("_hd_fast")])
                assert info.value.code == "busy"
                assert info.value.detail == {
                    "pending": 1, "submitted": 1, "max_pending": 1
                }
                self._drain(blocker)

    def test_capacity_frees_once_the_job_completes(self):
        with guarded_server(max_pending=1) as bg:
            with ServiceClient(bg.host, bg.port, timeout=30) as client:
                self._occupy(client)
                assert len(self._drain(client)) == 1
                # nothing pends anymore: the same cap admits new work
                results = client.submit([ScenarioSpec("_hd_fast")])
                assert results[0].ok

    def test_busy_client_retries_with_backoff_until_admitted(self):
        with guarded_server(max_pending=1) as bg:
            blocker = ServiceClient(bg.host, bg.port, timeout=60)
            self._occupy(blocker)
            with ServiceClient(bg.host, bg.port, timeout=60,
                               busy_retries=8) as contender:
                start = time.monotonic()
                results = contender.submit([ScenarioSpec("_hd_fast")])
                elapsed = time.monotonic() - start
            assert results[0].ok
            # it could not have been admitted instantly: at least one
            # backoff sleep happened while the slow job held the cap
            assert elapsed >= 0.05
            self._drain(blocker)
            blocker.close()

    def test_sweep_expansion_counts_against_the_cap(self):
        with guarded_server(max_pending=4) as bg:
            with ServiceClient(bg.host, bg.port, timeout=30,
                               busy_retries=0) as client:
                with pytest.raises(ServiceError) as info:
                    client.submit(
                        [ScenarioSpec("_hd_fast")],
                        sweep={"n": [1, 2, 3, 4, 5]},
                    )
                assert info.value.code == "busy"
                assert info.value.detail["submitted"] == 5
