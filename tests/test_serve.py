"""The serve daemon end to end: real sockets, real frames, real sessions.

The acceptance contract: a trace fed over the socket answers with
measurements bit-for-bit identical to ``replay_failure_trace`` on the
same trace, malformed frames are rejected without dropping the
connection, graceful shutdown writes a byte-stable state dump that
round-trips, and tenants are isolated.
"""

from __future__ import annotations

import json

import pytest

from repro.online import (
    ControllerSession,
    LinkFailure,
    failure_recovery_trace,
    replay_failure_trace,
)
from repro.scenarios import single_link_failures
from repro.serve import ServeClient, ServeClientError, ServerThread, TEServer
from repro.serve.wire import (
    MAX_FRAME_BYTES,
    WireError,
    desanitize,
    dumps_state,
    parse_frame,
    sanitize,
)
from repro.topology.backbones import abilene_network, cernet2_network
from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix
from repro.traffic.gravity import gravity_traffic_matrix


def abilene_workload():
    network = abilene_network()
    demands = abilene_traffic_matrix(network, total_volume=1.0, seed=1).scaled(
        0.15 * network.total_capacity()
    )
    return network, demands


def cernet2_workload():
    network = cernet2_network()
    demands = gravity_traffic_matrix(network, 0.1 * network.total_capacity())
    return network, demands


def abilene_session():
    return ControllerSession(*abilene_workload())


@pytest.fixture
def server(tmp_path):
    dump_path = tmp_path / "state.json"
    session = abilene_session()
    te_server = TEServer({session.key: session}, state_dump_path=dump_path)
    with ServerThread(te_server) as runner:
        yield te_server, runner, dump_path


def connect(runner) -> ServeClient:
    return ServeClient("127.0.0.1", runner.port)


# ----------------------------------------------------------------------
# frame parsing (no socket)
# ----------------------------------------------------------------------
class TestParseFrame:
    def test_event_frame(self):
        frame = parse_frame(
            b'{"v": 1, "type": "event", "session": "x", '
            b'"event": {"v": 1, "event": "link-failure", "time": 0.0, '
            b'"link": ["a", "b"]}}'
        )
        assert frame.type == "event"
        assert frame.session == "x"
        assert isinstance(frame.event, LinkFailure)

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"not json", "invalid JSON"),
            (b'[1, 2]', "JSON object"),
            (b'{"v": 2, "type": "query", "query": "mlu"}', "protocol version"),
            (b'{"v": 1, "type": "wat"}', "unknown frame type"),
            (b'{"v": 1, "type": "query", "query": "wat"}', "unknown query"),
            (b'{"v": 1, "type": "query", "query": "forwarding"}', "destination"),
            (b'{"v": 1, "type": "control", "action": "wat"}', "control action"),
            (b'{"v": 1, "type": "event"}', "missing its 'event'"),
            (b'{"v": 1, "type": "event", "event": {"event": "wat", "time": 0}}',
             "unknown event kind"),
            (b'{"v": 1, "type": "query", "query": "mlu", "session": 7}',
             "'session' must be a string"),
        ],
    )
    def test_malformed_frames(self, line, message):
        with pytest.raises(WireError, match=message):
            parse_frame(line)


# ----------------------------------------------------------------------
# end to end: socket replay == batch replay, bit for bit
# ----------------------------------------------------------------------
class TestSocketReplayEquivalence:
    def test_socket_rows_match_batch_replay(self, server):
        _, runner, _ = server
        network, demands = abilene_workload()
        scenarios = single_link_failures(network)[:3]
        trace = failure_recovery_trace(network, scenarios, period=600.0, outage=300.0)
        batch = replay_failure_trace(
            network, demands, scenarios, period=600.0, outage=300.0
        )
        with connect(runner) as client:
            responses = client.feed_trace(trace)
            served_rows = [r["row"] for r in responses]
            served_mlu = client.mlu()
        assert served_rows == batch.session.event_rows()
        assert served_mlu == round(batch.final.mlu, 12)

    def test_forwarding_matches_batch_session(self, server):
        _, runner, _ = server
        network, demands = abilene_workload()
        scenarios = single_link_failures(network)[:1]
        trace = failure_recovery_trace(network, scenarios, period=600.0, outage=300.0)
        failures = [e for e in trace if e.kind == "link-failure"]
        batch_session = abilene_session()
        batch_session.feed_many(failures)
        destinations = sorted({str(t) for (_, t), _volume in demands.items()})
        with connect(runner) as client:
            client.feed_trace(failures)
            for destination in destinations:
                served = client.forwarding(destination)
                expected = batch_session.forwarding(
                    {str(n): n for n in network.nodes}[destination]
                )
                assert served["nodes"] == expected["nodes"]

    def test_status_and_counters_queries(self, server):
        _, runner, _ = server
        with connect(runner) as client:
            status = client.status()
            assert status["topology"] == "Abilene"
            assert status["events"] == 0
            counters = client.counters()
            assert counters["events"] == 0
            assert client.sessions() == ["Abilene"]


# ----------------------------------------------------------------------
# malformed frames over the socket
# ----------------------------------------------------------------------
class TestMalformedFrames:
    @pytest.mark.parametrize(
        "line",
        [
            b"not json at all",
            b'{"v": 99, "type": "query", "query": "mlu"}',
            b'{"v": 1, "type": "event", "event": {"v": 1, "event": "link-failure", '
            b'"time": 0.0, "link": ["a", "b"], "bogus": 1}}',
            # Schema-valid but names a link the topology does not have: the
            # domain error must come back as a response, not kill the feed.
            b'{"v": 1, "type": "event", "event": {"v": 1, "event": "link-failure", '
            b'"time": 0.0, "link": ["a", "b"]}}',
            b'{"v": 1, "type": "query", "query": "forwarding", "destination": "nope"}',
            b'{"v": 1, "type": "event", "session": "no-such-tenant", "event": '
            b'{"v": 1, "event": "noop", "time": 0.0}}',
        ],
    )
    def test_rejected_without_dropping_connection(self, server, line):
        _, runner, _ = server
        with connect(runner) as client:
            response = client.send_line(line)
            assert response["ok"] is False
            assert response["error"]
            # The same connection keeps answering.
            assert isinstance(client.mlu(), float)

    def test_error_frames_do_not_mutate_state(self, server):
        _, runner, _ = server
        with connect(runner) as client:
            before = client.counters()["events"]
            client.send_line(
                b'{"v": 1, "type": "event", "event": '
                b'{"v": 1, "event": "link-failure", "time": 0.0}}'
            )
            assert client.counters()["events"] == before

    def test_unexpected_session_error_answers_and_keeps_connection(
        self, server, monkeypatch
    ):
        te_server, runner, _ = server
        (session,) = te_server.sessions.values()

        def broken_reoptimize():
            raise ZeroDivisionError("solver blew up")

        monkeypatch.setattr(session, "reoptimize_offline", broken_reoptimize)
        with connect(runner) as client:
            response = client.request({"type": "control", "action": "reoptimize"})
            assert response["ok"] is False
            assert response["error"] == "internal: ZeroDivisionError: solver blew up"
            assert te_server.frames_error == 1
            # The same connection keeps answering.
            assert isinstance(client.mlu(), float)


# ----------------------------------------------------------------------
# graceful shutdown and the state dump
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_shutdown_writes_byte_stable_dump_that_round_trips(self, server):
        te_server, runner, dump_path = server
        network, _ = abilene_workload()
        scenarios = single_link_failures(network)[:1]
        trace = failure_recovery_trace(network, scenarios, period=600.0, outage=300.0)
        failures = [e for e in trace if e.kind == "link-failure"]
        with connect(runner) as client:
            client.feed_trace(failures)
            live_dump = client.dump()["Abilene"]
            assert client.shutdown()["stopping"] is True
        runner.stop()
        assert dump_path.exists()
        on_disk = json.loads(dump_path.read_text())
        assert list(on_disk) == ["Abilene"]
        # The dump served over the socket and the dump written at shutdown
        # describe the same state, byte for byte.
        assert dumps_state(on_disk["Abilene"]) == dumps_state(live_dump)
        restored = ControllerSession.from_state_dump(
            abilene_network(), on_disk["Abilene"]
        )
        assert dumps_state(restored.state_dump()["state"]) == dumps_state(
            on_disk["Abilene"]["state"]
        )

    def test_connection_refused_after_shutdown(self, server):
        _, runner, _ = server
        with connect(runner) as client:
            client.shutdown()
        runner.stop()
        with pytest.raises(OSError):
            connect(runner)


# ----------------------------------------------------------------------
# multi-tenancy
# ----------------------------------------------------------------------
class TestTwoTenantIsolation:
    @pytest.fixture
    def two_tenants(self, tmp_path):
        abilene = abilene_session()
        cernet2 = ControllerSession(*cernet2_workload())
        te_server = TEServer(
            {abilene.key: abilene, cernet2.key: cernet2},
            state_dump_path=tmp_path / "state.json",
        )
        with ServerThread(te_server) as runner:
            yield te_server, runner

    def test_session_required_when_ambiguous(self, two_tenants):
        _, runner = two_tenants
        with connect(runner) as client:
            assert client.sessions() == ["Abilene", "Cernet2"]
            with pytest.raises(ServeClientError, match="'session' is required"):
                client.mlu()

    def test_events_only_touch_their_tenant(self, two_tenants):
        _, runner = two_tenants
        abilene = abilene_network()
        scenarios = single_link_failures(abilene)[:1]
        trace = failure_recovery_trace(abilene, scenarios, period=600.0, outage=300.0)
        failures = [e for e in trace if e.kind == "link-failure"]
        with connect(runner) as client:
            cernet2_before = client.mlu(session="Cernet2")
            abilene_before = client.mlu(session="Abilene")
            client.feed_trace(failures, session="Abilene")
            assert client.mlu(session="Abilene") != abilene_before
            assert client.mlu(session="Cernet2") == cernet2_before
            assert client.counters(session="Cernet2")["events"] == 0
            assert client.counters(session="Abilene")["events"] == len(failures)

    def test_dump_covers_both_tenants(self, two_tenants):
        _, runner = two_tenants
        with connect(runner) as client:
            dumps = client.dump()
            assert sorted(dumps) == ["Abilene", "Cernet2"]
            only = client.dump(session="Cernet2")
            assert sorted(only) == ["Cernet2"]


# ----------------------------------------------------------------------
# wire sanitize/desanitize edge cases
# ----------------------------------------------------------------------
class TestWireSanitize:
    def test_nested_non_finite_floats_round_trip(self):
        payload = {
            "rows": [
                {"mlu": float("inf"), "samples": [float("nan"), -0.0, 1.5]},
                {"mlu": float("-inf"), "nested": {"deep": [{"v": float("inf")}]}},
            ],
            "plain": 2.25,
        }
        clean = sanitize(payload)
        # Strict JSON round trip: no inf/nan survives serialisation...
        blob = json.dumps(clean, sort_keys=True, allow_nan=False)
        restored = desanitize(json.loads(blob))
        # ...yet every non-finite value comes back bit-for-bit.
        assert restored["rows"][0]["mlu"] == float("inf")
        assert restored["rows"][1]["mlu"] == float("-inf")
        assert restored["rows"][1]["nested"]["deep"][0]["v"] == float("inf")
        nan = restored["rows"][0]["samples"][0]
        assert nan != nan
        assert restored["rows"][0]["samples"][1:] == [-0.0, 1.5]
        assert restored["plain"] == 2.25

    def test_sanitize_normalises_tuples_to_lists(self):
        assert sanitize({"pair": (1.0, float("nan"))}) == {"pair": [1.0, "NaN"]}

    def test_desanitize_leaves_ordinary_strings_alone(self):
        payload = {"note": "Infinity is mentioned, not encoded", "name": "NaN-like"}
        assert desanitize(payload) == payload

    def test_frame_at_max_frame_bytes_parses_and_one_over_rejects(self):
        skeleton = json.dumps(
            {"v": 1, "type": "query", "query": "mlu", "session": ""}, sort_keys=True
        ).encode("utf-8")
        padding = MAX_FRAME_BYTES - len(skeleton)
        line = json.dumps(
            {"v": 1, "type": "query", "query": "mlu", "session": "s" * padding},
            sort_keys=True,
        ).encode("utf-8")
        assert len(line) == MAX_FRAME_BYTES
        frame = parse_frame(line)
        assert frame.type == "query" and frame.query == "mlu"
        with pytest.raises(WireError, match="exceeds"):
            parse_frame(line + b" ")

    def test_dumps_state_round_trips_byte_for_byte(self):
        dump = {
            "weights": [1.0, float("inf"), 2.5],
            "residuals": [{"worst": float("nan")}, {"worst": -0.0}],
            "capacities": {"a": 1e9, "b": float("-inf")},
        }
        first = dumps_state(dump)
        # decode -> desanitize -> re-dump must reproduce identical bytes.
        assert dumps_state(desanitize(json.loads(first))) == first
