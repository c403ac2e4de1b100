//! Serving-contract test: an in-process [`Daemon`] on an ephemeral port must
//! answer a mixed query batch **byte-identically** to batch [`ModelBackend`]
//! solves of the same operating points, serve the whole second pass from its
//! solve cache, answer `stats`, survive malformed and out-of-model input
//! without dying, and drain cleanly on the wire `shutdown` op.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use star_wormhole::serve::protocol::{query_line, Query, SolveMode};
use star_wormhole::serve::{Daemon, ServeConfig, ServerState};
use star_wormhole::{
    encode_estimate, load_rate_grid, Discipline, Evaluator as _, ModelBackend, Scenario,
    TopologyKind, WireScenario,
};

/// Binds a daemon on an ephemeral loopback port and runs it on a thread.
fn spawn_daemon() -> (SocketAddr, Arc<ServerState>, JoinHandle<std::io::Result<()>>) {
    spawn_daemon_with(ServeConfig::default())
}

/// [`spawn_daemon`] with explicit tuning (prewarm lists, connection budgets).
fn spawn_daemon_with(
    config: ServeConfig,
) -> (SocketAddr, Arc<ServerState>, JoinHandle<std::io::Result<()>>) {
    let daemon = Daemon::bind(config).expect("bind an ephemeral port");
    let addr = daemon.local_addr();
    let state = daemon.state();
    (addr, state, thread::spawn(move || daemon.run()))
}

/// A line-delimited JSON client over one connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the daemon");
        stream.set_nodelay(true).expect("set nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        Self { reader, writer: stream }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("write request");
        self.writer.write_all(b"\n").expect("write newline");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "daemon closed the connection early");
        assert!(line.ends_with('\n'), "responses are newline-terminated: {line:?}");
        line.truncate(line.len() - 1);
        line
    }
}

/// The mixed batch: three topology families, two disciplines, two message
/// lengths — with the equivalent batch-API scenario for each query.
fn mixed_cases() -> Vec<(WireScenario, Scenario, f64)> {
    let wire = |kind, size, discipline, m| WireScenario {
        kind,
        size,
        discipline,
        virtual_channels: 6,
        message_length: m,
    };
    vec![
        (
            wire(TopologyKind::Star, 4, Discipline::EnhancedNbc, 16),
            Scenario::star(4).with_message_length(16),
            0.002,
        ),
        (
            wire(TopologyKind::Star, 4, Discipline::EnhancedNbc, 16),
            Scenario::star(4).with_message_length(16),
            0.004,
        ),
        (
            wire(TopologyKind::Star, 5, Discipline::Nbc, 32),
            Scenario::star(5).with_discipline(Discipline::Nbc),
            0.001,
        ),
        (
            wire(TopologyKind::Hypercube, 5, Discipline::EnhancedNbc, 32),
            Scenario::hypercube(5),
            0.001,
        ),
        (
            wire(TopologyKind::Torus, 4, Discipline::Deterministic, 16),
            Scenario::torus(4).with_discipline(Discipline::Deterministic).with_message_length(16),
            0.002,
        ),
    ]
}

#[test]
fn daemon_answers_byte_identically_and_caches_the_second_pass() {
    let cases = mixed_cases();
    // the reference answers: plain batch-API solves, no daemon involved
    let backend = ModelBackend::new();
    let expected: Vec<String> =
        cases.iter().map(|(_, s, r)| encode_estimate(&backend.evaluate(&s.at(*r)))).collect();

    let (addr, state, handle) = spawn_daemon();
    let mut client = Client::connect(addr);
    for (pass, cached) in [(1u64, "cold"), (2, "exact")] {
        // pipeline the whole pass, then read the answers in order
        for (i, (wire, _, rate)) in cases.iter().enumerate() {
            let query = Query {
                id: pass * 100 + i as u64,
                wire: *wire,
                rate: *rate,
                mode: SolveMode::Exact,
            };
            client.send(&query_line(&query));
        }
        for (i, (wire, _, _)) in cases.iter().enumerate() {
            let id = pass * 100 + i as u64;
            let response = client.recv();
            let prefix = format!("{{\"id\":{id},\"status\":\"ok\",\"cached\":\"{cached}\"");
            assert!(
                response.starts_with(&prefix),
                "pass {pass} on {wire:?}: expected {cached}, got {response}"
            );
            // byte identity: the daemon's result field carries exactly the
            // bytes `encode_estimate` produces for the batch solve
            let suffix = format!("\"result\":{}}}", expected[i]);
            assert!(
                response.ends_with(&suffix),
                "pass {pass} on {wire:?}: daemon diverged from the batch solve\n  \
                 daemon:   {response}\n  expected: …{suffix}"
            );
            if pass == 2 {
                assert!(
                    !response.contains("\"hits\":0,"),
                    "a cache hit must bump the entry's counter: {response}"
                );
            }
        }
    }

    // the stats op reflects the ten queries and the second-pass hits
    client.send("{\"op\":\"stats\",\"id\":900}");
    let stats = client.recv();
    assert!(stats.starts_with("{\"id\":900,\"status\":\"ok\",\"stats\":{"), "got {stats}");
    assert!(stats.contains("\"queries\":10"), "ten queries answered: {stats}");
    assert!(stats.contains("\"errors\":0"), "no errors yet: {stats}");

    // shutdown drains: the op is acknowledged, then the daemon thread ends
    client.send("{\"op\":\"shutdown\",\"id\":901}");
    assert_eq!(client.recv(), "{\"id\":901,\"status\":\"ok\",\"shutdown\":true}");
    handle.join().expect("daemon thread").expect("clean drain");
    assert_eq!(state.stats().get("queries").and_then(|v| v.as_u64()), Some(10));
}

#[test]
fn warm_mode_queries_are_answered_exactly() {
    let expected = encode_estimate(
        &ModelBackend::new().evaluate(&Scenario::star(4).with_message_length(16).at(0.0021)),
    );
    let (addr, _state, handle) = spawn_daemon();
    let mut client = Client::connect(addr);
    // an exact solve at a nearby rate first: the retired warm mode would
    // have started the next query from its converged latency
    client.send(
        "{\"id\":1,\"topology\":\"star\",\"size\":4,\"m\":16,\"rate\":0.002,\"mode\":\"exact\"}",
    );
    let _ = client.recv();
    let warm =
        "{\"id\":2,\"topology\":\"star\",\"size\":4,\"m\":16,\"rate\":0.0021,\"mode\":\"warm\"}";
    client.send(warm);
    let answer = client.recv();
    assert!(answer.starts_with("{\"id\":2,\"status\":\"ok\",\"cached\":\"cold\""), "got {answer}");
    assert!(
        answer.ends_with(&format!("\"result\":{expected}}}")),
        "a warm-mode query must get the batch solve's bytes\n  daemon:   {answer}\n  \
         expected: …{expected}"
    );
    // the answer is cached like any other and replays verbatim
    client.send(warm);
    let again = client.recv();
    assert!(again.starts_with("{\"id\":2,\"status\":\"ok\",\"cached\":\"exact\""), "got {again}");
    assert!(again.ends_with(&format!("\"result\":{expected}}}")), "got {again}");
    client.send("{\"op\":\"shutdown\",\"id\":3}");
    let _ = client.recv();
    handle.join().expect("daemon thread").expect("clean drain");
}

#[test]
fn prewarmed_daemon_answers_its_first_query_from_the_cache_byte_identically() {
    let wire = WireScenario {
        kind: TopologyKind::Star,
        size: 4,
        discipline: Discipline::EnhancedNbc,
        virtual_channels: 6,
        message_length: 16,
    };
    let config =
        ServeConfig { prewarm: vec![wire], prewarm_rates: 3, shards: 4, ..ServeConfig::default() };
    let daemon = Daemon::bind(config).expect("bind and prewarm");
    let report = *daemon.prewarmed().expect("a prewarm report when --prewarm is set");
    assert_eq!((report.configs, report.solves), (1, 3), "one config × three grid rates");
    let addr = daemon.local_addr();
    let handle = thread::spawn(move || daemon.run());

    // the very first client query at a grid rate is already cached — and
    // byte-identical to a batch solve of the same operating point
    let scenario = wire.scenario();
    let rate = load_rate_grid(&scenario, 3)[1];
    let expected = encode_estimate(&ModelBackend::new().evaluate(&scenario.at(rate)));
    let mut client = Client::connect(addr);
    client.send(&query_line(&Query { id: 1, wire, rate, mode: SolveMode::Exact }));
    let response = client.recv();
    assert!(
        response.starts_with("{\"id\":1,\"status\":\"ok\",\"cached\":\"exact\""),
        "the first query must hit the prewarmed cache: {response}"
    );
    assert!(
        response.ends_with(&format!("\"result\":{expected}}}")),
        "prewarmed answer diverged from the batch solve\n  daemon:   {response}\n  \
         expected: …{expected}"
    );
    client.send("{\"op\":\"shutdown\",\"id\":2}");
    let _ = client.recv();
    handle.join().expect("daemon thread").expect("clean drain");
}

#[test]
fn duplicate_misses_each_answer_the_batch_bytes_and_store_one_entry() {
    let (addr, state, handle) = spawn_daemon();
    let wire = WireScenario {
        kind: TopologyKind::Star,
        size: 4,
        discipline: Discipline::EnhancedNbc,
        virtual_channels: 6,
        message_length: 16,
    };
    let rate = 0.003;
    let expected = encode_estimate(
        &ModelBackend::new().evaluate(&Scenario::star(4).with_message_length(16).at(rate)),
    );
    let line = |id| query_line(&Query { id, wire, rate, mode: SolveMode::Exact }) + "\n";

    // one point six times in one pipelined burst, and once more on a second
    // connection at the same time: every duplicate miss solves cold and
    // stores the same bytes, whichever window or connection it lands in
    let mut burst = Client::connect(addr);
    let mut other = Client::connect(addr);
    let six: String = (0..6).map(line).collect();
    burst.writer.write_all(six.as_bytes()).expect("write the burst");
    other.writer.write_all(line(6).as_bytes()).expect("write the concurrent query");
    let answers = (0..6).map(|id| (id, burst.recv())).chain([(6, other.recv())]);
    for (id, response) in answers {
        assert!(
            response.starts_with(&format!("{{\"id\":{id},\"status\":\"ok\"")),
            "responses stay in request order: {response}"
        );
        assert!(
            response.ends_with(&format!("\"result\":{expected}}}")),
            "every duplicate gets the same bytes as a batch solve: {response}"
        );
    }

    let stats = state.stats();
    let entries = stats.get("solves").and_then(|s| s.get("entries")).and_then(|v| v.as_u64());
    assert_eq!(entries, Some(1), "one cache entry stored: {stats:?}");

    burst.send("{\"op\":\"shutdown\",\"id\":9}");
    let _ = burst.recv();
    handle.join().expect("daemon thread").expect("clean drain");
}

#[test]
fn connections_past_the_budget_get_a_busy_line_then_eof() {
    let config = ServeConfig { max_connections: 1, ..ServeConfig::default() };
    let (addr, _state, handle) = spawn_daemon_with(config);

    // occupy the whole budget: one answered query pins the worker thread
    let mut first = Client::connect(addr);
    first.send(
        "{\"id\":1,\"topology\":\"star\",\"size\":4,\"m\":16,\"rate\":0.002,\"mode\":\"exact\"}",
    );
    let ok = first.recv();
    assert!(ok.starts_with("{\"id\":1,\"status\":\"ok\""), "got {ok}");

    // a second connection is refused gracefully: one busy line, then EOF
    let second = TcpStream::connect(addr).expect("connect past the budget");
    let mut reader = BufReader::new(second);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read the busy line");
    assert_eq!(
        line,
        "{\"id\":null,\"status\":\"busy\",\"error\":\"connection budget (1) exhausted; \
         retry later\"}\n"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("read after busy"), 0, "busy closes the stream");

    // the admitted connection is unaffected and can still drain the daemon
    first.send(
        "{\"id\":2,\"topology\":\"star\",\"size\":4,\"m\":16,\"rate\":0.002,\"mode\":\"exact\"}",
    );
    let again = first.recv();
    assert!(again.starts_with("{\"id\":2,\"status\":\"ok\",\"cached\":\"exact\""), "got {again}");
    first.send("{\"op\":\"shutdown\",\"id\":3}");
    let _ = first.recv();
    handle.join().expect("daemon thread").expect("clean drain");
}

#[test]
fn bad_input_yields_error_responses_not_a_dead_daemon() {
    let (addr, _state, handle) = spawn_daemon();
    let mut client = Client::connect(addr);
    // not JSON, unknown topology, out-of-range size, missing rate — each one
    // line, each answered, none fatal
    client.send("this is not json");
    assert!(client.recv().contains("\"status\":\"error\""));
    client.send("{\"id\":1,\"topology\":\"mesh\",\"size\":4,\"rate\":0.001}");
    let unknown = client.recv();
    assert!(unknown.starts_with("{\"id\":1,\"status\":\"error\""), "got {unknown}");
    client.send("{\"id\":2,\"topology\":\"star\",\"size\":99,\"rate\":0.001}");
    let range = client.recv();
    assert!(range.starts_with("{\"id\":2,\"status\":\"error\""), "got {range}");
    client.send("{\"id\":3,\"topology\":\"star\",\"size\":4}");
    let missing = client.recv();
    assert!(missing.starts_with("{\"id\":3,\"status\":\"error\""), "got {missing}");
    // the daemon is still alive and solving
    client.send("{\"id\":4,\"topology\":\"star\",\"size\":4,\"m\":16,\"rate\":0.002}");
    let ok = client.recv();
    assert!(ok.starts_with("{\"id\":4,\"status\":\"ok\""), "got {ok}");
    client.send("{\"op\":\"shutdown\",\"id\":5}");
    let _ = client.recv();
    handle.join().expect("daemon thread").expect("clean drain");
}

#[test]
fn an_oversized_request_line_gets_one_error_and_the_connection_keeps_serving() {
    let scenario = Scenario::star(4).with_message_length(16);
    let expected = encode_estimate(&ModelBackend::new().evaluate(&scenario.at(0.002)));
    let (addr, _state, handle) = spawn_daemon();
    let mut client = Client::connect(addr);
    // 1 MiB without a newline, then the newline, then a valid query
    client.writer.write_all(&vec![b'x'; 1 << 20]).expect("write the oversized line");
    client.send("");
    client.send("{\"id\":7,\"topology\":\"star\",\"size\":4,\"m\":16,\"rate\":0.002}");
    assert_eq!(
        client.recv(),
        "{\"id\":null,\"status\":\"error\",\"error\":\"request line exceeds 65536 bytes\"}"
    );
    let answer = client.recv();
    assert!(answer.starts_with("{\"id\":7,\"status\":\"ok\""), "got {answer}");
    assert!(
        answer.ends_with(&format!("\"result\":{expected}}}")),
        "the valid query is answered byte-identically to a batch solve: {answer}"
    );
    client.send("{\"op\":\"shutdown\",\"id\":8}");
    let _ = client.recv();
    handle.join().expect("daemon thread").expect("clean drain");
}
