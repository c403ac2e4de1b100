//! Deterministic hostile-input test for the `star-serve` wire protocol.
//!
//! A SplitMix64 mutator turns valid request lines into hostile ones:
//! truncations, byte flips, huge exponents (`1e400`), bare `NaN`/`Infinity`,
//! nesting deeper than the JSON parser's 128-level cap, invalid UTF-8,
//! unknown `mode` values and sizes past every family's wire cap (a
//! billion-node ring would otherwise start a census allocation), stacked
//! one to three per line.  `Request::parse`
//! must never panic on any of them, and an in-process daemon must answer each
//! line with exactly one JSON response line and still answer a valid query
//! byte-identically to the batch solve afterwards.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;

use star_wormhole::serve::protocol::{query_line, Query, SolveMode};
use star_wormhole::serve::{Daemon, Request, ServeConfig};
use star_wormhole::{
    encode_estimate, Discipline, Evaluator as _, ModelBackend, Scenario, TopologyKind, WireScenario,
};

/// Deterministic pseudo-random stream (SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The valid lines every mutation starts from: queries over the four
/// families (one in the retired `warm` mode, one with only the required
/// fields) and a `stats` request.  No `shutdown`: no single mutation can
/// spell one, so the daemon stays up for the whole run.
fn seed_lines() -> Vec<String> {
    let wire = |kind, size, discipline, m| WireScenario {
        kind,
        size,
        discipline,
        virtual_channels: 6,
        message_length: m,
    };
    let mut lines: Vec<String> = [
        (wire(TopologyKind::Star, 4, Discipline::EnhancedNbc, 16), 0.002),
        (wire(TopologyKind::Star, 5, Discipline::Nbc, 32), 0.001),
        (wire(TopologyKind::Hypercube, 5, Discipline::EnhancedNbc, 32), 0.001),
        (wire(TopologyKind::Torus, 4, Discipline::Deterministic, 16), 0.002),
        (wire(TopologyKind::Ring, 8, Discipline::NHop, 16), 0.001),
    ]
    .into_iter()
    .enumerate()
    .map(|(id, (wire, rate))| {
        query_line(&Query { id: id as u64, wire, rate, mode: SolveMode::Exact })
    })
    .collect();
    lines.push(
        r#"{"id":7,"topology":"star","size":4,"m":16,"rate":0.003,"mode":"warm"}"#.to_string(),
    );
    lines.push(r#"{"id":8,"topology":"hypercube","rate":0.0005}"#.to_string());
    lines.push(r#"{"op":"stats","id":9}"#.to_string());
    lines
}

/// Replaces the value of `"field":` (up to the next `,` or `}`) with
/// `value`; the line is unchanged when it has no such field.
fn replace_field(line: &mut Vec<u8>, field: &str, value: &[u8]) {
    let key = format!("\"{field}\":");
    let Some(at) = line.windows(key.len()).position(|w| w == key.as_bytes()) else {
        return;
    };
    let start = at + key.len();
    let end = line[start..]
        .iter()
        .position(|&b| b == b',' || b == b'}')
        .map_or(line.len(), |i| i + start);
    line.splice(start..end, value.iter().copied());
}

/// One hostile mutation of `line`.
fn mutate(rng: &mut SplitMix64, line: &mut Vec<u8>) {
    match rng.below(8) {
        0 => {
            let keep = rng.below(line.len() + 1);
            line.truncate(keep);
        }
        1 => {
            if !line.is_empty() {
                let at = rng.below(line.len());
                line[at] ^= (rng.below(255) + 1) as u8;
            }
        }
        2 => {
            let huge = rng.pick(&["1e400", "-1e400", "1e-400", "1e308", "123456789e999999"]);
            replace_field(line, "rate", huge.as_bytes());
        }
        3 => {
            let bare = rng.pick(&["NaN", "Infinity", "-Infinity", "nan", "inf"]);
            let field = rng.pick(&["rate", "size", "id", "vc"]);
            replace_field(line, field, bare.as_bytes());
        }
        4 => {
            // one level past the cap, or far past it
            let depth = 129 + rng.below(2) * 4000;
            let mut nested = vec![b'['; depth];
            nested.extend(vec![b']'; depth]);
            if rng.below(2) == 0 {
                replace_field(line, "rate", &nested);
            } else {
                *line = nested;
            }
        }
        5 => {
            // a stray byte, a lone lead byte, an encoded surrogate, an
            // over-long sequence
            let bad: [&[u8]; 4] = [b"\xFF", b"\xC3", b"\xED\xA0\x80", b"\xF8\x88"];
            let bad = *rng.pick(&bad);
            let at = rng.below(line.len() + 1);
            line.splice(at..at, bad.iter().copied());
        }
        6 => {
            let huge = rng.pick(&["66", "1026", "100000", "1000000000", "18446744073709551615"]);
            replace_field(line, "size", huge.as_bytes());
        }
        _ => {
            let mode = rng.pick(&[
                "\"tepid\"",
                "\"WARM\"",
                "\"\"",
                "1",
                "null",
                "[\"exact\"]",
                "{\"mode\":\"warm\"}",
                "\"exact\\u0000\"",
            ]);
            if line.windows(7).any(|w| w == b"\"mode\":") {
                replace_field(line, "mode", mode.as_bytes());
            } else if line.last() == Some(&b'}') {
                line.pop();
                line.extend(format!(",\"mode\":{mode}}}").bytes());
            }
        }
    }
}

/// `count` mutated lines, each one to three mutations from a seed line,
/// with newlines replaced so that every entry stays one request line.
fn hostile_lines(seed: u64, count: usize) -> Vec<Vec<u8>> {
    let seeds = seed_lines();
    let mut rng = SplitMix64(seed);
    (0..count)
        .map(|_| {
            let mut line = rng.pick(&seeds).clone().into_bytes();
            for _ in 0..=rng.below(3) {
                mutate(&mut rng, &mut line);
            }
            for byte in &mut line {
                if *byte == b'\n' {
                    *byte = b' ';
                }
            }
            line
        })
        .collect()
}

#[test]
fn request_parse_survives_ten_thousand_hostile_lines() {
    let mut parsed = 0;
    for line in hostile_lines(0x5EED, 10_000) {
        // the daemon hands the parser lossily decoded bytes, so do the same
        if Request::parse(&String::from_utf8_lossy(&line)).is_ok() {
            parsed += 1;
        }
    }
    // the mutator is hostile, not merely noisy: most lines must be refused,
    // while a few mutations (a flipped digit, say) stay well-formed
    assert!(parsed < 5_000, "{parsed} of 10000 mutated lines still parsed");
}

#[test]
fn daemon_answers_every_hostile_line_once_and_stays_live() {
    let daemon = Daemon::bind(ServeConfig::default()).expect("bind an ephemeral port");
    let addr = daemon.local_addr();
    let server = thread::spawn(move || daemon.run());
    let stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream.set_nodelay(true).expect("set nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
    let mut writer = stream;
    let mut recv = || {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read a response");
        assert!(n > 0 && line.ends_with('\n'), "daemon closed mid-response: {line:?}");
        line.truncate(line.len() - 1);
        line
    };

    // pipelined in batches, so neither side's socket buffer can fill while
    // the other is still writing
    let lines = hostile_lines(0xF022, 1_000);
    for batch in lines.chunks(25) {
        let mut out = Vec::new();
        for line in batch {
            out.extend_from_slice(line);
            out.push(b'\n');
        }
        writer.write_all(&out).expect("write a batch");
        for line in batch {
            let response = recv();
            let value = serde_json::from_str(&response).unwrap_or_else(|e| {
                panic!("response is not JSON ({e}): {response:?} for {line:?}")
            });
            let status = value.get("status").and_then(|s| s.as_str());
            assert!(
                matches!(status, Some("ok" | "error")),
                "unexpected response {response:?} for {:?}",
                String::from_utf8_lossy(line)
            );
        }
    }

    // still live, and still exact
    let scenario = Scenario::star(4).with_message_length(16);
    let expected = encode_estimate(&ModelBackend::new().evaluate(&scenario.at(0.0025)));
    writer
        .write_all(b"{\"id\":4242,\"topology\":\"star\",\"size\":4,\"m\":16,\"rate\":0.0025}\n")
        .expect("write the valid query");
    let answer = recv();
    assert!(answer.starts_with("{\"id\":4242,\"status\":\"ok\""), "got {answer}");
    assert!(
        answer.ends_with(&format!("\"result\":{expected}}}")),
        "a valid query after the fuzz run must match the batch solve: {answer}"
    );
    writer.write_all(b"{\"op\":\"shutdown\",\"id\":4243}\n").expect("write shutdown");
    assert_eq!(recv(), "{\"id\":4243,\"status\":\"ok\",\"shutdown\":true}");
    server.join().expect("daemon thread").expect("clean drain");
}

/// FNV-1a, folded over `bytes` from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
    }
    hash
}

/// Every outcome `Request::parse` gives on the seed lines and the hostile
/// stream — each value, error message and JSON byte offset — folded into
/// one digest, so a rewrite of the decoder must reproduce all of them.
#[test]
fn request_parse_outcomes_match_the_pinned_digest() {
    let lines =
        seed_lines().into_iter().map(String::into_bytes).chain(hostile_lines(0x5EED, 10_000));
    let digest = lines.fold(0xCBF2_9CE4_8422_2325, |hash, line| {
        let outcome = format!("{:?}\n", Request::parse(&String::from_utf8_lossy(&line)));
        fnv1a(hash, outcome.as_bytes())
    });
    assert_eq!(
        digest, 0x2E56_7E61_839F_FCC3,
        "Request::parse outcomes moved: digest {digest:#018x}"
    );
}

#[test]
fn request_fields_decode_as_the_json_object_defines_them() {
    // an escaped key is the key it spells
    assert_eq!(Request::parse(r#"{"\u0069d":3,"op":"st\u0061ts"}"#), Ok(Request::Stats { id: 3 }));
    // the first occurrence of a key wins, even when it is the malformed one
    assert_eq!(Request::parse(r#"{"id":1,"id":2,"op":"stats"}"#), Ok(Request::Stats { id: 1 }));
    let e = Request::parse(r#"{"id":"one","id":2,"op":"stats"}"#).unwrap_err();
    assert_eq!((e.id, e.message.as_str()), (None, "missing field `id` (a non-negative integer)"));
    let Ok(Request::Query(query)) = Request::parse(
        r#"{"id":5,"size":4,"topology":"star","size":9,"rate":0.002,"rate":-1,"m":16}"#,
    ) else {
        panic!("the first size and rate decode");
    };
    assert_eq!((query.wire.size, query.rate), (4, 0.002));
    // unknown fields are skipped whatever they nest, but must still be JSON
    let nested =
        r#"{"id":6,"extra":{"deep":[1,{"x":"\"y\""}],"e":null},"topology":"ring","rate":0.001}"#;
    assert!(matches!(Request::parse(nested), Ok(Request::Query(q)) if q.wire.size == 8));
    let e = Request::parse(r#"{"id":6,"extra":{"deep":[1,}],"topology":"ring","rate":0.001}"#)
        .unwrap_err();
    assert_eq!(
        (e.id, e.message.as_str()),
        (None, "invalid JSON at byte 27: expected a JSON value")
    );
}

/// A string field's decode cost is linear in its length: eight lines with
/// a 60 KiB field each parse well inside the time budget even unoptimised.
#[test]
fn long_string_fields_parse_in_linear_time() {
    let filler = "x".repeat(60 << 10);
    let lines: Vec<String> = (0..8)
        .map(|id| format!(r#"{{"id":{id},"note":"{filler}","topology":"star","rate":0.001}}"#))
        .collect();
    let started = std::time::Instant::now();
    for line in &lines {
        assert!(matches!(Request::parse(line), Ok(Request::Query(_))));
    }
    let elapsed = started.elapsed();
    assert!(elapsed.as_millis() < 100, "eight 60 KiB lines took {elapsed:?}");
}
