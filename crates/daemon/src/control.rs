//! The daemon's control endpoint: a hand-rolled HTTP listener in the
//! same dependency-free style as the metrics server, so `pccheckctl job`
//! can drive a running `pccheckd` remotely.
//!
//! Routes (all GET, all JSON):
//!
//! * `/jobs` — one status object per job (running, drained, queued).
//! * `/submit?name=<n>[&state_kb=..][&n=..][&weight=..][&budget_kb=..]`
//!   `[&iters=..][&interval=..][&pacing_us=..][&codec=1][&period=..]` —
//!   submit a sim-backed job (`codec=1` requests the chunk codec,
//!   `period=P` trains on a P-byte-tiled compressible state). Any other
//!   key is a 400 that names it, and so is a value that does not parse
//!   or a KiB count past a `u64` byte count.
//! * `/drain?name=<n>` — stop and drain a job (or unqueue it).
//! * `/shutdown` — ask the daemon's serve loop to exit.

use pccheck_telemetry::{HttpListener, HttpResponse, HttpRoute};
use pccheck_util::ByteSize;

use crate::service::{Daemon, JobSpec, JobStatus, SubmitOutcome};

/// JSON string escape for names that came in off the wire.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn status_json(s: &JobStatus) -> String {
    format!(
        "{{\"id\":{},\"name\":\"{}\",\"state\":\"{}\",\"concurrent\":{},\
         \"committed\":{},\"bytes_persisted\":{},\"qos_share\":{:.4},\
         \"last_iteration\":{},\"codec\":{}}}",
        s.id,
        json_escape(&s.name),
        s.state.name(),
        s.concurrent,
        s.committed,
        s.bytes_persisted,
        s.qos_share,
        s.last_iteration
            .map_or("null".to_string(), |i| i.to_string()),
        s.codec,
    )
}

/// Splits `path?query` and decodes the query into key/value pairs (no
/// percent-decoding — job names are restricted to URL-safe characters).
/// A key without `=` has the empty value.
fn parse_query(target: &str) -> (&str, Vec<(&str, &str)>) {
    match target.split_once('?') {
        None => (target, Vec::new()),
        Some((path, query)) => (
            path,
            query
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
                .collect(),
        ),
    }
}

/// The keys `/submit` reads; the module docs list what each means.
const SUBMIT_KEYS: [&str; 10] = [
    "name",
    "state_kb",
    "n",
    "weight",
    "budget_kb",
    "iters",
    "interval",
    "pacing_us",
    "codec",
    "period",
];

fn spec_from_query(params: &[(&str, &str)]) -> Result<JobSpec, String> {
    if let Some((key, _)) = params.iter().find(|(k, _)| !SUBMIT_KEYS.contains(k)) {
        return Err(format!("unknown param `{key}`"));
    }
    let get = |key: &str| params.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    let name = get("name").ok_or("missing required param `name`")?;
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(format!("job name {name:?} must be [a-zA-Z0-9_-]+"));
    }
    let mut spec = JobSpec::sim(name);
    let parse_u64 = |key: &str, default: u64| -> Result<u64, String> {
        match get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad {key}={v:?}")),
        }
    };
    let parse_kb = |key: &str, default: ByteSize| -> Result<ByteSize, String> {
        let kb = parse_u64(key, default.as_u64() / 1024)?;
        kb.checked_mul(1024)
            .map(ByteSize::from_bytes)
            .ok_or_else(|| format!("{key}={kb} overflows a byte count"))
    };
    spec.state = parse_kb("state_kb", spec.state)?;
    spec.storage_budget = parse_kb("budget_kb", spec.storage_budget)?;
    spec.max_concurrent = parse_u64("n", spec.max_concurrent as u64)? as usize;
    spec.weight = parse_u64("weight", spec.weight)?;
    spec.iterations = parse_u64("iters", spec.iterations)?;
    spec.interval = parse_u64("interval", spec.interval)?;
    spec.pacing = std::time::Duration::from_micros(parse_u64("pacing_us", 0)?);
    spec.codec = parse_u64("codec", 0)? != 0;
    spec.compress_period = parse_u64("period", 0)? as usize;
    Ok(spec)
}

fn handle(daemon: &Daemon, target: &str) -> (&'static str, String) {
    let (path, params) = parse_query(target);
    match path {
        "/jobs" => {
            let rows: Vec<String> = daemon.jobs().iter().map(status_json).collect();
            ("200 OK", format!("[{}]\n", rows.join(",")))
        }
        "/submit" => {
            let submitted = spec_from_query(&params)
                .map_err(|e| e.to_string())
                .and_then(|spec| daemon.submit(spec).map_err(|e| e.to_string()));
            match submitted {
                Ok(SubmitOutcome::Admitted(status)) => ("200 OK", status_json(&status)),
                Ok(SubmitOutcome::Queued(reason)) => (
                    "200 OK",
                    format!(
                        "{{\"state\":\"queued\",\"reason\":\"{}\"}}\n",
                        json_escape(&reason)
                    ),
                ),
                Err(msg) => (
                    "400 Bad Request",
                    format!("{{\"error\":\"{}\"}}\n", json_escape(&msg)),
                ),
            }
        }
        "/drain" => {
            let Some(name) = params.iter().find(|(k, _)| *k == "name").map(|(_, v)| *v) else {
                return (
                    "400 Bad Request",
                    "{\"error\":\"missing required param `name`\"}\n".into(),
                );
            };
            match daemon.drain(name) {
                Ok(()) => (
                    "200 OK",
                    format!("{{\"drained\":\"{}\"}}\n", json_escape(name)),
                ),
                Err(e) => (
                    "400 Bad Request",
                    format!("{{\"error\":\"{}\"}}\n", json_escape(&e.to_string())),
                ),
            }
        }
        "/shutdown" => {
            daemon.request_quit();
            ("200 OK", "{\"shutting_down\":true}\n".into())
        }
        _ => ("404 Not Found", "{\"error\":\"try /jobs\"}\n".into()),
    }
}

/// The control routes, answered in JSON.
impl HttpRoute for Daemon {
    fn get(&self, target: &str) -> HttpResponse {
        let (status, body) = handle(self, target);
        HttpResponse {
            status,
            content_type: "application/json",
            body,
        }
    }
}

/// The daemon's HTTP control endpoint: an [`HttpListener`] over the
/// [`Daemon`]'s routes (`ControlServer::bind(addr, Arc<Daemon>)`).
pub type ControlServer = HttpListener;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DaemonConfig;
    use pccheck_telemetry::http_get;
    use pccheck_util::rng::{check, Rng, DEFAULT_CASES};
    use std::io::{Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpStream};
    use std::sync::Arc;

    #[test]
    fn control_routes_submit_list_drain() {
        let daemon = Arc::new(Daemon::new(DaemonConfig::sim_default()).unwrap());
        let server = ControlServer::bind("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.addr();
        let body = http_get(addr, "/submit?name=web-a&iters=6&interval=2").unwrap();
        assert!(body.contains("\"name\":\"web-a\""), "{body}");
        assert!(body.contains("\"state\":\"running\""), "{body}");
        let list = http_get(addr, "/jobs").unwrap();
        assert!(list.starts_with('['), "{list}");
        assert!(list.contains("web-a"));
        daemon.join_all().unwrap();
        let body = http_get(addr, "/drain?name=web-a").unwrap();
        assert!(body.contains("\"drained\":\"web-a\""), "{body}");
        // Errors come back as HTTP 400 (http_get surfaces the status).
        assert!(http_get(addr, "/drain?name=ghost").is_err());
        assert!(http_get(addr, "/submit?name=bad%20name").is_err());
        assert!(http_get(addr, "/submit?name=web-b&codc=1").is_err());
        assert!(http_get(addr, "/submit?name=web-b&codc").is_err());
        assert!(http_get(addr, "/nope").is_err());
        server.shutdown();
    }

    #[test]
    fn spec_query_parsing_round_trips() {
        let params = vec![
            ("name", "a"),
            ("state_kb", "32"),
            ("n", "3"),
            ("weight", "4"),
            ("budget_kb", "512"),
            ("iters", "9"),
            ("interval", "3"),
            ("codec", "1"),
            ("period", "64"),
        ];
        let spec = spec_from_query(&params).unwrap();
        assert_eq!(spec.state, ByteSize::from_kb(32));
        assert_eq!(spec.max_concurrent, 3);
        assert_eq!(spec.weight, 4);
        assert_eq!(spec.storage_budget, ByteSize::from_kb(512));
        assert_eq!(spec.iterations, 9);
        assert_eq!(spec.interval, 3);
        assert!(spec.codec);
        assert_eq!(spec.compress_period, 64);
        assert!(!spec_from_query(&[("name", "a")]).unwrap().codec);
        // A key outside the documented set is an error that names it, not
        // a silent default: a key the daemon does not read, and a typo.
        let err = spec_from_query(&[("name", "a"), ("adaptive", "4")]).unwrap_err();
        assert!(err.contains("`adaptive`"), "{err}");
        let err = spec_from_query(&[("name", "a"), ("codc", "1")]).unwrap_err();
        assert!(err.contains("`codc`"), "{err}");
        assert!(spec_from_query(&[("name", "bad name")]).is_err());
        assert!(spec_from_query(&[("state_kb", "1")]).is_err());
        assert!(spec_from_query(&[("name", "a"), ("n", "x")]).is_err());
    }

    #[test]
    fn kilobyte_counts_that_overflow_are_rejected_by_key() {
        // 2^54 + 1 KiB is past u64 bytes: an error naming the key, not a
        // panic (dev profile) or a wrapped 1 KiB state (release).
        for key in ["state_kb", "budget_kb"] {
            let err = spec_from_query(&[("name", "a"), (key, "18014398509481985")]).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
        let max = (u64::MAX / 1024).to_string();
        assert_eq!(
            spec_from_query(&[("name", "a"), ("budget_kb", &max)])
                .unwrap()
                .storage_budget,
            ByteSize::from_bytes(u64::MAX / 1024 * 1024)
        );
    }

    #[test]
    fn the_control_server_answers_after_a_hostile_submit() {
        let daemon = Arc::new(Daemon::new(DaemonConfig::sim_default()).unwrap());
        let server = ControlServer::bind("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.addr();
        for hostile in [
            "/submit?name=big&state_kb=18014398509481985",
            "/submit?name=big&budget_kb=18014398509481985",
            "/submit?name=wide&state_kb=1&budget_kb=1099511627776&n=4294967296",
        ] {
            let err = http_get(addr, hostile).unwrap_err();
            assert!(err.contains("400"), "{hostile}: {err}");
            assert_eq!(http_get(addr, "/jobs").unwrap(), "[]\n", "after {hostile}");
        }
        server.shutdown();
    }

    /// Sends `head` on one connection, half-closes, and reads the whole
    /// response.
    fn exchange(addr: SocketAddr, head: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(head).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        String::from_utf8_lossy(&response).into_owned()
    }

    /// `key=value` for each `/submit` key in `keys`, with values the
    /// parser and admission accept.
    fn valid_pairs(rng: &mut Rng, keys: &[&str]) -> Vec<String> {
        keys.iter()
            .map(|&key| {
                let value = match key {
                    "name" => format!("job-{}", rng.range(0..1000)),
                    "state_kb" => rng.range(1..65).to_string(),
                    "n" => rng.range(1..5).to_string(),
                    "budget_kb" => rng.range(128..1025).to_string(),
                    "codec" => rng.range(0..2).to_string(),
                    _ => rng.range(0..100).to_string(),
                };
                format!("{key}={value}")
            })
            .collect()
    }

    /// A `/submit` query with exactly one defect — an unknown key, a bare
    /// key, a negative number, a number past `u64`, a KiB count past
    /// `u64` bytes, or a concurrency past the slot range — among random
    /// valid pairs, shuffled.
    fn hostile_submit_query(rng: &mut Rng) -> String {
        let mut defect = match rng.range(0..6) {
            0 => vec![format!("k{}=1", rng.range(0..1000))],
            1 => vec![SUBMIT_KEYS[rng.range(0..10) as usize].to_string()],
            2 => vec![format!("iters=-{}", rng.range(1..u64::MAX))],
            3 => vec![format!("weight={}{}", u64::MAX, rng.range(0..10))],
            4 => vec![format!(
                "{}={}",
                ["state_kb", "budget_kb"][rng.range(0..2) as usize],
                rng.range(u64::MAX / 1024 + 1..u64::MAX)
            )],
            _ => vec![
                format!("n={}", rng.range(1 << 32..1 << 40)),
                "state_kb=1".into(),
                "budget_kb=1099511627776".into(),
            ],
        };
        let named: Vec<&str> = defect
            .iter()
            .map(|kv| kv.split('=').next().unwrap())
            .collect();
        let rest: Vec<&str> = SUBMIT_KEYS
            .iter()
            .copied()
            .filter(|k| !named.contains(k) && (*k == "name" || rng.bool()))
            .collect();
        defect.extend(valid_pairs(rng, &rest));
        for i in (1..defect.len()).rev() {
            defect.swap(i, rng.range(0..i as u64 + 1) as usize);
        }
        defect.join("&")
    }

    /// Random heads against a live control server: random bytes,
    /// over-long lines, and `/submit` queries each carrying one defect.
    /// Every connection gets a status line, a hostile `/submit` is a 400,
    /// nothing is admitted, and the server keeps answering; a valid query
    /// round-trips through the parser.
    #[test]
    fn prop_hostile_request_heads_are_answered_and_leave_the_server_up() {
        let daemon = Arc::new(Daemon::new(DaemonConfig::sim_default()).unwrap());
        let server = ControlServer::bind("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.addr();
        check(DEFAULT_CASES, |rng| {
            let (head, want) = match rng.range(0..4) {
                0 => {
                    let len = rng.range(1..512) as usize;
                    (rng.bytes(len), None)
                }
                1 => {
                    let len = 8 * 1024 + rng.range(0..4096) as usize;
                    let mut head = b"GET /".to_vec();
                    head.resize(len, b'a');
                    (head, Some("431"))
                }
                2 => {
                    let query = hostile_submit_query(rng);
                    let head = format!("GET /submit?{query} HTTP/1.1\r\nHost: x\r\n\r\n");
                    (head.into_bytes(), Some("400"))
                }
                _ => {
                    let mut pairs = valid_pairs(rng, &SUBMIT_KEYS);
                    for i in (1..pairs.len()).rev() {
                        pairs.swap(i, rng.range(0..i as u64 + 1) as usize);
                    }
                    let target = format!("/submit?{}", pairs.join("&"));
                    let spec = spec_from_query(&parse_query(&target).1).unwrap();
                    let value = |key: &str| {
                        let pair = pairs.iter().find(|p| p.starts_with(&format!("{key}=")));
                        pair.unwrap()
                            .split_once('=')
                            .unwrap()
                            .1
                            .parse::<u64>()
                            .unwrap()
                    };
                    assert_eq!(spec.state, ByteSize::from_kb(value("state_kb")));
                    assert_eq!(spec.storage_budget, ByteSize::from_kb(value("budget_kb")));
                    assert_eq!(spec.max_concurrent as u64, value("n"));
                    assert_eq!(spec.weight, value("weight"));
                    assert_eq!(spec.iterations, value("iters"));
                    assert_eq!(spec.interval, value("interval"));
                    assert_eq!(spec.pacing.as_micros() as u64, value("pacing_us"));
                    assert_eq!(spec.codec, value("codec") != 0);
                    assert_eq!(spec.compress_period as u64, value("period"));
                    (b"GET /jobs HTTP/1.1\r\n\r\n".to_vec(), Some("200"))
                }
            };
            let response = exchange(addr, &head);
            let status = response.lines().next().unwrap_or("");
            let code = status.strip_prefix("HTTP/1.1 ").unwrap_or("");
            assert!(
                code.len() >= 3 && code.as_bytes()[..3].iter().all(u8::is_ascii_digit),
                "no status line for {:?}: {response:?}",
                String::from_utf8_lossy(&head)
            );
            if let Some(want) = want {
                assert!(
                    code.starts_with(want),
                    "{status} for {:?}",
                    String::from_utf8_lossy(&head)
                );
            }
        });
        assert_eq!(http_get(addr, "/jobs").unwrap(), "[]\n");
        server.shutdown();
    }
}
