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
//!   key is a 400 that names it.
//! * `/drain?name=<n>` — stop and drain a job (or unqueue it).
//! * `/shutdown` — ask the daemon's serve loop to exit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    spec.state = ByteSize::from_kb(parse_u64("state_kb", spec.state.as_u64() / 1024)?);
    spec.storage_budget =
        ByteSize::from_kb(parse_u64("budget_kb", spec.storage_budget.as_u64() / 1024)?);
    spec.max_concurrent = parse_u64("n", spec.max_concurrent as u64)? as usize;
    spec.weight = parse_u64("weight", spec.weight)?;
    spec.iterations = parse_u64("iters", spec.iterations)?;
    spec.interval = parse_u64("interval", spec.interval)?;
    spec.pacing = std::time::Duration::from_micros(parse_u64("pacing_us", 0)?);
    spec.codec = parse_u64("codec", 0)? != 0;
    spec.compress_period = parse_u64("period", 0)? as usize;
    Ok(spec)
}

fn handle(daemon: &Daemon, target: &str) -> (String, String) {
    let (path, params) = parse_query(target);
    match path {
        "/jobs" => {
            let rows: Vec<String> = daemon.jobs().iter().map(status_json).collect();
            ("200 OK".into(), format!("[{}]\n", rows.join(",")))
        }
        "/submit" => {
            let submitted = spec_from_query(&params)
                .map_err(|e| e.to_string())
                .and_then(|spec| daemon.submit(spec).map_err(|e| e.to_string()));
            match submitted {
                Ok(SubmitOutcome::Admitted(status)) => ("200 OK".into(), status_json(&status)),
                Ok(SubmitOutcome::Queued(reason)) => (
                    "200 OK".into(),
                    format!(
                        "{{\"state\":\"queued\",\"reason\":\"{}\"}}\n",
                        json_escape(&reason)
                    ),
                ),
                Err(msg) => (
                    "400 Bad Request".into(),
                    format!("{{\"error\":\"{}\"}}\n", json_escape(&msg)),
                ),
            }
        }
        "/drain" => {
            let Some(name) = params.iter().find(|(k, _)| *k == "name").map(|(_, v)| *v) else {
                return (
                    "400 Bad Request".into(),
                    "{\"error\":\"missing required param `name`\"}\n".into(),
                );
            };
            match daemon.drain(name) {
                Ok(()) => (
                    "200 OK".into(),
                    format!("{{\"drained\":\"{}\"}}\n", json_escape(name)),
                ),
                Err(e) => (
                    "400 Bad Request".into(),
                    format!("{{\"error\":\"{}\"}}\n", json_escape(&e.to_string())),
                ),
            }
        }
        "/shutdown" => {
            daemon.request_quit();
            ("200 OK".into(), "{\"shutting_down\":true}\n".into())
        }
        _ => ("404 Not Found".into(), "{\"error\":\"try /jobs\"}\n".into()),
    }
}

fn serve_one(stream: TcpStream, daemon: &Daemon) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed".into(), "GET only\n".to_string())
    } else {
        handle(daemon, target)
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = reader.into_inner();
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
    // Client closes first (see the metrics server's TIME_WAIT note).
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 64];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// The daemon's HTTP control listener (one accept loop on a background
/// thread; joined on drop, so a restarted daemon can rebind its port).
#[derive(Debug)]
pub struct ControlServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ControlServer {
    /// Binds `addr` and serves `daemon`'s control routes.
    ///
    /// # Errors
    ///
    /// Returns the bind error as a string.
    pub fn bind(addr: &str, daemon: Arc<Daemon>) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| e.to_string())?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nonblocking(false);
                        serve_one(stream, &daemon);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(ControlServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ControlServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DaemonConfig;
    use pccheck_telemetry::http_get;

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
}
