//! `serve-yelp-gbt`: a Yelp GBT model behind the HTTP server, driven by
//! one closed-loop client over one keep-alive connection that alternates
//! single-row and 256-row `POST /predict` requests.
//!
//! HTTP framing and JSON decoding dominate the single-row requests and
//! GBT scoring dominates the batches. All training happens in set-up.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hamlet_core::advisor::{advise, AdvisorConfig};
use hamlet_core::ModelFamily;
use hamlet_datagen::realistic::DatasetSpec;
use hamlet_ml::Dataset;
use hamlet_serve::{artifact, build_artifact, ModelKind, Scorer, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{Pass, Tracer, Workload};
use crate::pipeline::{check_schema, coded_rows};
use crate::Config;

/// Rows per batch request.
const BATCH_ROWS: usize = 256;
/// Distinct single-row and batch request bodies drawn per set-up.
const SINGLE_POOL: usize = 512;
const BATCH_POOL: usize = 32;

/// One request body and the exact response body it must produce.
struct Request {
    wire: Vec<u8>,
    expected: Vec<u8>,
}

pub struct Serve {
    singles: Vec<Request>,
    batches: Vec<Request>,
    next: usize,
    conn: Option<TcpStream>,
    server: Option<ServerHandle>,
    buf: Vec<u8>,
}

fn body_of(rows: &[Vec<u32>]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let codes: Vec<String> = r.iter().map(u32::to_string).collect();
            format!("[{}]", codes.join(","))
        })
        .collect();
    format!("[{}]", rows.join(","))
}

fn request(scorer: &Scorer, rows: &[Vec<u32>]) -> Result<Request, String> {
    let body = body_of(rows);
    let preds = scorer.predict_codes(rows).map_err(|e| e.to_string())?;
    let mut wire = format!(
        "POST /predict HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body.as_bytes());
    Ok(Request {
        wire,
        expected: Scorer::render_predictions(&preds).to_string().into_bytes(),
    })
}

pub fn setup(cfg: &Config, t: &mut Tracer) -> Result<Serve, String> {
    let spec = DatasetSpec::yelp();
    let star = spec.generate(cfg.scale, cfg.seed).star;
    let advisor = AdvisorConfig::for_family(ModelFamily::Gbt);
    let built = t
        .span("serve.build_artifact_s", || {
            build_artifact(&star, ModelKind::Gbt, &advisor, spec.name)
        })
        .map_err(|e| e.to_string())?;
    let path = cfg.work_dir.join("serve.model");
    t.span("serve.save_s", || artifact::save(&built.artifact, &path))
        .map_err(|e| e.to_string())?;
    let loaded = t
        .span("serve.load_s", || artifact::load(&path))
        .map_err(|e| e.to_string())?;
    if loaded != built.artifact {
        return Err("artifact did not round-trip".into());
    }
    let kb = std::fs::metadata(&path).map_or(0, |m| m.len());
    t.value("serve.artifact_kb", kb as f64 / 1e3);

    // Request rows come from the holdout split, coded in the served
    // feature order.
    let kept = advise(&star, star.n_s() / 2, &advisor)
        .map_err(|e| e.to_string())?
        .plan()
        .joined;
    let served = Dataset::from_table(&star.materialize(&kept).map_err(|e| e.to_string())?);
    check_schema(&served, &loaded)?;
    let perm: Vec<usize> = (0..star.n_s()).collect();
    let test = star.split_rows(&perm, 0.5, 0.25).test;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut pick = |n: usize| -> Vec<Vec<u32>> {
        let rows: Vec<usize> = (0..n).map(|_| test[rng.gen_range(0..test.len())]).collect();
        coded_rows(&served, &rows)
    };
    let single_rows: Vec<Vec<Vec<u32>>> = (0..SINGLE_POOL).map(|_| pick(1)).collect();
    let batch_rows: Vec<Vec<Vec<u32>>> = (0..BATCH_POOL).map(|_| pick(BATCH_ROWS)).collect();
    let scorer = Scorer::new(loaded);
    let (singles, batches) = t.span("serve.score_s", || {
        let singles: Result<Vec<Request>, String> =
            single_rows.iter().map(|r| request(&scorer, r)).collect();
        let batches: Result<Vec<Request>, String> =
            batch_rows.iter().map(|r| request(&scorer, r)).collect();
        (singles, batches)
    });
    let (mut singles, batches) = (singles?, batches?);
    t.value(
        "serve.score_rows",
        (SINGLE_POOL + BATCH_POOL * BATCH_ROWS) as f64,
    );
    if cfg.corrupt_references {
        singles[0].expected.push(b' ');
    }

    let server = t
        .span("serve.start_s", || {
            hamlet_serve::start(
                scorer,
                ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    threads: 1,
                    ..ServerConfig::default()
                },
            )
        })
        .map_err(|e| e.to_string())?;
    let conn = TcpStream::connect(("127.0.0.1", server.port())).map_err(|e| e.to_string())?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    Ok(Serve {
        singles,
        batches,
        next: 0,
        conn: Some(conn),
        server: Some(server),
        buf: Vec::with_capacity(1 << 20),
    })
}

/// Reads one framed response; returns the status and the body range in
/// `buf`. Never waits for EOF, so the connection stays usable.
fn read_response(
    conn: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> std::io::Result<(u16, std::ops::Range<usize>)> {
    buf.clear();
    let mut chunk = [0u8; 64 * 1024];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let bad = || std::io::Error::from(std::io::ErrorKind::InvalidData);
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())
                .flatten()
        })
        .ok_or_else(bad)?;
    while buf.len() < head_end + len {
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok((status, head_end..head_end + len))
}

impl Serve {
    /// Sends one request and checks the response; returns the latency.
    fn call(&mut self, batch: bool, i: usize, t: &mut Tracer) -> (f64, bool) {
        let req = if batch {
            &self.batches[i % self.batches.len()]
        } else {
            &self.singles[i % self.singles.len()]
        };
        let Some(conn) = self.conn.as_mut() else {
            return (0.0, false);
        };
        let buf = &mut self.buf;
        let started = Instant::now();
        let got = t.span("serve.request_s", || {
            conn.write_all(&req.wire)?;
            read_response(conn, buf)
        });
        let latency = started.elapsed().as_secs_f64();
        let ok = matches!(&got, Ok((200, body)) if buf[body.clone()] == req.expected[..]);
        if got.is_err() {
            // The stream is out of step; later requests fail fast.
            self.conn = None;
        }
        (latency, ok)
    }
}

impl Workload for Serve {
    /// A pass is one single-row request followed by one 256-row request.
    /// The unit operation is the batch request; single-row latencies
    /// feed the per-layer tails. The median pass rate is the rate one
    /// client sustains at median latency: a scheduler stall lands in a
    /// few passes instead of in every multi-request window.
    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let i = self.next;
        self.next += 1;
        let started = Instant::now();
        let (single, ok_single) = self.call(false, i, t);
        let (batch, ok_batch) = self.call(true, i, t);
        let mut pass = Pass {
            wall_s: started.elapsed().as_secs_f64(),
            rows: (1 + BATCH_ROWS) as u64,
            latency_s: batch,
            single_s: Some(single),
            ..Pass::default()
        };
        pass.check(ok_single);
        pass.check(ok_batch);
        pass
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        drop(self.conn.take());
        if let Some(server) = self.server.take() {
            server.stop();
            let _ = server.join();
        }
    }
}
