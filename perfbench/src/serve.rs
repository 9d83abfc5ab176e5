//! The serving workloads: an in-process `pwam-serve` at its default
//! configuration, driven over TCP by a closed loop of callers that each
//! wait for their reply before sending the next query.  There is one
//! caller per pool slot: with fewer callers than that the cores idle
//! whenever every caller waits on its socket, and on a shared VM waking an
//! idle vCPU costs a varying amount of time, which made throughput swing
//! by 40-65% between runs with two callers.

use crate::check::check;
use crate::inputs::{case, Case, Rng};
use crate::util::{median, percentile, rss_peak_mb, window_rates, Report};
use pwam_benchmarks::{BenchmarkId, Scale};
use pwam_server::{Client, QueryRequest, Response, Server, ServerConfig};
use std::sync::Barrier;
use std::time::Instant;

/// Complete set-ups per run, before and after the timed phase; `setup_s`
/// is their median, so it samples the host at both ends of the run.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 4;
/// Throughput is the median rate over windows of this many seconds.
const WINDOW_S: f64 = 1.0;
/// Warm-up passes allowed before set-up gives up on warming every slot.
const MAX_WARM_PASSES: usize = 20;

/// What a serving workload sends.  Every query runs at the request
/// defaults: 1 PE, interleaved, strict.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub ids: &'static [BenchmarkId],
    pub scale: Scale,
    /// Regenerate every query's values per request (every text is new).
    pub fresh: bool,
}

impl ServeSpec {
    pub fn request(&self, case: &Case) -> QueryRequest {
        QueryRequest { program: case.program.clone(), query: case.query.clone(), ..QueryRequest::default() }
    }
}

/// The queries of one run: a fixed seeded set for repeating workloads,
/// or a seeded stream of fresh values.
pub struct Queries {
    spec: ServeSpec,
    fixed: Vec<Case>,
    rng: Rng,
}

impl Queries {
    pub fn new(spec: ServeSpec, seed: u64) -> Queries {
        let mut rng = Rng::new(seed);
        let fixed = spec.ids.iter().map(|&id| case(id, spec.scale, &mut rng)).collect();
        Queries { spec, fixed, rng }
    }

    /// The queries that warm a server: every program once (for a repeating
    /// workload, exactly the queries it will repeat).
    pub fn warm_round(&self) -> Vec<Case> {
        self.fixed.clone()
    }

    /// Caller `index`'s stream of rounds.
    pub fn caller(&mut self, index: usize) -> Rounds {
        Rounds { spec: self.spec, fixed: self.fixed.clone(), rng: self.rng.fork(index as u64 + 1), index }
    }
}

/// One caller's rounds: one query per program, in an order rotated by the
/// caller's index so concurrent callers do not send the same program at
/// the same time.
pub struct Rounds {
    spec: ServeSpec,
    fixed: Vec<Case>,
    rng: Rng,
    index: usize,
}

impl Rounds {
    pub fn next_round(&mut self) -> Vec<Case> {
        let mut round: Vec<Case> = if self.spec.fresh {
            self.spec.ids.iter().map(|&id| case(id, self.spec.scale, &mut self.rng)).collect()
        } else {
            self.fixed.clone()
        };
        let n = round.len();
        round.rotate_left(self.index % n);
        round
    }
}

/// A started and warmed server with its connections.
pub struct Served {
    pub server: Server,
    pub clients: Vec<Client>,
    /// Wrong answers seen while warming (the run reports them as broken
    /// checks; set-up is not part of the measured operations).
    pub problems: Vec<String>,
}

impl Served {
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

fn stat(client: &mut Client, name: &str) -> Result<u64, String> {
    let stats = client.stats().map_err(|e| format!("stats verb: {e}"))?;
    stats.fields.iter().find(|(k, _)| k == name).map(|(_, v)| *v).ok_or_else(|| format!("no stat {name}"))
}

/// Check a query's response: a success whose answer is right.
pub fn check_response(case: &Case, response: std::io::Result<Response>) -> Result<(), String> {
    match response {
        Ok(Response::Answer(a)) if a.success => check(case, &a.bindings),
        Ok(Response::Answer(_)) => Err(format!("{}: query failed", case.id.name())),
        Ok(other) => Err(format!("{}: {other:?}", case.id.name())),
        Err(e) => Err(format!("{}: transport error {e}", case.id.name())),
    }
}

/// Start a server, admit every program and warm every pool slot: one
/// connection per slot sends the warm round concurrently until the pool
/// has built every slot once.  Returns the server and its set-up time.
pub fn set_up(spec: &ServeSpec, warm: &[Case]) -> Result<(Served, f64), String> {
    let started = Instant::now();
    let config = ServerConfig::default();
    let slots = config.pool.size;
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let mut clients = (0..slots)
        .map(|_| Client::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut problems = Vec::new();
    for _ in 0..MAX_WARM_PASSES {
        let barrier = Barrier::new(slots);
        let results: Vec<Vec<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        (0..warm.len())
                            .filter_map(|k| {
                                let case = &warm[(i + k) % warm.len()];
                                check_response(case, client.query(spec.request(case))).err()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("warm-up caller panicked")).collect()
        });
        problems.extend(results.into_iter().flatten().map(|e| format!("set-up: {e}")));
        if stat(&mut clients[0], "pool_cold_builds")? >= slots as u64 {
            return Ok((Served { server, clients, problems }, started.elapsed().as_secs_f64()));
        }
    }
    Err(format!("set-up did not warm all {slots} pool slots in {MAX_WARM_PASSES} passes"))
}

/// Set up `count` times, keeping the last server, and append each set-up
/// time to `times`.  Each server is shut down before the next starts, so
/// the peak resident memory never holds two.
fn set_up_times(
    spec: &ServeSpec,
    warm: &[Case],
    count: usize,
    times: &mut Vec<f64>,
) -> Result<Served, String> {
    let mut kept: Option<Served> = None;
    let mut problems = Vec::new();
    for _ in 0..count {
        if let Some(previous) = kept.take() {
            problems.extend_from_slice(&previous.problems);
            previous.shutdown();
        }
        let (served, secs) = set_up(spec, warm)?;
        times.push(secs);
        kept = Some(served);
    }
    let mut served = kept.ok_or_else(|| "no set-up".to_string())?;
    served.problems.extend(problems);
    Ok(served)
}

/// Server counters that must not move while the benchmark runs.
const ERROR_STATS: [&str; 9] = [
    "protocol_errors",
    "compile_errors",
    "engine_errors",
    "deadline_errors",
    "fuel_errors",
    "quota_rejections",
    "pool_rejections",
    "pool_queue_timeouts",
    "pool_run_errors",
];

/// The server's own view, read through the `stats` and `metrics` verbs.
pub struct ServerView {
    stats: Vec<(String, u64)>,
    metrics: String,
}

impl ServerView {
    pub fn read(client: &mut Client) -> Result<ServerView, String> {
        let stats = client.stats().map_err(|e| format!("stats verb: {e}"))?.fields;
        let metrics = client.metrics().map_err(|e| format!("metrics verb: {e}"))?;
        Ok(ServerView { stats, metrics })
    }

    fn stat(&self, name: &str) -> u64 {
        self.stats.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
    }

    fn requests_histogram(&self) -> u64 {
        pwam_obs::parse_histogram(&self.metrics, "pwam_query_request_us").map_or(0, |h| h.count)
    }

    /// Cross-check a phase in which `sent` queries went out: the server
    /// counted exactly those, raised no error counter, and built no engine
    /// cold.  Returns the phase's cold builds.
    pub fn check_phase(&self, after: &ServerView, sent: u64, report: &mut Report) -> u64 {
        let delta = |name: &str| after.stat(name).saturating_sub(self.stat(name));
        report.require(delta("queries") == sent, || {
            format!("stats: server counted {} queries, {sent} were sent", delta("queries"))
        });
        let histogram = after.requests_histogram().saturating_sub(self.requests_histogram());
        report.require(histogram == sent, || {
            format!("metrics: pwam_query_request_us counted {histogram} requests, {sent} were sent")
        });
        for name in ERROR_STATS {
            report.require(delta(name) == 0, || format!("stats: {name} rose by {}", delta(name)));
        }
        let metric_errors: u64 =
            ["pwam_protocol_errors_total", "pwam_compile_errors_total", "pwam_engine_errors_total"]
                .iter()
                .map(|f| {
                    pwam_obs::sum_family(&after.metrics, f)
                        .saturating_sub(pwam_obs::sum_family(&self.metrics, f))
                })
                .sum();
        report.require(metric_errors == 0, || format!("metrics: error counters rose by {metric_errors}"));
        let cold = delta("pool_cold_builds");
        report.require(cold == 0, || format!("stats: {cold} cold engine builds in the timed phase"));
        cold
    }
}

/// One caller's closed loop until `seconds` have passed since `start`
/// (whole rounds only).
struct CallerLog {
    latencies_ms: Vec<f64>,
    /// Completion time of every successful query.
    done: Vec<Instant>,
    rounds_s: Vec<f64>,
    failures: Vec<String>,
    end: Instant,
}

fn closed_loop(
    client: &mut Client,
    spec: &ServeSpec,
    rounds: &mut Rounds,
    start: Instant,
    seconds: f64,
) -> CallerLog {
    let mut log = CallerLog {
        latencies_ms: Vec::new(),
        done: Vec::new(),
        rounds_s: Vec::new(),
        failures: Vec::new(),
        end: start,
    };
    while start.elapsed().as_secs_f64() < seconds {
        let round = rounds.next_round();
        let requests: Vec<QueryRequest> = round.iter().map(|c| spec.request(c)).collect();
        let round_started = Instant::now();
        for (case, request) in round.iter().zip(requests) {
            let sent = Instant::now();
            let response = client.query(request);
            log.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            match check_response(case, response) {
                Ok(()) => log.done.push(Instant::now()),
                Err(e) => log.failures.push(e),
            }
        }
        log.rounds_s.push(round_started.elapsed().as_secs_f64());
    }
    log.end = Instant::now();
    log
}

/// The end-to-end run of a serving workload.
pub fn run(spec: ServeSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut queries = Queries::new(spec, seed);
    let warm = queries.warm_round();
    let mut setups = Vec::new();
    let mut served = set_up_times(&spec, &warm, SETUPS_BEFORE, &mut setups)?;
    let mut report = Report::default();
    served.problems.drain(..).for_each(|p| report.violate(p));
    let before = ServerView::read(&mut served.clients[0])?;

    // One closed-loop caller per set-up connection, i.e. per pool slot.
    let callers = served.clients.len();
    let barrier = Barrier::new(callers + 1);
    let mut streams: Vec<Rounds> = (0..callers).map(|i| queries.caller(i)).collect();
    let (start, logs) = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(client, rounds)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    closed_loop(client, &spec, rounds, Instant::now(), seconds)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        (start, handles.into_iter().map(|h| h.join().expect("caller panicked")).collect::<Vec<_>>())
    });

    let after = ServerView::read(&mut served.clients[0])?;
    let latencies: Vec<f64> = logs.iter().flat_map(|l| l.latencies_ms.iter().copied()).collect();
    let rounds: Vec<f64> = logs.iter().flat_map(|l| l.rounds_s.iter().copied()).collect();
    // Windows end where the first caller stops, so every window had both.
    let end = logs.iter().map(|l| l.end).min().unwrap_or(start);
    let done: Vec<Instant> = logs.iter().flat_map(|l| l.done.iter().copied()).collect();
    let mut rates = window_rates(&done, start, end, WINDOW_S);
    if rates.is_empty() {
        let wall = logs.iter().map(|l| l.end.duration_since(start).as_secs_f64()).fold(0.0, f64::max);
        rates.push(done.len() as f64 / wall);
    }
    report.attempted = latencies.len() as u64;
    for f in logs.into_iter().flat_map(|l| l.failures) {
        report.fail(f);
    }
    before.check_phase(&after, report.attempted, &mut report);
    // Peak memory of one server through set-up and the timed phase (never
    // two servers at once); the set-ups that follow only time set-up.
    let rss_peak_mb = rss_peak_mb();
    served.shutdown();
    let mut last = set_up_times(&spec, &warm, SETUPS_AFTER, &mut setups)?;
    last.problems.drain(..).for_each(|p| report.violate(p));
    last.shutdown();

    report.metric("setup_s", median(&setups), "s");
    report.metric("throughput_qps", median(&rates), "1/s");
    report.metric("latency_p50_ms", median(&latencies), "ms");
    report.metric("latency_p99_ms", percentile(&latencies, 0.99), "ms");
    report.metric("batch_s", median(&rounds), "s");
    report.metric("rss_peak_mb", rss_peak_mb, "MB");
    Ok(report)
}
