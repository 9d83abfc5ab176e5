//! The traced run of a serving workload.
//!
//! One caller sends the workload's queries to the server over TCP, and
//! each request is also replayed in-process through the same public calls,
//! in the same order, that the server's query path makes (`run_query` in
//! `crates/server/src/server.rs`): protocol decode, tenant admission,
//! program cache, compiled-query cache, pool acquire, engine reset or
//! build, scheduler run, arena recycle, answer render, slot release,
//! protocol encode.  Every call sits in a span under the request's root
//! span.  The transport residual is the TCP latency minus the replayed
//! latency of the same request.  The order of the two alternates per
//! request so neither always runs on warm caches.

use crate::figure::{cell, configs, probe, touched_words, SchedProbe, Study};
use crate::serve::{check_response, set_up, ServeSpec, ServerView};
use crate::spans::Recorder;
use crate::util::{median, percentile, Report};
use pwam_server::cache::CacheEntry;
use pwam_server::protocol::{decode_request, decode_response, encode_request, encode_response};
use pwam_server::{
    AnswerResponse, EnginePool, ProgramCache, QueryRequest, Request, Response, ServerConfig, TenantTable,
};
use rapwam::session::QueryOptions;
use rapwam::{Engine, Outcome, RunStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span reconciliation tolerance: per request, the part of the replayed
/// latency that no layer span covers (bookkeeping between calls) must stay
/// within the larger of this share and this floor...
const UNCOVERED_SHARE: f64 = 0.05;
const UNCOVERED_FLOOR_US: f64 = 20.0;
/// ...on all but this share of the requests: an OS preemption that lands
/// between two spans is charged to no layer, and user-space spans cannot
/// see it.
const UNCOVERED_EXCEPTIONS: f64 = 0.01;

/// The in-process copy of the server's query path.
struct Replica {
    config: ServerConfig,
    cache: ProgramCache,
    pool: EnginePool,
    tenants: TenantTable,
}

/// What one replayed request produced beyond its spans.
struct Replayed {
    stats: RunStats,
    warm: bool,
    hit: bool,
}

impl Replica {
    fn new() -> Replica {
        let config = ServerConfig::default();
        Replica {
            cache: ProgramCache::new(config.max_programs),
            pool: EnginePool::new(config.pool.clone()),
            tenants: TenantTable::new(config.tenant_max_active),
            config,
        }
    }

    /// Admit a program (the parse a cache miss pays).
    fn admit(&self, rec: &mut Recorder, request: u64, program: &str) -> Result<Arc<CacheEntry>, String> {
        rec.record(request, None, "front", "parse", || self.cache.entry(program)).map_err(|e| e.to_string())
    }

    /// Replay one request through the server's query path.
    fn serve(
        &mut self,
        rec: &mut Recorder,
        id: u64,
        req: &QueryRequest,
    ) -> Result<(Response, Replayed), String> {
        let request = Request::Query(Box::new(req.clone()));
        let root = rec.open(id, None, "request", "request");
        let arrived = Instant::now();
        let payload = rec.record(id, root, "protocol", "encode_request", || encode_request(&request));
        let decoded = rec.record(id, root, "protocol", "decode_request", || decode_request(&payload));
        let Ok(Request::Query(q)) = decoded else {
            return Err("replayed request did not decode".to_string());
        };
        let _tenant = rec
            .record(id, root, "server", "admit", || self.tenants.admit(q.tenant.as_deref()))
            .map_err(|_| "tenant quota".to_string())?;
        let deadline = q.deadline_ms.map(Duration::from_millis).or(self.config.default_deadline);
        let entry = rec
            .record(id, root, "cache", "program", || self.cache.entry(&q.program))
            .map_err(|e| e.to_string())?;
        // The program says whether the compiled-query cache hit: a miss
        // compiles through the session, which counts every prepare call.
        let compiles = || {
            let (hits, misses) = entry.session.read().unwrap().prepare_stats();
            hits + misses
        };
        let compiles_before = compiles();
        let span = rec.open(id, root, "compiler", "prepare");
        let compiled = entry.prepared(&q.query, q.parallel);
        rec.close(span);
        let hit = compiles() == compiles_before;
        if hit {
            rec.relabel(span, "cache");
        }
        let compiled = compiled.map_err(|e| e.to_string())?;
        let mut slot = rec
            .record(id, root, "pool", "acquire", || self.pool.acquire(deadline))
            .map_err(|e| format!("{e:?}"))?;
        let options = QueryOptions {
            parallel: q.parallel,
            workers: q.workers,
            memory: self.config.memory,
            scheduler: q.scheduler,
            determinism: q.determinism,
            stall_timeout: self.config.stall_timeout,
            time_budget: deadline.map(|d| d.saturating_sub(arrived.elapsed())),
            fuel: q.fuel.or(self.config.default_fuel),
            ..QueryOptions::default()
        };
        let recycled = rec.record(id, root, "pool", "take_memory", || slot.take_memory());
        let session = rec.record(id, root, "cache", "session_lock", || entry.session.read().unwrap());
        let config = options.engine_config();
        let (engine, warm) = match recycled {
            Some(m) => {
                rec.record(id, root, "engine", "reset", || Engine::with_recycled_memory(&compiled, config, m))
            }
            None => rec.record(id, root, "engine", "build", || (Engine::new(&compiled, config), false)),
        };
        let (result, engine) = rec
            .record(id, root, "sched", "run", || engine.run_reusable(session.symbols()))
            .map_err(|e| e.to_string())?;
        let memory = rec.record(id, root, "engine", "recycle", || engine.into_memory());
        rec.record(id, root, "pool", "put_memory", || {
            slot.put_memory(memory);
            self.pool.record_run(warm);
        });
        let bindings = rec.record(id, root, "render", "bindings", || match &result.outcome {
            Outcome::Success(b) => b.iter().map(|(n, t)| (n.clone(), session.render(t))).collect(),
            Outcome::Failure => Vec::new(),
        });
        let response = Response::Answer(AnswerResponse {
            success: result.outcome.is_success(),
            bindings,
            warm,
            elapsed_us: 0,
            instructions: result.stats.instructions,
            inferences: result.stats.inferences,
            parcalls: result.stats.parcalls,
        });
        drop(session);
        rec.record(id, root, "pool", "release", || drop(slot));
        let frame = rec.record(id, root, "protocol", "encode_response", || encode_response(&response));
        let response = rec.record(id, root, "protocol", "decode_response", || decode_response(&frame));
        rec.close(root);
        let response = response.map_err(|e| e.to_string())?;
        Ok((response, Replayed { stats: result.stats, warm, hit }))
    }
}

/// Timed-phase tallies that are not spans.
#[derive(Default)]
struct Tally {
    timed_from: u64,
    tcp_us: Vec<(u64, f64)>,
    hits: u64,
    prepares: u64,
    cold: u64,
    touched: Vec<f64>,
    instructions: Vec<f64>,
}

/// The traced run of a serving workload.
pub fn run(spec: ServeSpec, seed: u64, seconds: f64, spans: Option<&str>) -> Result<Report, String> {
    let mut queries = crate::serve::Queries::new(spec, seed);
    let warm = queries.warm_round();
    let (mut served, _) = set_up(&spec, &warm)?;
    served.clients.truncate(1);
    let mut rec = Recorder::new(true);
    let mut replica = Replica::new();
    let mut report = Report::default();
    served.problems.drain(..).for_each(|p| report.violate(p));
    let mut sched = SchedProbe::default();
    let mut memories = [None, None];
    let mut builds = Vec::new();

    // Set-up of the replica: admit every program, then run the warm round.
    let mut id = 0u64;
    for case in &warm {
        id += 1;
        replica.admit(&mut rec, id, &case.program)?;
    }
    for case in &warm {
        id += 1;
        if let Err(e) = replica
            .serve(&mut rec, id, &spec.request(case))
            .and_then(|(response, _)| check_response(case, Ok(response)))
        {
            report.violate(format!("replica set-up: {e}"));
        }
    }

    let mut t = Tally { timed_from: id + 1, ..Tally::default() };
    let before = ServerView::read(&mut served.clients[0])?;
    let mut rounds = queries.caller(0);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        for case in rounds.next_round() {
            id += 1;
            report.attempted += 1;
            let req = spec.request(&case);
            let client = &mut served.clients[0];
            let mut tcp = || {
                let sent = Instant::now();
                let response = client.query(req.clone());
                (sent.elapsed().as_secs_f64() * 1e6, response)
            };
            let ((tcp_us, over_tcp), replayed) = if id.is_multiple_of(2) {
                let tcp = tcp();
                (tcp, replica.serve(&mut rec, id, &req))
            } else {
                let replayed = replica.serve(&mut rec, id, &req);
                (tcp(), replayed)
            };
            let outcome = check_response(&case, over_tcp).and_then(|()| {
                let (response, out) = replayed?;
                check_response(&case, Ok(response))?;
                Ok(out)
            });
            let out = match outcome {
                Ok(out) => out,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
            t.tcp_us.push((id, tcp_us));
            t.prepares += 1;
            t.hits += u64::from(out.hit);
            t.cold += u64::from(!out.warm);
            t.touched.push(touched_words(&out.stats) as f64);
            t.instructions.push(out.stats.instructions as f64);
            // Untraced reruns outside the request: quantum 1 against 4096,
            // relaxed 2 PEs against interleaved 1 PE.
            if let Err(e) = probe(&case, &mut sched, &mut memories, &mut builds) {
                report.fail(e);
            }
        }
    }
    let after = ServerView::read(&mut served.clients[0])?;
    let server_cold = before.check_phase(&after, report.attempted, &mut report);
    served.shutdown();

    // The cache study of the served queries, on the served single PE.
    let mut study = Study::default();
    let mut study_rec = Recorder::new(false);
    let (mut trace_s, mut sim_s) = (0.0, 0.0);
    for case in &warm {
        let out = cell(case, 1, &mut study_rec, 0, &mut report)
            .and_then(|out| study.measure_sweep(case, 1).map(|()| out));
        match out {
            Ok(out) => {
                trace_s += out.trace_s;
                sim_s += out.sim_s;
                study.add(&out, configs(1).len());
            }
            Err(e) => report.violate(format!("cache study: {e}")),
        }
    }
    study.trace_s.push(trace_s);
    study.sim_s.push(sim_s);

    reconcile(&rec, t.timed_from, &mut report);
    layer_metrics(&rec, &t, server_cold, &builds, &mut report);
    sched.report(&mut report);
    study.report(&mut report);
    if let Some(path) = spans {
        rec.write(path).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(report)
}

/// Per request, the layer spans must cover the replayed latency up to the
/// stated tolerance.
fn reconcile(rec: &Recorder, timed_from: u64, report: &mut Report) {
    let roots: Vec<(u64, f64, f64)> = rec.roots().into_iter().filter(|r| r.0 >= timed_from).collect();
    let shares: Vec<f64> = roots.iter().map(|r| r.2 / r.1).collect();
    let over = roots.iter().filter(|r| r.2 > (UNCOVERED_SHARE * r.1).max(UNCOVERED_FLOOR_US)).count();
    println!(
        "span reconciliation: {} requests, uncovered median {:.3}% worst {:.3}%, {over} over tolerance",
        roots.len(),
        100.0 * median(&shares),
        100.0 * shares.iter().copied().fold(0.0, f64::max),
    );
    report.require(!roots.is_empty() && over as f64 <= UNCOVERED_EXCEPTIONS * roots.len() as f64, || {
        format!(
            "{over} of {} replayed requests leave more than {}% (or {} us) outside their layer spans",
            roots.len(),
            UNCOVERED_SHARE * 100.0,
            UNCOVERED_FLOOR_US
        )
    });
}

fn layer_metrics(rec: &Recorder, t: &Tally, server_cold: u64, builds: &[f64], report: &mut Report) {
    let timed = |r: u64| r >= t.timed_from;
    let all = |_| true;
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    let mut prepared = rec.micros("compiler", Some("prepare"), timed);
    prepared.extend(rec.micros("cache", Some("prepare"), timed));
    let mut build = rec.micros("engine", Some("build"), all);
    build.extend_from_slice(builds);
    let roots: std::collections::HashMap<u64, f64> = rec.roots().into_iter().map(|r| (r.0, r.1)).collect();
    let transport: Vec<f64> =
        t.tcp_us.iter().filter_map(|(id, tcp)| roots.get(id).map(|replayed| tcp - replayed)).collect();
    let mut codec = std::collections::HashMap::<u64, f64>::new();
    for s in rec.spans.iter().filter(|s| s.layer == "protocol" && timed(s.request)) {
        *codec.entry(s.request).or_default() += s.micros();
    }
    let codec: Vec<f64> = codec.into_values().collect();
    let reset = sum(rec.micros("engine", Some("reset"), timed));
    let run = rec.micros("sched", Some("run"), timed);

    report.metric("front.parse_us", median(&rec.micros("front", Some("parse"), all)), "us");
    report.metric("compiler.prepare_us", median(&rec.micros("compiler", Some("prepare"), all)), "us");
    report.metric("cache.prepared_p99_us", percentile(&prepared, 0.99), "us");
    report.metric("cache.query_hit_ratio", t.hits as f64 / t.prepares.max(1) as f64, "ratio");
    report.metric("pool.acquire_us", median(&rec.micros("pool", Some("acquire"), timed)), "us");
    report.metric("pool.cold_builds", (server_cold + t.cold) as f64, "count");
    report.metric("engine.build_us", median(&build), "us");
    report.metric("engine.reset_us", median(&rec.micros("engine", Some("reset"), timed)), "us");
    report.metric("engine.touched_words", median(&t.touched), "count");
    report.metric("engine.reset_per_run", reset / sum(run.clone()), "ratio");
    report.metric("sched.run_us", median(&run), "us");
    report.metric("exec.instructions", median(&t.instructions), "count");
    report.metric("render.us", median(&rec.micros("render", None, timed)), "us");
    report.metric("protocol.codec_us", median(&codec), "us");
    report.metric("server.transport_us", median(&transport), "us");
}
