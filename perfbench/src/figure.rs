//! The paper's cache study (Figure 4) as the `figure4` binary produces it,
//! and the same study applied to the served queries in traced runs.
//!
//! A figure is `experiments::figure4` over every coherence scheme, PE count
//! and cache size of the paper.  Next to it the benchmark runs seeded
//! *cells*: one program at one PE count, traced at quantum 1 on the
//! interleaved backend and simulated under every scheme and cache size
//! with `run_sweep`, with its answer, trace and miss counts checked.

use crate::check::check;
use crate::inputs::{case, Case, Rng};
use crate::spans::Recorder;
use crate::util::{median, percentile, rss_peak_mb, Report};
use pwam_bench::experiments::{experiment_memory, figure4, ExperimentScale, Figure4};
use pwam_bench::paper::{FIGURE4_CACHE_SIZES, FIGURE4_PE_COUNTS};
use pwam_benchmarks::{BenchmarkId, Scale};
use pwam_cachesim::sweep::run_sweep_with_threads;
use pwam_cachesim::{run_sweep, CacheConfig, Protocol, SimConfig, SimResult};
use rapwam::session::{QueryOptions, Session};
use rapwam::{DeterminismMode, Engine, MemRef, Outcome, RunStats, SchedulerKind};
use std::collections::HashMap;
use std::time::Instant;

/// Session creations timed before each figure for `setup_s` (the median of
/// all of them is reported, so it samples the host across the whole run).
const SETUP_REPEATS: usize = 25;

/// Every coherence scheme at every cache size of the figure, for `pes`.
pub fn configs(pes: usize) -> Vec<SimConfig> {
    Protocol::ALL
        .iter()
        .flat_map(|&protocol| {
            FIGURE4_CACHE_SIZES.iter().map(move |&size| SimConfig {
                cache: CacheConfig::paper_policy(size, protocol),
                protocol,
                num_pes: pes,
            })
        })
        .collect()
}

/// Misses of a fully associative LRU cache of each capacity (in lines),
/// all from one stack-distance pass: a reference hits a cache of `c`
/// lines exactly when fewer than `c` distinct lines were touched since the
/// previous reference to its line.
pub fn lru_misses(trace: &[MemRef], line_words: u32, capacities: &[u32]) -> Vec<u64> {
    // Fenwick tree over reference times marking each line's latest use.
    let mut tree = vec![0i64; trace.len() + 1];
    let add = |tree: &mut Vec<i64>, at: usize, v: i64| {
        let mut i = at + 1;
        while i < tree.len() {
            tree[i] += v;
            i += i & i.wrapping_neg();
        }
    };
    let prefix = |tree: &Vec<i64>, end: usize| {
        let (mut i, mut sum) = (end, 0);
        while i > 0 {
            sum += tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    };
    let mut last: HashMap<u32, usize> = HashMap::new();
    let mut misses = vec![0u64; capacities.len()];
    for (t, r) in trace.iter().enumerate() {
        match last.insert(r.addr / line_words, t) {
            Some(prev) => {
                let distance = prefix(&tree, t) - prefix(&tree, prev + 1);
                add(&mut tree, prev, -1);
                for (m, &c) in misses.iter_mut().zip(capacities) {
                    *m += u64::from(distance >= i64::from(c));
                }
            }
            None => misses.iter_mut().for_each(|m| *m += 1),
        }
        add(&mut tree, t, 1);
    }
    misses
}

/// Check the simulator's miss counts on a 1-PE trace against
/// [`lru_misses`] for every write-allocate configuration of the schemes
/// that allocate on every miss (the hybrid scheme writes global data
/// through without allocating, by design).
fn cross_check_misses(trace: &[MemRef], sims: &[SimResult], what: &str, report: &mut Report) {
    let checked: Vec<&SimResult> = sims
        .iter()
        .filter(|s| s.config.cache.write_allocate && s.config.protocol != Protocol::Hybrid)
        .collect();
    let capacities: Vec<u32> = checked.iter().map(|s| s.config.cache.capacity_lines()).collect();
    let line_words = checked.first().map_or(4, |s| s.config.cache.line_words);
    let expected = lru_misses(trace, line_words, &capacities);
    for (s, want) in checked.iter().zip(expected) {
        let got = s.read_misses + s.write_misses;
        report.require(got == want, || {
            format!(
                "{what}: {} at {} words missed {got} times, stack distance says {want}",
                s.config.protocol.name(),
                s.config.cache.size_words
            )
        });
    }
}

fn options(workers: usize, trace: bool) -> QueryOptions {
    QueryOptions {
        parallel: true,
        workers,
        trace,
        memory: experiment_memory(),
        max_steps: 2_000_000_000,
        scheduler: SchedulerKind::Interleaved,
        determinism: DeterminismMode::Strict,
        ..QueryOptions::default()
    }
}

fn rendered(session: &Session, outcome: &Outcome) -> Vec<(String, String)> {
    match outcome {
        Outcome::Success(b) => b.iter().map(|(n, t)| (n.clone(), session.render(t))).collect(),
        Outcome::Failure => Vec::new(),
    }
}

/// What one cell measured.
pub struct CellOut {
    pub trace_s: f64,
    pub sim_s: f64,
    pub refs: u64,
    pub instructions: u64,
    pub touched_words: u64,
    pub traffic: Vec<f64>,
}

/// Trace `case` on `pes` PEs and simulate it under every configuration.
/// A wrong answer fails the cell (`Err`); broken invariants are recorded
/// as check violations.
pub fn cell(
    case: &Case,
    pes: usize,
    rec: &mut Recorder,
    request: u64,
    report: &mut Report,
) -> Result<CellOut, String> {
    let root = rec.open(request, None, "cell", "cell");
    let started = Instant::now();
    let opts = options(pes, true);
    let mut session = rec
        .record(request, root, "front", "parse", || Session::new(&case.program))
        .map_err(|e| format!("{}: {e}", case.id.name()))?;
    let compiled = rec
        .record(request, root, "compiler", "prepare", || {
            session.prepare_with(&case.query, opts.compile_options())
        })
        .map_err(|e| format!("{}: {e}", case.id.name()))?;
    let engine =
        rec.record(request, root, "engine", "build", || Engine::new(&compiled, opts.engine_config()));
    let (mut result, _engine) = rec
        .record(request, root, "sched", "run", || engine.run_reusable(session.symbols()))
        .map_err(|e| format!("{}: {e}", case.id.name()))?;
    let bindings = rec.record(request, root, "render", "bindings", || rendered(&session, &result.outcome));
    let trace = result.trace.take().unwrap_or_default();
    let trace_s = started.elapsed().as_secs_f64();
    let configs = configs(pes);
    let sim_started = Instant::now();
    let sims = rec.record(request, root, "cachesim", "sweep", || run_sweep(&trace, &configs));
    let sim_s = sim_started.elapsed().as_secs_f64();
    rec.close(root);

    check(case, &bindings)?;
    let what = format!("{} on {pes} PE", case.id.name());
    report.require(trace.len() as u64 == result.stats.data_refs, || {
        format!("{what}: trace holds {} references, the run counted {}", trace.len(), result.stats.data_refs)
    });
    if pes == 1 {
        cross_check_misses(&trace, &sims, &what, report);
    }
    Ok(CellOut {
        trace_s,
        sim_s,
        refs: trace.len() as u64,
        instructions: result.stats.instructions,
        touched_words: touched_words(&result.stats),
        traffic: sims.iter().map(SimResult::traffic_ratio).collect(),
    })
}

/// Words below the area high-water marks of every PE.
pub fn touched_words(stats: &RunStats) -> u64 {
    stats
        .workers
        .iter()
        .map(|w| {
            let (h, l, c, t, g) = w.max_usage;
            u64::from(h) + u64::from(l) + u64::from(c) + u64::from(t) + u64::from(g)
        })
        .sum()
}

/// The cache study's per-layer figures, from cells of one traced run.
#[derive(Default)]
pub struct Study {
    pub trace_s: Vec<f64>,
    pub sim_s: Vec<f64>,
    pub refs: u64,
    pub simulated_refs: u64,
    pub sim_total_s: f64,
    /// `(serial sweep s, parallel sweep s)` for the sweep-efficiency ratio.
    pub sweep_pairs: Vec<(f64, f64)>,
}

impl Study {
    /// Time the same sweep on one thread against `run_sweep`'s threads.
    pub fn measure_sweep(&mut self, case: &Case, pes: usize) -> Result<(), String> {
        let mut session = Session::new(&case.program).map_err(|e| e.to_string())?;
        let result = session.run(&case.query, &options(pes, true)).map_err(|e| e.to_string())?;
        let trace = result.trace.unwrap_or_default();
        let configs = configs(pes);
        let t = Instant::now();
        run_sweep_with_threads(&trace, &configs, 1);
        let serial = t.elapsed().as_secs_f64();
        let t = Instant::now();
        run_sweep(&trace, &configs);
        self.sweep_pairs.push((serial, t.elapsed().as_secs_f64()));
        Ok(())
    }

    pub fn add(&mut self, out: &CellOut, configs: usize) {
        self.refs += out.refs;
        self.simulated_refs += out.refs * configs as u64;
        self.sim_total_s += out.sim_s;
    }

    pub fn report(&self, report: &mut Report) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let serial: f64 = self.sweep_pairs.iter().map(|p| p.0).sum();
        let parallel: f64 = self.sweep_pairs.iter().map(|p| p.1).sum();
        report.metric("trace.collect_s", median(&self.trace_s), "s");
        report.metric("trace.refs", self.refs as f64 / self.trace_s.len().max(1) as f64, "count");
        report.metric("cachesim.sim_s", median(&self.sim_s), "s");
        report.metric("cachesim.mrefs_s", self.simulated_refs as f64 / self.sim_total_s / 1e6, "Mrefs/s");
        report.metric("cachesim.sweep_efficiency", serial / (threads * parallel), "ratio");
    }
}

/// Untraced reruns of a query outside any request: the served quantum
/// against quantum 4096, and interleaved 1 PE against relaxed 2 PEs.
#[derive(Default)]
pub struct SchedProbe {
    pub q1_us: f64,
    pub q4096_us: f64,
    pub instructions: u64,
    pub interleaved_us: f64,
    pub relaxed_us: f64,
    pub steals: u64,
    pub steal_attempts: u64,
    pub park_us: u64,
    pub runs: u64,
    pub relaxed_runs: u64,
}

impl SchedProbe {
    /// Run `compiled` once with `opts` at `quantum`; returns the run time
    /// in µs, after checking the answer.
    pub fn time(
        case: &Case,
        session: &Session,
        compiled: &pwam_compiler::CompiledProgram,
        opts: &QueryOptions,
        quantum: u32,
        memory: &mut Option<rapwam::Memory>,
        builds: &mut Vec<f64>,
    ) -> Result<(f64, RunStats), String> {
        let mut config = opts.engine_config();
        config.quantum = quantum;
        let engine = match memory.take() {
            Some(m) => Engine::with_recycled_memory(compiled, config, m).0,
            None => {
                let t = Instant::now();
                let e = Engine::new(compiled, config);
                builds.push(t.elapsed().as_secs_f64() * 1e6);
                e
            }
        };
        let t = Instant::now();
        let (result, engine) =
            engine.run_reusable(session.symbols()).map_err(|e| format!("{}: {e}", case.id.name()))?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        *memory = Some(engine.into_memory());
        check(case, &rendered(session, &result.outcome))?;
        Ok((us, result.stats))
    }

    pub fn add_relaxed(&mut self, relaxed_us: f64, interleaved_us: f64, stats: &RunStats) {
        self.relaxed_us += relaxed_us;
        self.interleaved_us += interleaved_us;
        self.relaxed_runs += 1;
        for w in &stats.workers {
            self.steals += w.goals_stolen;
            self.steal_attempts += w.steal_attempts;
            self.park_us += w.park_micros;
        }
    }

    pub fn report(&self, report: &mut Report) {
        let per_run = |v: u64| v as f64 / self.relaxed_runs.max(1) as f64;
        report.metric("sched.driver_share", 1.0 - self.q4096_us / self.q1_us, "ratio");
        report.metric("exec.mips", self.instructions as f64 / self.q4096_us, "MIPS");
        report.metric("sched.relaxed_ratio", self.relaxed_us / self.interleaved_us, "ratio");
        report.metric("sched.steals", per_run(self.steals), "count");
        report.metric("sched.steal_attempts", per_run(self.steal_attempts), "count");
        report.metric("sched.park_us", per_run(self.park_us), "us");
    }
}

/// Probe the scheduler on one query: quantum 1 vs 4096 on 1 PE, and
/// relaxed 2 PEs vs interleaved 1 PE.
pub fn probe(
    case: &Case,
    probe: &mut SchedProbe,
    memories: &mut [Option<rapwam::Memory>; 2],
    builds: &mut Vec<f64>,
) -> Result<(), String> {
    let mut session = Session::new(&case.program).map_err(|e| e.to_string())?;
    let compiled = session.prepare(&case.query, true).map_err(|e| e.to_string())?;
    let one = options(1, false);
    let relaxed = QueryOptions {
        scheduler: SchedulerKind::Threaded,
        determinism: DeterminismMode::Relaxed,
        ..options(2, false)
    };
    let (q1, stats) = SchedProbe::time(case, &session, &compiled, &one, 1, &mut memories[0], builds)?;
    let (q4096, _) = SchedProbe::time(case, &session, &compiled, &one, 4096, &mut memories[0], builds)?;
    let (r2, rstats) = SchedProbe::time(case, &session, &compiled, &relaxed, 1, &mut memories[1], builds)?;
    probe.q1_us += q1;
    probe.q4096_us += q4096;
    probe.instructions += stats.instructions;
    probe.runs += 1;
    probe.add_relaxed(r2, q1, &rstats);
    Ok(())
}

/// Check one Figure 4 from `experiments::figure4`: every scheme and PE
/// count has a finite positive traffic ratio at every cache size, and a
/// repeated figure equals the first.
fn check_figure(figure: &Figure4, first: &Option<Figure4>) -> Result<(), String> {
    let want = Protocol::ALL.len() * FIGURE4_PE_COUNTS.len();
    if figure.series.len() != want {
        return Err(format!("figure has {} series, want {want}", figure.series.len()));
    }
    for s in &figure.series {
        let sizes: Vec<u32> = s.points.iter().map(|p| p.0).collect();
        if sizes != FIGURE4_CACHE_SIZES || s.points.iter().any(|p| !(p.1.is_finite() && p.1 > 0.0)) {
            return Err(format!("figure series {} on {} PEs: {:?}", s.protocol, s.pes, s.points));
        }
    }
    let points = |f: &Figure4| f.series.iter().flat_map(|s| s.points.clone()).collect::<Vec<_>>();
    match first {
        Some(first) if points(first) != points(figure) => {
            Err("a repeated figure differs from the first".to_string())
        }
        _ => Ok(()),
    }
}

/// The `figure4-paper` workload.  A round times the figure as the
/// `figure4` binary produces it (`experiments::figure4` on the registry's
/// Paper inputs) for `batch_s`, then runs the 16 seeded cells one by one
/// for the per-cell latency, the rate and the checks: `experiments::figure4`
/// neither times a cell nor exposes its traces and answers.
pub fn run(seed: u64, seconds: f64, traced: bool, spans: Option<&str>) -> Result<Report, String> {
    let mut rng = Rng::new(seed);
    let cases: Vec<Case> = BenchmarkId::ALL.iter().map(|&id| case(id, Scale::Paper, &mut rng)).collect();
    let mut report = Report::default();

    let mut setups = Vec::new();
    let set_up = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            let sessions: Vec<Session> = cases
                .iter()
                .map(|c| Session::new(&c.program))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            setups.push(t.elapsed().as_secs_f64());
            drop(sessions);
        }
        Ok(())
    };

    let mut rec = Recorder::new(traced);
    let mut study = Study::default();
    let mut cell_ms = Vec::new();
    let mut figures_s = Vec::new();
    let mut rates = Vec::new();
    let mut first_figure: Option<Figure4> = None;
    let mut first_cells: Option<Vec<f64>> = None;
    let mut instructions = Vec::new();
    let mut touched = Vec::new();
    let mut request = 0u64;
    let started = Instant::now();
    while figures_s.is_empty() || started.elapsed().as_secs_f64() < seconds {
        set_up(&mut setups)?;
        report.attempted += 1;
        let t = Instant::now();
        let figure =
            figure4(ExperimentScale::Paper, &Protocol::ALL, &FIGURE4_PE_COUNTS, &FIGURE4_CACHE_SIZES);
        figures_s.push(t.elapsed().as_secs_f64());
        match check_figure(&figure, &first_figure) {
            Ok(()) => first_figure = first_figure.or(Some(figure)),
            Err(e) => report.fail(e),
        }

        let cells_started = Instant::now();
        let (mut trace_s, mut sim_s) = (0.0, 0.0);
        let mut traffic = Vec::new();
        let mut completed = 0.0;
        for &pes in &FIGURE4_PE_COUNTS {
            for c in &cases {
                request += 1;
                report.attempted += 1;
                let t = Instant::now();
                match cell(c, pes, &mut rec, request, &mut report) {
                    Ok(out) => {
                        completed += 1.0;
                        trace_s += out.trace_s;
                        sim_s += out.sim_s;
                        study.add(&out, configs(pes).len());
                        instructions.push(out.instructions as f64);
                        touched.push(out.touched_words as f64);
                        traffic.extend(out.traffic);
                    }
                    Err(e) => report.fail(e),
                }
                cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        rates.push(completed / cells_started.elapsed().as_secs_f64());
        study.trace_s.push(trace_s);
        study.sim_s.push(sim_s);
        match &first_cells {
            None => first_cells = Some(traffic),
            Some(first) => report
                .require(*first == traffic, || "repeated cells differ from the first round's".to_string()),
        }
    }

    if !traced {
        report.metric("setup_s", median(&setups), "s");
        report.metric("throughput_qps", median(&rates), "1/s");
        report.metric("latency_p50_ms", median(&cell_ms), "ms");
        report.metric("latency_p99_ms", percentile(&cell_ms, 0.99), "ms");
        report.metric("batch_s", median(&figures_s), "s");
        report.metric("rss_peak_mb", rss_peak_mb(), "MB");
        return Ok(report);
    }

    // Traced run: probe the scheduler and the sweep on the 1-PE cells.
    let mut sched = SchedProbe::default();
    let mut memories = [None, None];
    let mut builds = rec.micros("engine", Some("build"), |_| true);
    for c in &cases {
        if let Err(e) =
            probe(c, &mut sched, &mut memories, &mut builds).and_then(|()| study.measure_sweep(c, 1))
        {
            report.violate(format!("probe: {e}"));
        }
    }
    let all = |_| true;
    report.metric("front.parse_us", median(&rec.micros("front", None, all)), "us");
    report.metric("compiler.prepare_us", median(&rec.micros("compiler", None, all)), "us");
    report.metric("cache.prepared_p99_us", 0.0, "us");
    report.metric("cache.query_hit_ratio", 0.0, "ratio");
    report.metric("pool.acquire_us", 0.0, "us");
    report.metric("pool.cold_builds", 0.0, "count");
    report.metric("engine.build_us", median(&builds), "us");
    report.metric("engine.reset_us", 0.0, "us");
    report.metric("engine.touched_words", median(&touched), "count");
    report.metric("engine.reset_per_run", 0.0, "ratio");
    report.metric("sched.run_us", median(&rec.micros("sched", Some("run"), all)), "us");
    sched.report(&mut report);
    report.metric("exec.instructions", median(&instructions), "count");
    report.metric("render.us", median(&rec.micros("render", None, all)), "us");
    report.metric("protocol.codec_us", 0.0, "us");
    report.metric("server.transport_us", 0.0, "us");
    study.report(&mut report);
    if let Some(path) = spans {
        rec.write(path).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(report)
}
