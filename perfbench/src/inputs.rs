//! Seeded query generation.
//!
//! Every query is one of the registry programs with values drawn from the
//! run's seed.  The seed changes the *values* of a query, never the amount
//! of work it asks for: tak is shifted by a constant (tak is
//! shift-invariant), qsort's values are a monotone relabelling of the
//! registry's list (same comparisons), deriv keeps the registry's
//! expression shape and leaf kinds, matrix draws digits.  Runs with
//! different seeds therefore execute the same instruction counts and only
//! the query text differs — which is what makes a fresh query miss every
//! cache while costing what its registry twin costs.

use crate::check::Expr;
use pwam_benchmarks::{benchmark, deriv, fib, matrix, qsort, queens, tak, BenchmarkId, Scale};

/// splitmix64: small, seedable, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream derived from this one (per connection, per
    /// purpose) so streams do not depend on each other's consumption.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What the answer binding must be, computed without the engine.
#[derive(Debug, Clone)]
pub enum Expect {
    Int(i64),
    IntList(Vec<i64>),
    Matrix(Vec<Vec<i64>>),
    Atom(String),
    /// A board that is safe and equals the registry's host search result.
    Queens(Vec<i64>),
    Deriv(Expr),
}

/// One query with its independently computed answer.
#[derive(Debug, Clone)]
pub struct Case {
    pub id: BenchmarkId,
    pub program: String,
    pub query: String,
    /// The query variable the answer is read from.
    pub var: &'static str,
    pub expect: Expect,
}

/// Generate a query of program `id` at `scale` with values from `rng`.
pub fn case(id: BenchmarkId, scale: Scale, rng: &mut Rng) -> Case {
    let program = benchmark(id, scale).program;
    let (query, var, expect) = match id {
        BenchmarkId::Deriv => {
            let depth = deriv::DerivParams::for_scale(scale).depth;
            let expr = deriv_shape(depth, 0, rng);
            let d = crate::check::differentiate(&expr);
            (format!("d({}, x, D)", expr.to_prolog()), "D", Expect::Deriv(d))
        }
        BenchmarkId::Tak => {
            let p = tak::TakParams::for_scale(scale);
            let k = rng.below(1_000_000_000) as i64;
            let (x, y, z) = (p.x + k, p.y + k, p.z + k);
            (format!("tak({x}, {y}, {z}, A)"), "A", Expect::Int(host_tak(x, y, z)))
        }
        BenchmarkId::Qsort => {
            let pattern = qsort::input_list(qsort::QsortParams::for_scale(scale));
            let input = relabel(&pattern, rng);
            let mut sorted = input.clone();
            sorted.sort_unstable();
            (format!("qsort({}, S, [])", list_text(&input)), "S", Expect::IntList(sorted))
        }
        BenchmarkId::Matrix => {
            let n = matrix::MatrixParams::for_scale(scale).n;
            let a = digits(n, rng);
            let b = digits(n, rng);
            let b_t: Vec<Vec<i64>> = (0..n).map(|j| (0..n).map(|i| b[i][j]).collect()).collect();
            let query = format!("mmultiply({}, {}, C)", matrix_text(&a), matrix_text(&b_t));
            (query, "C", Expect::Matrix(host_multiply(&a, &b)))
        }
        BenchmarkId::Boyer => {
            let n = pwam_benchmarks::boyer::chain_length(scale);
            let expected = if pwam_benchmarks::boyer::is_tautology(n) { "yes" } else { "no" };
            (format!("boyer({n}, R)"), "R", Expect::Atom(expected.to_string()))
        }
        BenchmarkId::Queens => {
            let n = queens::board_size(scale);
            let board = queens::first_solution(n).expect("every registry board size has a solution");
            (format!("queens({n}, Qs)"), "Qs", Expect::Queens(board))
        }
        BenchmarkId::Fib => {
            let n = fib::input(scale);
            (format!("fib({n}, F)"), "F", Expect::Int(host_fib(n)))
        }
    };
    Case { id, program, query, var, expect }
}

/// The registry's deriv expression shape (node kind chosen by `salt % 6`,
/// leaf kind by `salt % 3`) with random constants and atom names.
fn deriv_shape(depth: u32, salt: u32, rng: &mut Rng) -> Expr {
    if depth == 0 {
        return match salt % 3 {
            0 => Expr::Atom("x".to_string()),
            1 => Expr::Int(1 + rng.below(999_999) as i64),
            _ => Expr::Atom(format!("k{}", rng.below(1_000_000))),
        };
    }
    let left = Box::new(deriv_shape(depth - 1, salt * 2 + 1, rng));
    let right = Box::new(deriv_shape(depth - 1, salt * 2 + 2, rng));
    match salt % 6 {
        0 => Expr::Op('+', left, right),
        1 => Expr::Op('*', left, right),
        2 => Expr::Op('-', left, right),
        3 => Expr::Op('/', left, right),
        4 => Expr::Call("exp", left),
        _ => Expr::Call("log", Box::new(Expr::Op('+', left, right))),
    }
}

/// Map the distinct values of `pattern` monotonically onto fresh random
/// values: every comparison qsort makes has the same outcome.
fn relabel(pattern: &[i64], rng: &mut Rng) -> Vec<i64> {
    let mut distinct = pattern.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut fresh: Vec<i64> = Vec::new();
    while fresh.len() < distinct.len() {
        fresh.push(rng.below(1_000_000) as i64);
        fresh.sort_unstable();
        fresh.dedup();
    }
    pattern.iter().map(|v| fresh[distinct.binary_search(v).expect("value is in its own set")]).collect()
}

fn digits(n: usize, rng: &mut Rng) -> Vec<Vec<i64>> {
    (0..n).map(|_| (0..n).map(|_| rng.below(10) as i64).collect()).collect()
}

fn list_text(items: &[i64]) -> String {
    let inner: Vec<String> = items.iter().map(i64::to_string).collect();
    format!("[{}]", inner.join(","))
}

fn matrix_text(m: &[Vec<i64>]) -> String {
    let rows: Vec<String> = m.iter().map(|r| list_text(r)).collect();
    format!("[{}]", rows.join(","))
}

fn host_tak(x: i64, y: i64, z: i64) -> i64 {
    if x <= y {
        z
    } else {
        host_tak(host_tak(x - 1, y, z), host_tak(y - 1, z, x), host_tak(z - 1, x, y))
    }
}

fn host_fib(n: i64) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

fn host_multiply(a: &[Vec<i64>], b: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let n = a.len();
    (0..n).map(|i| (0..n).map(|j| (0..n).map(|k| a[i][k] * b[k][j]).sum()).collect()).collect()
}
