//! Answer checks that do not trust the engine.
//!
//! The expected values come from host computations (`inputs`), and the
//! engine's rendered answer is read back by a parser of this file's own —
//! so a wrong answer cannot hide behind the engine's printer or the
//! registry's own engine-vs-engine comparison.  `differentiate` is written
//! from the clauses of `d/3` in the deriv program.

use crate::inputs::{Case, Expect};

/// An arithmetic expression of the deriv program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    Int(i64),
    Atom(String),
    /// Binary `+ - * /`.
    Op(char, Box<Expr>, Box<Expr>),
    /// `exp(_)` or `log(_)`.
    Call(&'static str, Box<Expr>),
}

impl Expr {
    /// Query text, fully parenthesised like the registry's expressions.
    pub fn to_prolog(&self) -> String {
        match self {
            Expr::Int(i) => i.to_string(),
            Expr::Atom(a) => a.clone(),
            Expr::Op(op, l, r) => format!("({} {op} {})", l.to_prolog(), r.to_prolog()),
            Expr::Call(f, e) => format!("{f}({})", e.to_prolog()),
        }
    }

    fn to_term(&self) -> Term {
        match self {
            Expr::Int(i) => Term::Int(*i),
            Expr::Atom(a) => Term::Atom(a.clone()),
            Expr::Op(op, l, r) => Term::Comp(op.to_string(), vec![l.to_term(), r.to_term()]),
            Expr::Call(f, e) => Term::Comp(f.to_string(), vec![e.to_term()]),
        }
    }
}

/// d(E, x, D): the clauses of `d/3`, first match wins (each has a cut).
/// The generated expressions have no unary minus, so its clause is left out.
pub fn differentiate(e: &Expr) -> Expr {
    let d = |e: &Expr| Box::new(differentiate(e));
    let b = |e: &Expr| Box::new(e.clone());
    match e {
        Expr::Op('+', u, v) => Expr::Op('+', d(u), d(v)),
        Expr::Op('-', u, v) => Expr::Op('-', d(u), d(v)),
        Expr::Op('*', u, v) => {
            Expr::Op('+', Box::new(Expr::Op('*', d(u), b(v))), Box::new(Expr::Op('*', b(u), d(v))))
        }
        Expr::Op('/', u, v) => Expr::Op(
            '/',
            Box::new(Expr::Op('-', Box::new(Expr::Op('*', d(u), b(v))), Box::new(Expr::Op('*', b(u), d(v))))),
            Box::new(Expr::Op('*', b(v), b(v))),
        ),
        Expr::Op(op, _, _) => panic!("deriv has no clause for {op}"),
        Expr::Call("exp", u) => Expr::Op('*', b(e), d(u)),
        Expr::Call("log", u) => Expr::Op('/', d(u), b(u)),
        Expr::Call(f, _) => panic!("deriv has no clause for {f}"),
        Expr::Atom(a) if a == "x" => Expr::Int(1),
        Expr::Atom(_) | Expr::Int(_) => Expr::Int(0),
    }
}

/// A parsed answer term.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Term {
    Int(i64),
    Atom(String),
    Comp(String, Vec<Term>),
    List(Vec<Term>),
}

/// Check one answer: `bindings` are the rendered `(variable, text)` pairs.
pub fn check(case: &Case, bindings: &[(String, String)]) -> Result<(), String> {
    let text = bindings
        .iter()
        .find(|(name, _)| name == case.var)
        .map(|(_, text)| text.as_str())
        .ok_or_else(|| format!("{}: no binding for {}", case.id.name(), case.var))?;
    let got = parse(text).map_err(|e| format!("{}: unreadable answer ({e})", case.id.name()))?;
    let ints = |t: &Term| -> Option<Vec<i64>> {
        match t {
            Term::List(items) => {
                items.iter().map(|i| if let Term::Int(v) = i { Some(*v) } else { None }).collect()
            }
            _ => None,
        }
    };
    let ok = match &case.expect {
        Expect::Int(v) => got == Term::Int(*v),
        Expect::Atom(a) => got == Term::Atom(a.clone()),
        Expect::IntList(v) => ints(&got).as_ref() == Some(v),
        Expect::Matrix(rows) => match &got {
            Term::List(items) => items.iter().map(ints).collect::<Option<Vec<_>>>().as_ref() == Some(rows),
            _ => false,
        },
        Expect::Queens(board) => {
            ints(&got).is_some_and(|b| &b == board && pwam_benchmarks::queens::is_safe(&b))
        }
        Expect::Deriv(d) => got == d.to_term(),
    };
    if ok {
        Ok(())
    } else {
        let shown: String = text.chars().take(120).collect();
        Err(format!("{}: wrong answer {}={shown}", case.id.name(), case.var))
    }
}

/// Parse a rendered term: integers, atoms, compounds, proper lists, and
/// the `+ - * /` operators with their standard priorities.
fn parse(text: &str) -> Result<Term, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let t = p.expr(1200)?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(format!("trailing text at byte {}", p.i));
    }
    Ok(t)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    /// Operator-precedence loop over the left-associative (yfx) operators.
    fn expr(&mut self, max: u16) -> Result<Term, String> {
        let mut left = self.primary()?;
        loop {
            let prec = match self.peek() {
                Some(b'+') | Some(b'-') => 500,
                Some(b'*') | Some(b'/') => 400,
                _ => return Ok(left),
            };
            if prec > max {
                return Ok(left);
            }
            let op = (self.s[self.i] as char).to_string();
            self.i += 1;
            let right = self.expr(prec - 1)?;
            left = Term::Comp(op, vec![left, right]);
        }
    }

    fn primary(&mut self) -> Result<Term, String> {
        match self.peek() {
            Some(b'(') => {
                self.i += 1;
                let t = self.expr(1200)?;
                self.expect(b')')?;
                Ok(t)
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if self.peek() != Some(b']') {
                    items = self.args()?;
                }
                self.expect(b']')?;
                Ok(Term::List(items))
            }
            Some(b'-') => {
                self.i += 1;
                if self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
                    return Ok(Term::Int(-self.integer()?));
                }
                Ok(Term::Comp("-".to_string(), vec![self.expr(200)?]))
            }
            Some(c) if c.is_ascii_digit() => Ok(Term::Int(self.integer()?)),
            Some(c) if c.is_ascii_lowercase() => {
                let start = self.i;
                while self.i < self.s.len()
                    && (self.s[self.i].is_ascii_alphanumeric() || self.s[self.i] == b'_')
                {
                    self.i += 1;
                }
                let name = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
                if self.s.get(self.i) == Some(&b'(') {
                    self.i += 1;
                    let args = self.args()?;
                    self.expect(b')')?;
                    return Ok(Term::Comp(name, args));
                }
                Ok(Term::Atom(name))
            }
            other => Err(format!("unexpected {:?} at byte {}", other.map(char::from), self.i)),
        }
    }

    fn args(&mut self) -> Result<Vec<Term>, String> {
        // Arguments bind tighter than the comma (priority 999).
        let mut out = vec![self.expr(999)?];
        while self.peek() == Some(b',') {
            self.i += 1;
            out.push(self.expr(999)?);
        }
        Ok(out)
    }

    fn integer(&mut self) -> Result<i64, String> {
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i].is_ascii_digit() {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i]).unwrap().parse().map_err(|e| format!("{e}"))
    }
}
