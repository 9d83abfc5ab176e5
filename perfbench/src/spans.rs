//! In-memory spans: `{request, id, parent, layer, name, start, end}`,
//! recorded around each layer call and written out when the run ends.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// A span recorder.  A disabled recorder only runs the wrapped calls, so
/// the end-to-end runs measure with tracing off.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        // Reserved up front so growing the buffer never lands inside a span.
        let spans = Vec::with_capacity(if enabled { 1 << 17 } else { 0 });
        Recorder { enabled, epoch: Instant::now(), spans }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span (closed by [`Recorder::close`]); `None` when disabled.
    pub fn open(
        &mut self,
        request: u64,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span { request, id, parent, layer, name, start_ns, end_ns: start_ns });
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now();
        }
    }

    /// Move a recorded span to another layer.
    pub fn relabel(&mut self, id: Option<usize>, layer: &'static str) {
        if let Some(id) = id {
            self.spans[id].layer = layer;
        }
    }

    /// Run `f` inside a span.
    pub fn record<T>(
        &mut self,
        request: u64,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, parent, layer, name);
        let out = f();
        self.close(id);
        out
    }

    /// Durations in µs of the spans of `layer`/`name` (`name` `None` =
    /// every span of the layer) of requests accepted by `keep`.
    pub fn micros(&self, layer: &str, name: Option<&str>, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && name.is_none_or(|n| s.name == n) && keep(s.request))
            .map(Span::micros)
            .collect()
    }

    /// Per request root span (no parent): `(request, root µs, self µs)`,
    /// where self time is what no child span covers.
    pub fn roots(&self) -> Vec<(u64, f64, f64)> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.micros();
            }
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.request, s.micros(), s.micros() - covered[s.id]))
            .collect()
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\": {}, \"id\": {}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.request, s.id, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
