//! The benchmark's own spans, recorded around each public call into a
//! layer. They are kept in memory while a traced pass runs and written
//! out as JSON lines when the benchmark ends; with tracing off nothing
//! is recorded and a span costs two clock reads.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
struct Span {
    /// Layer call, e.g. `checkfence::mine_reference`.
    name: &'static str,
    /// Pass the span belongs to (set-up is pass 0).
    pass: usize,
    /// Request within the pass, shared by every span of that request.
    request: usize,
    /// Microseconds since the tracer was created.
    start_us: u64,
    /// Microseconds since the tracer was created.
    end_us: u64,
}

/// A span recorder; `on == false` records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pass: usize,
    request: usize,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            pass: 0,
            request: 0,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Labels the spans that follow with a pass and request id.
    pub fn at(&mut self, pass: usize, request: usize) {
        self.pass = pass;
        self.request = request;
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the elapsed time (measured whether or not recording is on).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start_us = self.now_us();
        let t0 = Instant::now();
        let out = f();
        let elapsed = t0.elapsed();
        if self.on {
            self.spans.push(Span {
                name,
                pass: self.pass,
                request: self.request,
                start_us,
                end_us: self.now_us(),
            });
        }
        (out, elapsed)
    }

    /// Total recorded time of the spans named `name` in `pass`.
    pub fn total(&self, pass: usize, name: &str) -> Duration {
        let us: u64 = self
            .spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(|s| s.end_us - s.start_us)
            .sum();
        Duration::from_micros(us)
    }

    /// Every span as one JSON object per line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"pass\":{},\"request\":{},\"start_us\":{},\"end_us\":{}}}",
                s.name, s.pass, s.request, s.start_us, s.end_us
            );
        }
        out
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}
