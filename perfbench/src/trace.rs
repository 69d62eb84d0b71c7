//! Benchmark-side spans around calls into the stack's public API.
//!
//! Spans are kept in memory and written out once, when the traced run ends.
//! A disabled tracer reads no clock.

use crate::report::{json_str, num};
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub batch: Option<u64>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; `None` when tracing is off.
    pub fn open(&mut self, name: &str, parent: Option<usize>, batch: Option<u64>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            batch,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            let end = self.epoch.elapsed().as_secs_f64();
            if let Some(s) = self.spans.get_mut(i) {
                s.end = end;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        batch: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, batch);
        let r = f();
        self.close(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                s,
                "{{\"id\": {i}, \"name\": {}, \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"batch\": {}}}",
                json_str(&sp.name),
                num(sp.start),
                num(sp.end),
                opt(sp.parent.map(|p| p as u64)),
                opt(sp.batch)
            );
        }
        s.push(']');
        s
    }
}
