//! In-memory span recorder.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into each crate's public functions (the engines carry no
//! instrumentation yet). A disabled recorder reads no clock and stores
//! nothing, so an untraced op pays one branch per boundary.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::clock;

/// One closed span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<u32>,
    /// Id of the op this span belongs to; spans of one op share it.
    pub op: u64,
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[must_use]
pub struct Open(Option<u32>);

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    stack: Vec<u32>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder that starts disabled.
    pub fn new() -> Recorder {
        Recorder { enabled: false, epoch: clock::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        clock::now().duration_since(self.epoch).as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        self.spans[index as usize].end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost-first");
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds and span count per span name.
    pub fn busy_by_name(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns) as f64 / 1e9;
            e.1 += 1;
        }
        out
    }

    /// The recorded spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        use serde_json::Value;
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::U64(p.into()))),
                    ("op".into(), Value::U64(s.op)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::U64(seed)),
            ("spans".into(), Value::Array(spans)),
        ]);
        serde_json::to_string(&doc).expect("span serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut r = Recorder::new();
        assert_eq!(r.span("a", || 7), 7);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_the_op_id() {
        let mut r = Recorder::new();
        r.set_enabled(true);
        r.set_op(3);
        let outer = r.enter("op");
        r.span("inner", || std::hint::black_box(1 + 1));
        r.span("inner", || ());
        r.exit(outer);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("op", None, 3));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(r.busy_by_name()["inner"].1, 2);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let mut r = Recorder::new();
        r.set_enabled(true);
        r.span("a", || ());
        let doc = serde_json::parse_value_complete(&r.to_json("w", 42)).unwrap();
        assert_eq!(doc.field("workload"), &serde_json::Value::Str("w".into()));
        match doc.field("spans") {
            serde_json::Value::Array(spans) => assert_eq!(spans.len(), 1),
            other => panic!("spans must be an array, got {other:?}"),
        }
    }
}
