//! Whole-experiment reports.

use serde::Serialize;
use std::collections::BTreeMap;

use crate::series::Series;
use crate::table::TextTable;
use crate::timeline::Timeline;

/// Everything one figure/table reproduction produced: parameterisation,
/// series/tables/timelines, and free-form observations. Renders as text for
/// the console and serialises to JSON for EXPERIMENTS.md bookkeeping.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct ExperimentReport {
    /// Experiment id, e.g. "fig8" or "table2".
    pub id: String,
    /// Human title, e.g. "ALG vs YARN under single ReduceTask failures".
    pub title: String,
    /// Parameters the run used (workload, sizes, seed, modes).
    pub params: BTreeMap<String, String>,
    pub series: Vec<Series>,
    pub tables: Vec<TextTable>,
    pub timelines: Vec<Timeline>,
    /// Headline observations, e.g. computed average improvements.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> ExperimentReport {
        ExperimentReport { id: id.into(), title: title.into(), ..ExperimentReport::default() }
    }

    pub fn param(&mut self, key: impl Into<String>, value: impl ToString) -> &mut Self {
        self.params.insert(key.into(), value.to_string());
        self
    }

    pub fn note(&mut self, n: impl Into<String>) -> &mut Self {
        self.notes.push(n.into());
        self
    }

    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    pub fn render_text(&self) -> String {
        let mut out = format!("==== {} — {} ====\n", self.id, self.title);
        if !self.params.is_empty() {
            out.push_str("params: ");
            out.push_str(&self.params.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(", "));
            out.push('\n');
        }
        for t in &self.tables {
            out.push('\n');
            out.push_str(&t.render_text());
        }
        for s in &self.series {
            out.push('\n');
            out.push_str(&s.render_text());
        }
        for tl in &self.timelines {
            out.push('\n');
            out.push_str(&tl.render_text());
        }
        if !self.notes.is_empty() {
            out.push_str("\nnotes:\n");
            for n in &self.notes {
                out.push_str(&format!("  - {n}\n"));
            }
        }
        out
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_everything() {
        let mut r = ExperimentReport::new("fig3", "temporal amplification");
        r.param("workload", "wordcount");
        let mut tl = Timeline::new("reduce progress");
        tl.sample(0.0, 0.0);
        tl.annotate(48.0, "node crash");
        r.timelines.push(tl);
        r.note("second failure observed");
        let txt = r.render_text();
        for needle in ["fig3", "workload=wordcount", "node crash", "second failure"] {
            assert!(txt.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn series_lookup() {
        let mut r = ExperimentReport::new("x", "y");
        r.series.push(Series::new("alg", "x", "y"));
        assert!(r.series_named("alg").is_some());
        assert!(r.series_named("nope").is_none());
    }
}
