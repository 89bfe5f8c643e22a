//! Event timelines for the profiling figures.
//!
//! Figures 3, 4 and 10 of the paper are *timelines*: reduce-phase progress
//! over wall-clock time annotated with failure events ("node crashes at
//! 48 s", "scheduler detects at 129 s", "second failure at 180 s").
//! [`Timeline`] captures both the sampled progress curve and the discrete
//! annotations.

use serde::Serialize;

/// A discrete annotated moment on a timeline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Annotation {
    pub at_secs: f64,
    pub label: String,
}

/// Progress-over-time with annotations.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct Timeline {
    pub name: String,
    /// `(seconds, progress in [0,1])` samples, in time order.
    pub samples: Vec<(f64, f64)>,
    pub annotations: Vec<Annotation>,
}

impl Timeline {
    pub fn new(name: impl Into<String>) -> Timeline {
        Timeline { name: name.into(), ..Timeline::default() }
    }

    /// Record a progress sample; out-of-order samples are rejected
    /// (debug-asserted) to keep the curve well-formed.
    pub fn sample(&mut self, at_secs: f64, progress: f64) {
        debug_assert!(
            self.samples.last().is_none_or(|&(t, _)| t <= at_secs),
            "timeline samples must be appended in time order"
        );
        self.samples.push((at_secs, progress.clamp(0.0, 1.0)));
    }

    pub fn annotate(&mut self, at_secs: f64, label: impl Into<String>) {
        self.annotations.push(Annotation { at_secs, label: label.into() });
    }

    /// Longest interval during which progress did not increase — the
    /// "stall" the temporal-amplification analysis highlights.
    pub fn longest_stall_secs(&self) -> f64 {
        let mut best = 0.0f64;
        let mut stall_start: Option<f64> = None;
        let mut last_progress = f64::NEG_INFINITY;
        for &(t, p) in &self.samples {
            if p > last_progress {
                if let Some(s) = stall_start.take() {
                    best = best.max(t - s);
                }
                last_progress = p;
                stall_start = Some(t);
            }
        }
        if let (Some(s), Some(&(t, _))) = (stall_start, self.samples.last()) {
            best = best.max(t - s);
        }
        best
    }

    /// ASCII rendering: a coarse progress strip plus the annotations.
    pub fn render_text(&self) -> String {
        let mut out = format!("## timeline: {}\n", self.name);
        for &(t, p) in &self.samples {
            let cols = (p * 50.0).round() as usize;
            out.push_str(&format!(
                "{t:>8.1}s |{}{}| {:5.1}%\n",
                "#".repeat(cols),
                " ".repeat(50 - cols),
                p * 100.0
            ));
        }
        for a in &self.annotations {
            out.push_str(&format!("  @ {:>7.1}s  {}\n", a.at_secs, a.label));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_and_queries() {
        let mut tl = Timeline::new("wordcount reduce");
        tl.sample(0.0, 0.0);
        tl.sample(10.0, 0.2);
        tl.sample(48.0, 0.5);
        tl.sample(129.0, 0.5); // stall: crash + detection window
        tl.sample(180.0, 0.8);
        tl.sample(200.0, 1.0);
        tl.annotate(48.0, "node crash");
        // The stall runs from the sample at 48 until progress rises at 180.
        assert!((tl.longest_stall_secs() - 132.0).abs() < 1e-9);
    }

    #[test]
    fn stall_of_monotone_curve_is_sample_gap() {
        let mut tl = Timeline::new("t");
        tl.sample(0.0, 0.1);
        tl.sample(1.0, 0.2);
        tl.sample(2.0, 0.3);
        assert!(tl.longest_stall_secs() <= 1.0 + 1e-9);
    }

    #[test]
    fn progress_clamped() {
        let mut tl = Timeline::new("t");
        tl.sample(0.0, -3.0);
        tl.sample(1.0, 7.0);
        assert_eq!(tl.samples[0].1, 0.0);
        assert_eq!(tl.samples[1].1, 1.0);
    }

    #[test]
    fn render_has_all_rows() {
        let mut tl = Timeline::new("t");
        tl.sample(0.0, 0.0);
        tl.sample(5.0, 1.0);
        tl.annotate(2.5, "failure injected");
        let txt = tl.render_text();
        assert!(txt.contains("failure injected"));
        assert_eq!(txt.lines().count(), 4);
    }
}
