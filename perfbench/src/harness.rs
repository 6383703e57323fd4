//! The measurement harness shared by every workload: benchmark-side
//! spans around calls into the library, percentiles, and the run loop
//! (repeated set-up, a discarded warm-up pass, timed passes).

use std::collections::BTreeMap;
use std::time::Instant;

/// Benchmark-side spans and counts for one pass.
///
/// A span wraps one public call into a library layer and is named
/// `<crate>.<metric>`. Spans never nest (there are no spans inside the
/// library yet), so a span's self time is its duration. When disabled
/// the closures run with nothing recorded.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    /// `(name, seconds)` per closed span, in call order.
    pub spans: Vec<(&'static str, f64)>,
    /// `(name, value)` per recorded count or gauge.
    pub values: Vec<(&'static str, f64)>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// A tracer that keeps every span and count in memory.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside the span `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.spans.push((name, t.elapsed().as_secs_f64()));
        out
    }

    /// Runs `f` inside the span `name` and records as `alloc_name` the
    /// allocator high-water mark the call reached above its entry level,
    /// in MB.
    pub fn span_alloc<T>(
        &mut self,
        name: &'static str,
        alloc_name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        hamlet_obs::alloc::reset_peak();
        let base = hamlet_obs::alloc::current_bytes().unwrap_or(0);
        let out = self.span(name, f);
        let peak = hamlet_obs::alloc::peak_bytes().unwrap_or(0);
        self.value(alloc_name, peak.saturating_sub(base) as f64 / 1e6);
        out
    }

    /// Records a count or gauge (last write wins when summarised).
    pub fn value(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            self.values.push((name, v));
        }
    }

    /// Sum of every span's self time, in seconds.
    pub fn self_time_s(&self) -> f64 {
        self.spans.iter().map(|(_, s)| s).sum()
    }

    /// Self time summed per span name, plus every count (the last
    /// write of a name wins).
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for &(name, s) in &self.spans {
            *out.entry(name).or_insert(0.0) += s;
        }
        out.extend(self.values.iter().copied());
        out
    }
}

/// What one timed pass did. `Copy`, so that logging a pass allocates
/// nothing the allocator peak would count.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pass {
    /// Wall time of the pass's work, checks excluded, in seconds.
    pub wall_s: f64,
    /// Rows the pass processed; `rows_per_s` is the median over passes
    /// of `rows / wall_s`.
    pub rows: u64,
    /// Output checks made (one per operation).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Latency of the workload's unit operation in this pass, in
    /// seconds: the source of `latency_p50_ms`.
    pub latency_s: f64,
    /// Serving only: the single-row request's latency, in seconds.
    pub single_s: Option<f64>,
}

impl Pass {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Ends a pass cut short by a library error: one failed operation,
    /// timed up to the failure.
    pub fn failed_at(mut self, started: Instant) -> Pass {
        self.wall_s = started.elapsed().as_secs_f64();
        self.latency_s = self.wall_s;
        self.check(false);
        self
    }
}

/// A prepared workload: set-up has run, passes can be timed.
pub trait Workload {
    /// Runs one pass, recording spans into `tracer`, and checks its
    /// outputs against the references made in set-up.
    fn pass(&mut self, tracer: &mut Tracer) -> Pass;
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("core.advise_s", || 7), 7);
        t.value("core.joins_avoided", 1.0);
        assert!(t.spans.is_empty() && t.values.is_empty());
    }

    #[test]
    fn totals_sum_repeated_spans_and_keep_last_counts() {
        let mut t = Tracer::on();
        t.spans.push(("a", 1.0));
        t.spans.push(("b", 2.0));
        t.spans.push(("a", 0.5));
        t.value("c", 1.0);
        t.value("c", 4.0);
        let totals: Vec<(&str, f64)> = t.totals().into_iter().collect();
        assert_eq!(totals, vec![("a", 1.5), ("b", 2.0), ("c", 4.0)]);
        assert_eq!(t.self_time_s(), 3.5);
    }
}
