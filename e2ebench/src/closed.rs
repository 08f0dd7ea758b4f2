//! The closed loop both batch workloads share: one caller submits a unit
//! (a batch of queries) as soon as the previous one returned, for the
//! run's measuring time, and checks every report against the reference.

use std::time::Instant;

use blast_cpu::report::SearchReport;

use crate::common::{self, Key, Outcome, Tally};
use crate::metrics::Sheet;
use crate::replay::name;
use crate::stats;
use crate::tracer::Tracer;

/// What one unit returned.
pub struct UnitResult {
    /// One entry per query, `None` for a query that failed.
    pub reports: Vec<Option<SearchReport>>,
    /// Modelled device milliseconds of the whole unit.
    pub device_ms: f64,
}

pub struct LoopStats {
    pub tally: Tally,
    pub problems: Vec<String>,
    /// Per query: from its unit's submission to the unit's return (all
    /// results of a batch arrive together).
    pub latencies_ms: Vec<f64>,
    pub unit_ms: Vec<f64>,
    /// Process CPU time of each timed unit, every thread included.
    pub unit_cpu_ms: Vec<f64>,
    pub elapsed_s: f64,
    pub ok_queries: u64,
    pub device_ms: f64,
    pub queries: usize,
    pub last_reports: Vec<Option<SearchReport>>,
}

impl LoopStats {
    /// The end-to-end result of an untraced loop. Throughput comes from
    /// the median unit, so one unit slowed by a noisy neighbour does not
    /// move it.
    pub fn outcome(self, setup: &common::SetupTimes) -> Outcome {
        let mut sheet = Sheet::end_to_end();
        sheet.set("setup_s", setup.seconds());
        let unit_p50 = stats::median(&self.unit_ms);
        let ok_per_unit = self.ok_queries as f64 / self.unit_ms.len().max(1) as f64;
        sheet.set("queries_per_s", ok_per_unit * 1e3 / unit_p50);
        sheet.set(
            "device_ms_per_query",
            self.device_ms / self.queries.max(1) as f64,
        );
        sheet.set("latency_p50_ms", stats::median(&self.latencies_ms));
        let tail = stats::tail(&self.latencies_ms);
        sheet.set("latency_tail_ms", tail.value);
        sheet.set("peak_rss_mb", common::peak_rss_mb());
        let notes = vec![
            setup.note(),
            format!(
                "latency: {} samples (one per query; a batch's queries share its latency), tail = p{:.1}",
                tail.samples, tail.percentile
            ),
            format!(
                "{} timed units in {:.2} s, unit p50 {unit_p50:.1} ms",
                self.unit_ms.len(),
                self.elapsed_s,
            ),
            format!(
                "process CPU time {:.1} ms per correct query (note only, not a gated metric)",
                stats::sum(&self.unit_cpu_ms) / self.ok_queries.max(1) as f64
            ),
            format!(
                "report digest {:016x}",
                common::digest_reports(&self.last_reports)
            ),
        ];
        Outcome {
            tally: self.tally,
            problems: self.problems,
            metrics: sheet.into_values(),
            notes,
        }
    }
}

/// Run `unit` once untimed (pools and caches fill), then back to back
/// until `seconds` have passed, at least `min_units` times. `between`
/// runs after each timed unit, outside its timing.
pub fn run(
    seconds: f64,
    min_units: usize,
    refs: &[Key],
    mut unit: impl FnMut() -> UnitResult,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<LoopStats, String> {
    let mut st = LoopStats {
        tally: Tally::default(),
        problems: Vec::new(),
        latencies_ms: Vec::new(),
        unit_ms: Vec::new(),
        unit_cpu_ms: Vec::new(),
        elapsed_s: 0.0,
        ok_queries: 0,
        device_ms: 0.0,
        queries: refs.len(),
        last_reports: Vec::new(),
    };
    let warm = unit();
    check(&mut st, &warm, refs, None);
    st.device_ms = warm.device_ms;
    // The warm-up unit is checked but not counted.
    st.tally = Tally::default();
    st.ok_queries = 0;

    let t0 = Instant::now();
    while st.unit_ms.len() < min_units.max(1) || t0.elapsed().as_secs_f64() < seconds {
        let tu = Instant::now();
        let cu = common::process_cpu_ms();
        let out = unit();
        let ms = tu.elapsed().as_secs_f64() * 1e3;
        st.unit_cpu_ms.push(common::process_cpu_ms() - cu);
        st.unit_ms.push(ms);
        check(&mut st, &out, refs, Some(ms));
        if out.device_ms.to_bits() != st.device_ms.to_bits() {
            st.problems.push(format!(
                "modelled device time changed between identical units: {} vs {} ms",
                st.device_ms, out.device_ms
            ));
        }
        st.last_reports = out.reports;
        between()?;
    }
    st.elapsed_s = t0.elapsed().as_secs_f64();
    Ok(st)
}

fn check(st: &mut LoopStats, out: &UnitResult, refs: &[Key], unit_ms: Option<f64>) {
    if out.reports.len() != refs.len() {
        st.problems.push(format!(
            "unit returned {} reports for {} queries",
            out.reports.len(),
            refs.len()
        ));
    }
    for (r, key) in out.reports.iter().zip(refs) {
        if st.tally.check(r.as_ref(), key) {
            st.ok_queries += 1;
            if let Some(ms) = unit_ms {
                st.latencies_ms.push(ms);
            }
        }
    }
}

/// Identity keys of a unit's reports, for comparing a replay with it.
pub fn keys(reports: &[Option<SearchReport>]) -> Vec<Option<Key>> {
    reports
        .iter()
        .map(|r| r.as_ref().map(|r| r.identity_key()))
        .collect()
}

/// A traced closed-loop run.
pub struct Traced {
    /// The untraced units.
    pub st: LoopStats,
    pub tr: Tracer,
    /// Wall-clock of each replayed unit.
    pub traced_ms: Vec<f64>,
    pub problems: Vec<String>,
    /// `flatten_count()` delta per untraced unit, warm-up included.
    pub flattens: f64,
}

/// Untraced units through `unit` alternating with replays of the same
/// unit through `replay` for `seconds`, so both see the same host
/// conditions. The replayed reports must equal the end-to-end ones.
pub fn traced(
    seconds: f64,
    refs: &[Key],
    unit: impl FnMut() -> UnitResult,
    mut replay: impl FnMut(&mut Tracer) -> Result<Vec<SearchReport>, String>,
) -> Result<Traced, String> {
    let flattens0 = cublastp::flatten_count();
    let mut replay_flattens = 0;
    let mut tr = Tracer::new();
    let mut traced_ms = Vec::new();
    let mut replayed = Vec::new();
    let st = run(seconds, 1, refs, unit, || {
        let f0 = cublastp::flatten_count();
        let tu = Instant::now();
        let reports = tr.span(name::UNIT, 0, &mut replay)?;
        traced_ms.push(tu.elapsed().as_secs_f64() * 1e3);
        replay_flattens += cublastp::flatten_count() - f0;
        replayed.push(
            reports
                .iter()
                .map(|r| Some(r.identity_key()))
                .collect::<Vec<_>>(),
        );
        Ok(())
    })?;
    let flattens = (cublastp::flatten_count() - flattens0 - replay_flattens) as f64
        / (st.unit_ms.len() + 1) as f64;
    let e2e = keys(&st.last_reports);
    let mut problems = st.problems.clone();
    if replayed.iter().any(|r| *r != e2e) {
        problems.push("replayed reports differ from the end-to-end reports".into());
    }
    Ok(Traced {
        st,
        tr,
        traced_ms,
        problems,
        flattens,
    })
}
