//! Pieces every workload shares: the simulated device and search settings,
//! the CPU reference, the result record and its JSON line.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use blast_cpu::report::SearchReport;
use blast_cpu::search::{search_sequential, SearchEngine};
use cublastp::{CuBlastpConfig, CuBlastpResult};
use gpu_sim::DeviceConfig;

use crate::metrics;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Settings every workload searches with: the paper's K20c model and the
/// library defaults (window extension, CPU gapped backend, overlap on).
pub fn device() -> DeviceConfig {
    DeviceConfig::k20c()
}

pub fn config() -> CuBlastpConfig {
    CuBlastpConfig::default()
}

pub fn params() -> SearchParams {
    SearchParams::default()
}

/// Hit-list identity of a report (subject, score and coordinates).
pub type Key = Vec<(usize, i32, u32, u32, u32, u32)>;

/// The CPU reference (`search_sequential`) for each query against `db`,
/// computed on every host core outside any timed region.
pub fn reference_keys(queries: &[Sequence], db: &SequenceDb) -> Vec<Key> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(queries.len().max(1));
    let mut out: Vec<Option<Key>> = vec![None; queries.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..queries.len())
                        .step_by(threads)
                        .map(|i| {
                            let engine = SearchEngine::new(queries[i].clone(), params(), db);
                            (i, search_sequential(&engine, db).report.identity_key())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, key) in h.join().expect("reference search thread panicked") {
                out[i] = Some(key);
            }
        }
    });
    out.into_iter()
        .map(|k| k.expect("every query has a reference"))
        .collect()
}

/// Modelled device time of one search result: simulated kernel time plus
/// the PCIe legs it was charged. Reads only fields built from the cost
/// model (`KernelStats` times and `transfer_ms` of byte counts).
pub fn modelled_ms(r: &CuBlastpResult) -> f64 {
    r.timing.gpu_ms + r.timing.h2d_ms + r.timing.d2h_ms
}

/// Modelled host→device time of a resident database, block by block.
pub fn db_upload_ms(device: &DeviceConfig, dev_db: &cublastp::DeviceDb) -> f64 {
    dev_db
        .blocks()
        .iter()
        .map(|(_, b)| device.transfer_ms(b.upload_bytes()))
        .sum()
}

/// Tallies of one run's attempts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// Errors and refusals (the program said no).
    pub failed: u64,
    /// Reports that differ from the reference (the program was wrong).
    pub mismatched: u64,
}

impl Tally {
    /// Score one search outcome against its reference key.
    pub fn check(&mut self, report: Option<&SearchReport>, reference: &Key) -> bool {
        self.check_key(report.map(|r| r.identity_key()).as_ref(), reference)
    }

    /// Score one outcome, given by its report's identity key.
    pub fn check_key(&mut self, key: Option<&Key>, reference: &Key) -> bool {
        self.attempted += 1;
        match key {
            None => {
                self.failed += 1;
                false
            }
            Some(k) if k == reference => true,
            Some(_) => {
                self.mismatched += 1;
                false
            }
        }
    }
}

/// The record one run prints as its last line.
pub struct Outcome {
    pub tally: Tally,
    /// Extra correctness failures (e.g. a replay that disagrees).
    pub problems: Vec<String>,
    pub metrics: metrics::Values,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.mismatched == 0 && self.problems.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    /// Mismatches count as failed attempts.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed + self.tally.mismatched,
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

/// CPU time this process has used so far (user + system, all threads),
/// in milliseconds, from `/proc/self/stat` (ticks of 1/100 s).
pub fn process_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) * 10.0)
        })
        .unwrap_or(0.0)
}

/// Cumulative `(steal, total)` CPU ticks of the host from `/proc/stat`:
/// time the hypervisor gave to other guests shows as steal. `None` where
/// the file is unavailable.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((v.get(7).copied().unwrap_or(0), v.iter().sum()))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
        })
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn write_fasta(path: &Path, seqs: &[Sequence]) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    bio_seq::fasta::write_fasta(&mut w, seqs, 80)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_fasta(path: &Path) -> Result<Vec<Sequence>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    bio_seq::read_fasta_strict(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run `f` `reps` times and return the median wall-clock seconds and the
/// last result.
pub fn timed_reps<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let v = f()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((
        crate::stats::median(&times),
        last.expect("at least one repetition"),
    ))
}

/// Set-up repetitions before the timed region, and the wall-clock of each
/// later probe. A set-up takes milliseconds, and on a shared host its
/// speed switches between a fast and a slow mode over spans of 0.1–1 s,
/// so `setup_s` samples the set-up at points spread over the whole run
/// rather than in one burst: the closed loops probe it after every unit,
/// the open loop before and after its schedule.
pub const SETUP_FIRST_REPS: usize = 9;
pub const SETUP_PROBE_S: f64 = 0.1;

/// Every set-up repetition of a run, in seconds.
pub struct SetupTimes {
    pub times: Vec<f64>,
}

impl SetupTimes {
    /// `setup_s`: the lower decile of the repetitions. The median of a
    /// two-mode sample jumps between the modes from run to run; the lower
    /// decile stays in the fast mode, which a run of 30 s always visits.
    pub fn seconds(&self) -> f64 {
        crate::stats::quantile(&self.times, 0.1)
    }

    /// Repeat the set-up `f` for `budget_s` (at least once), keeping only
    /// the times; each result is dropped before the next repetition.
    pub fn probe<T>(
        &mut self,
        budget_s: f64,
        mut f: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            let t = Instant::now();
            drop(f()?);
            self.times.push(t.elapsed().as_secs_f64());
            if t0.elapsed().as_secs_f64() >= budget_s {
                return Ok(());
            }
        }
    }

    pub fn note(&self) -> String {
        format!(
            "setup: {} repetitions, {:.2} s in all; p10 (setup_s) {:.3} ms, median {:.3} ms, p90 {:.3} ms",
            self.times.len(),
            crate::stats::sum(&self.times),
            self.seconds() * 1e3,
            crate::stats::median(&self.times) * 1e3,
            crate::stats::quantile(&self.times, 0.9) * 1e3,
        )
    }
}

/// Run the set-up `f` `SETUP_FIRST_REPS` times, dropping each result
/// before the next repetition starts, and return the times with the last
/// result, which the run searches.
pub fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(SetupTimes, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_FIRST_REPS {
        drop(last.take());
        let t = Instant::now();
        let v = f()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((SetupTimes { times }, last.expect("at least one repetition")))
}

/// Scratch directory for one run's generated files, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(base: &Path, args: &Args) -> Result<Self, String> {
        let dir = base.join(format!(
            "{}-seed{}-pid{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn digest_db(db: &SequenceDb) -> u64 {
    crate::inputs::digest_sequences(db.sequences())
}

/// Digest of a unit's reports by hit-list identity (`None` = failed).
pub fn digest_reports(reports: &[Option<SearchReport>]) -> u64 {
    let mut d = crate::inputs::Digest::new();
    for r in reports {
        let Some(r) = r else {
            d.u64(u64::MAX);
            continue;
        };
        d.u64(r.hits.len() as u64);
        for (s, score, qs, qe, ss, se) in r.identity_key() {
            d.u64(s as u64)
                .u64(score as u64)
                .u64(((qs as u64) << 32) | qe as u64)
                .u64(((ss as u64) << 32) | se as u64);
        }
    }
    d.finish()
}

/// Trace overhead: traced replay wall-clock over untraced wall-clock of
/// the same unit, minus one. Diagnostic only.
pub fn set_overhead(sheet: &mut metrics::Sheet, untraced_ms: &[f64], traced_ms: &[f64]) {
    let u = crate::stats::median(untraced_ms);
    let t = crate::stats::median(traced_ms);
    sheet.set("obs.untraced_unit_ms", u);
    sheet.set("obs.traced_unit_ms", t);
    sheet.set(
        "obs.trace_overhead_share",
        if u > 0.0 { t / u - 1.0 } else { 0.0 },
    );
}

/// Largest share of a replayed unit that layer spans may leave
/// unattributed before the traced run counts as incorrect.
pub const UNATTRIBUTED_BOUND: f64 = 0.10;

/// Largest share by which the layer spans' summed self-times per replayed
/// unit may differ from the same unit's untraced cost before the traced
/// run counts as incorrect: the layer breakdown must explain the
/// end-to-end unit it splits, not only the replay.
pub const ATTRIBUTION_BOUND: f64 = 0.25;

/// `obs.attribution_gap_share`: the layer spans' summed self-times per
/// replayed unit ÷ `untraced_ms` − 1, where `untraced_ms` is what the
/// same work cost through the entry point without tracing. The replay
/// runs every call on one thread, so the closed loops compare it with the
/// untraced unit's process CPU time, which counts the entry point's
/// overlap thread too.
pub fn set_attribution(sheet: &mut metrics::Sheet, tr: &crate::tracer::Tracer, units: usize, untraced_ms: f64) {
    let (total, own) = tr
        .by_name()
        .get(crate::replay::name::UNIT)
        .copied()
        .unwrap_or((0.0, 0.0));
    let attributed = (total - own) / units.max(1) as f64;
    sheet.set(
        "obs.attribution_gap_share",
        if untraced_ms > 0.0 { attributed / untraced_ms - 1.0 } else { 0.0 },
    );
}

/// The outcome of a traced run: writes the spans out and checks that the
/// layer spans account for the replayed wall-clock and for the untraced
/// unit.
pub fn traced_outcome(
    tally: Tally,
    mut problems: Vec<String>,
    sheet: metrics::Sheet,
    tr: &crate::tracer::Tracer,
    args: &Args,
) -> Result<Outcome, String> {
    let unattributed = sheet.get("obs.unattributed_share");
    if unattributed > UNATTRIBUTED_BOUND {
        problems.push(format!(
            "layer spans leave {:.1} % of the replay unattributed (bound {:.0} %)",
            unattributed * 100.0,
            UNATTRIBUTED_BOUND * 100.0
        ));
    }
    let gap = sheet.get("obs.attribution_gap_share");
    if gap.abs() > ATTRIBUTION_BOUND {
        problems.push(format!(
            "layer self-times differ from the untraced unit by {:+.1} % (bound {:.0} %)",
            gap * 100.0,
            ATTRIBUTION_BOUND * 100.0
        ));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, tr.to_chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut notes = vec![format!(
        "{} spans written to {}",
        tr.spans().len(),
        path.display()
    )];
    for (span, (total, own)) in tr.by_name() {
        notes.push(format!(
            "span {span:<42} total {total:>10.2} ms  self {own:>10.2} ms"
        ));
    }
    Ok(Outcome {
        tally,
        problems,
        metrics: sheet.into_values(),
        notes,
    })
}

