//! `stream_short`: the NGS read stream the paper motivates. A closed loop
//! with one caller submits a batch of short reads against an
//! env_nr-shaped database parsed from FASTA, through `search_batch_with`
//! with grouped seeding and the CPU gapped backend.

use std::path::{Path, PathBuf};

use bio_seq::{Sequence, SequenceDb};
use cublastp::{search_batch_with, BatchOptions, SeedMode, DEFAULT_GROUP_BUDGET};

use crate::closed::{self, UnitResult};
use crate::common::{self, Args, Key, Outcome};
use crate::inputs::{make_db, make_queries, spread, DbShape};
use crate::metrics::{self, Sheet};
use crate::replay::{self, name, Ctx, Layers};

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub db: DbShape,
    pub reads: usize,
    pub read_len: (usize, usize),
}

pub const FULL: Shape = Shape {
    db: DbShape {
        name: "env_nr_shaped",
        subjects: 6_000,
        mean_len: 200,
        homolog_share: 0.02,
    },
    reads: 64,
    read_len: (40, 150),
};

pub struct Inputs {
    pub db: SequenceDb,
    pub reads: Vec<Sequence>,
}

pub fn inputs(seed: u64, shape: &Shape) -> Inputs {
    let reads = make_queries(
        seed,
        1,
        "read",
        &spread(shape.reads, shape.read_len.0, shape.read_len.1),
    );
    let db = make_db(seed, 2, &shape.db, &reads);
    Inputs { db, reads }
}

struct Files {
    db: PathBuf,
    reads: PathBuf,
}

fn write(inputs: &Inputs, dir: &Path) -> Result<Files, String> {
    let files = Files {
        db: dir.join("db.fa"),
        reads: dir.join("reads.fa"),
    };
    common::write_fasta(&files.db, inputs.db.sequences())?;
    common::write_fasta(&files.reads, &inputs.reads)?;
    Ok(files)
}

/// Set-up: from FASTA on disk to a database and reads ready to search.
/// (`search_batch_with` flattens the database itself, on every call.)
fn setup(files: &Files, name: &str) -> Result<(SequenceDb, Vec<Sequence>), String> {
    let db = SequenceDb::new(name, common::read_fasta(&files.db)?);
    let reads = common::read_fasta(&files.reads)?;
    Ok((db, reads))
}

/// One batch through the public entry point, with its modelled device
/// time: every member's kernels and PCIe legs, the grouped seeding passes
/// and index uploads, and the database upload the batch pays once.
pub fn unit(reads: &[Sequence], db: &SequenceDb, db_upload_ms: f64) -> UnitResult {
    let device = common::device();
    let out = search_batch_with(
        reads,
        common::params(),
        common::config(),
        device,
        db,
        BatchOptions {
            seed_mode: SeedMode::Grouped,
            ..BatchOptions::default()
        },
    );
    let mut device_ms = db_upload_ms;
    if let Some(g) = &out.grouped {
        for r in &g.rounds {
            device_ms += r.seeding_ms + device.transfer_ms(r.index_upload_bytes);
        }
    }
    let reports = out
        .per_query
        .into_iter()
        .map(|r| {
            r.ok().map(|r| {
                device_ms += common::modelled_ms(&r);
                r.report
            })
        })
        .collect();
    UnitResult { reports, device_ms }
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let generated = inputs(args.seed, &FULL);
    let files = write(&generated, dir)?;
    let (mut setup_times, (db, reads)) = common::timed_setup(|| setup(&files, FULL.db.name))?;
    if common::digest_db(&db) != common::digest_db(&generated.db) {
        return Err("parsed database differs from the generated one".into());
    }
    drop(generated);
    let refs: Vec<Key> = common::reference_keys(&reads, &db);
    let device = common::device();
    let dev_db = cublastp::DeviceDb::upload(&db, common::config().db_block_size);
    let upload_ms = common::db_upload_ms(&device, &dev_db);

    if !args.trace {
        let st = closed::run(
            args.seconds,
            2,
            &refs,
            || unit(&reads, &db, upload_ms),
            || setup_times.probe(common::SETUP_PROBE_S, || setup(&files, FULL.db.name)),
        )?;
        return Ok(st.outcome(&setup_times));
    }

    let ctx = Ctx::new();
    let mut layers = Layers::default();
    let t = closed::traced(
        args.seconds,
        &refs,
        || unit(&reads, &db, upload_ms),
        |tr| replay::walk_grouped(tr, &mut layers, &ctx, &reads, &db, DEFAULT_GROUP_BUDGET),
    )?;
    let units = t.traced_ms.len();
    let mut sheet = Sheet::per_layer();
    metrics::fill_layers(&mut sheet, &t.tr, &layers, units);
    sheet.set("bio-seq.parse_ms", parse_only(&files)?);
    let upload = t.tr.by_name().get(name::DB_UPLOAD).map_or(0.0, |s| s.0);
    sheet.set("cublastp.devicedata.upload_ms", upload / units as f64);
    sheet.set(
        "cublastp.devicedata.upload_bytes",
        dev_db.upload_bytes() as f64,
    );
    sheet.set("cublastp.devicedata.flattens", t.flattens);
    common::set_overhead(&mut sheet, &t.st.unit_ms, &t.traced_ms);
    common::set_attribution(
        &mut sheet,
        &t.tr,
        t.traced_ms.len(),
        crate::stats::median(&t.st.unit_cpu_ms),
    );
    common::traced_outcome(t.st.tally, t.problems, sheet, &t.tr, args)
}

/// Median time to parse both FASTA files, for `bio-seq.parse_ms`.
fn parse_only(files: &Files) -> Result<f64, String> {
    let (s, _) = common::timed_reps(5, || {
        common::read_fasta(&files.db)?;
        common::read_fasta(&files.reads)
    })?;
    Ok(s * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::digest_sequences;
    use crate::tracer::Tracer;

    const TINY: Shape = Shape {
        db: DbShape {
            name: "tiny",
            subjects: 300,
            mean_len: 120,
            homolog_share: 0.05,
        },
        reads: 6,
        read_len: (40, 90),
    };

    #[test]
    fn same_seed_same_inputs_and_digests() {
        let a = inputs(11, &TINY);
        let b = inputs(11, &TINY);
        let c = inputs(12, &TINY);
        assert_eq!(
            digest_sequences(a.db.sequences()),
            digest_sequences(b.db.sequences())
        );
        assert_eq!(digest_sequences(&a.reads), digest_sequences(&b.reads));
        assert_ne!(
            digest_sequences(a.db.sequences()),
            digest_sequences(c.db.sequences())
        );
        assert_ne!(digest_sequences(&a.reads), digest_sequences(&c.reads));

        let ua = unit(&a.reads, &a.db, 0.0);
        let ub = unit(&b.reads, &b.db, 0.0);
        assert_eq!(
            common::digest_reports(&ua.reports),
            common::digest_reports(&ub.reports)
        );
    }

    /// `device_ms_per_query` is a pure function of the inputs.
    #[test]
    fn device_ms_repeats_bit_exactly() {
        let a = inputs(5, &TINY);
        let first = unit(&a.reads, &a.db, 0.0).device_ms;
        let again = unit(&a.reads, &a.db, 0.0).device_ms;
        assert!(first > 0.0);
        assert_eq!(first.to_bits(), again.to_bits());
    }

    #[test]
    fn replay_matches_entry_point() {
        let a = inputs(7, &TINY);
        let e2e = closed::keys(&unit(&a.reads, &a.db, 0.0).reports);
        let ctx = Ctx::new();
        let mut tr = Tracer::new();
        let mut layers = Layers::default();
        let replayed = replay::walk_grouped(
            &mut tr,
            &mut layers,
            &ctx,
            &a.reads,
            &a.db,
            DEFAULT_GROUP_BUDGET,
        )
        .expect("replay runs");
        let keys: Vec<Option<Key>> = replayed.iter().map(|r| Some(r.identity_key())).collect();
        assert_eq!(keys, e2e);
        assert!(layers.rounds >= 1);
        let refs = common::reference_keys(&a.reads, &a.db);
        assert_eq!(keys, refs.into_iter().map(Some).collect::<Vec<_>>());
    }
}
