//! Data-plane replays for the `runtime-*` workloads.
//!
//! Two parts, both single-threaded and timed from outside the calls:
//!
//! * the **job budget** — everything one job of the workload's shape sends
//!   through `alm-workloads`, `alm-shuffle`, `alm-core::alg` and `alm-dfs`
//!   on its fault-free path, stage by stage, in the order and with the
//!   parameters `alm-runtime`'s map and reduce tasks use. Its rows sum to
//!   `runtime.replay_cpu_s`; what the threaded job's CPU time exceeds that
//!   by (`runtime.residue_s`) is polling, heartbeats, copies, channel
//!   traffic — and, on `runtime-crash`, the recovery work itself;
//! * the **rungs** — fixed-size throughput measurements of single
//!   functions, so a change to one of them has a number of its own.

use std::hint::black_box;
use std::sync::Arc;

use alm_core::{
    recover_state, recover_state_with_report, spawn_participants, AnalyticsLogger, LogPaths, LogRecord,
    MpqLogEntry, PartialOutput, Participant, StageLog,
};
use alm_dfs::{DfsCluster, Topology};
use alm_runtime::{JobDef, MiniCluster};
use alm_shuffle::segment::build_segment;
use alm_shuffle::{
    bytewise_cmp, frame, merger, KeyCmp, LocalFs, MapOutputBuffer, MemFs, MergeQueue, ReduceBuffers,
    SegmentReader, SegmentSource,
};
use alm_types::{AlmConfig, JobId, NodeId, ReplicationLevel, TaskId, YarnConfig};
use alm_workloads::reference::{canonicalize, reference_output};
use alm_workloads::{Record, Terasort, Wordcount, Workload as MrWorkload};
use bytes::Bytes;
use rand::RngCore;

use crate::clock;
use crate::metrics::Metrics;
use crate::workloads::runtime_jobs::{Shape, NODES};

const MB: f64 = 1_000_000.0;

fn mb_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / MB / secs
}

/// A DFS configured exactly as `MiniCluster::for_tests(NODES)` builds its.
fn test_dfs(config: &YarnConfig) -> DfsCluster {
    DfsCluster::with_policy(
        Topology::even(NODES, MiniCluster::test_racks(NODES)),
        config.dfs_block_size,
        config.dfs_replication,
        config.dfs_verify_on_read,
        config.dfs_repair_concurrency,
    )
}

/// Seconds per stage of one replayed job, plus the byte counts the
/// throughput figures divide by.
#[derive(Default)]
struct JobBudget {
    gen_split_s: f64,
    kvbuffer_s: f64,
    mof_read_s: f64,
    fetcher_s: f64,
    mpq_reduce_s: f64,
    alg_s: f64,
    dfs_commit_s: f64,
    input_bytes: u64,
    shuffled_bytes: u64,
    output_bytes: u64,
    /// Bytes `PartialOutput::flush` handed to `DfsCluster::write`.
    flushed_bytes: u64,
}

impl JobBudget {
    fn total_s(&self) -> f64 {
        self.gen_split_s
            + self.kvbuffer_s
            + self.mof_read_s
            + self.fetcher_s
            + self.mpq_reduce_s
            + self.alg_s
            + self.dfs_commit_s
    }
}

/// Replay one job of `shape` through the data plane, one stage at a time.
fn job_budget(shape: &Shape, seed: u64) -> JobBudget {
    let config = YarnConfig::scaled_for_tests();
    let alm =
        AlmConfig { logging_interval_ms: shape.logging_interval_ms, ..AlmConfig::with_mode(shape.mode) };
    let workload: Arc<dyn MrWorkload> = Arc::new(Terasort::new(shape.records_per_map));
    let job = JobDef::new(JobId(0), workload.clone(), shape.maps, shape.reduces, seed, alm.clone());
    let cmp = job.key_cmp();
    let fs = MemFs::new();
    let dfs = test_dfs(&config);
    let mut b = JobBudget::default();

    // ---- map side, as `run_map` ----
    let mut mofs = Vec::with_capacity(shape.maps as usize);
    for m in 0..shape.maps {
        let t = clock::now();
        let records = workload.gen_split(m, seed);
        b.gen_split_s += clock::secs_since(t);
        b.input_bytes += records.iter().map(Record::wire_size).sum::<u64>();

        let t = clock::now();
        let mut buffer = MapOutputBuffer::new(
            cmp.clone(),
            job.combiner(),
            shape.reduces,
            (config.map_heap_bytes / 4).max(4096),
            format!("map/{}/", job.map_task(m).attempt(0)),
        );
        for rec in &records {
            workload.map(rec, &mut |out| {
                let p = workload.partition(&out.key, shape.reduces);
                buffer.collect(&fs, p, out.key, out.value).expect("replay store is alive");
            });
        }
        mofs.push(buffer.finish(&fs).expect("replay store is alive"));
        b.kvbuffer_s += clock::secs_since(t);
    }

    // ---- reduce side, as `run_reduce` on its fresh, regular path ----
    for r in 0..shape.reduces {
        let attempt = job.reduce_task(r).attempt(0);
        let node = NodeId(r % NODES);
        let paths = LogPaths::for_task(attempt.task);
        let epoch = clock::now();
        let now_ms = || (clock::secs_since(epoch) * 1000.0) as u64;

        let mut logger = None;
        let mut output = PartialOutput::new(&paths);
        if alm.mode.logs_enabled() {
            let t = clock::now();
            black_box(recover_state_with_report(Some(&fs), &dfs, &paths));
            output = PartialOutput::restore(&paths, &dfs).expect("nothing to restore is not an error");
            logger = Some(AnalyticsLogger::new(&alm, attempt));
            b.alg_s += clock::secs_since(t);
        }

        let t = clock::now();
        let parts: Vec<Bytes> =
            mofs.iter().map(|mof| mof.read_partition(&fs, r).expect("replayed MOF is intact")).collect();
        b.mof_read_s += clock::secs_since(t);
        b.shuffled_bytes += parts.iter().map(|p| p.len() as u64).sum::<u64>();

        let t = clock::now();
        let mut logging_s = 0.0;
        let mut buffers = ReduceBuffers::new(
            cmp.clone(),
            format!("reduce/{attempt}/"),
            config.shuffle_buffer_bytes().max(1024),
            config.merge_spill_fraction,
        );
        for (m, data) in parts.into_iter().enumerate() {
            buffers.ingest(&fs, m as u32, data).expect("replay store is alive");
        }
        if let Some(lg) = logger.as_mut() {
            let tl = clock::now();
            lg.maybe_log_shuffle(now_ms(), &fs, &mut buffers).expect("replay store is alive");
            let disk: Vec<String> = buffers.on_disk_paths().to_vec();
            lg.maybe_log_merge(now_ms(), &fs, 0.0, &disk).expect("replay store is alive");
            logging_s += clock::secs_since(tl);
        }
        let readers = buffers.finalize(&fs, config.io_sort_factor).expect("replay store is alive");
        b.fetcher_s += clock::secs_since(t) - logging_s;
        b.alg_s += logging_s;

        // The reduce stage: drain the MPQ in key groups through the user
        // reduce function; every 32 groups is a safe point where the
        // logger, if any, decides by the clock whether a snapshot is due.
        let t = clock::now();
        let mut logging_s = 0.0;
        let mut q = MergeQueue::new(cmp.clone(), readers);
        let (mut processed, mut groups, mut flushed_records) = (0u64, 0u64, 0u64);
        while let Some((gk, gv)) = q.pop().expect("replayed segments decode") {
            let mut vals = vec![gv.to_vec()];
            while q.peek().is_some_and(|(nk, _)| workload.same_group(&gk, nk)) {
                let (_, v) = q.pop().expect("replayed segments decode").expect("peeked record exists");
                vals.push(v.to_vec());
            }
            processed += vals.len() as u64;
            workload.reduce(&gk, &vals, &mut |rec| output.append(&rec.key, &rec.value));
            groups += 1;
            if groups.is_multiple_of(32) {
                if let Some(lg) = logger.as_mut() {
                    let tl = clock::now();
                    let pending_bytes = output.bytes();
                    let logged = lg
                        .maybe_log_reduce(now_ms(), &dfs, node, &q.snapshot(), processed, &mut output)
                        .expect("replay DFS is alive");
                    if logged.is_some() && output.records() > flushed_records {
                        b.flushed_bytes += pending_bytes;
                        flushed_records = output.records();
                    }
                    logging_s += clock::secs_since(tl);
                }
            }
        }
        b.mpq_reduce_s += clock::secs_since(t) - logging_s;
        b.alg_s += logging_s;
        b.output_bytes += output.bytes();

        let t = clock::now();
        output
            .commit(&dfs, node, ReplicationLevel::Cluster, &job.output_path(r))
            .expect("replay DFS is alive");
        b.dfs_commit_s += clock::secs_since(t);
    }
    b
}

/// `n` Terasort records as key/value pairs; `split` picks an independent
/// stream of the generator.
fn terasort_records(n: usize, seed: u64, split: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
    Terasort::new(n as u32).gen_split(split, seed).into_iter().map(|r| (r.key, r.value)).collect()
}

/// `k` sorted in-memory segments holding `total` records between them.
fn sorted_segments(k: usize, total: usize, seed: u64, split: u32) -> Vec<Bytes> {
    let mut records = terasort_records(total, seed, split);
    records
        .chunks_mut(total.div_ceil(k))
        .map(|chunk| {
            chunk.sort();
            build_segment(chunk)
        })
        .collect()
}

fn readers(segments: &[Bytes], id_base: u64) -> Vec<SegmentReader> {
    segments
        .iter()
        .enumerate()
        .map(|(i, s)| {
            SegmentReader::new(SegmentSource::Memory { id: id_base + i as u64 }, s.clone())
                .expect("built segment decodes")
        })
        .collect()
}

/// Drain a k-way merge, returning the seconds it took.
fn merge_secs(cmp: &KeyCmp, segments: &[Bytes]) -> f64 {
    let t = clock::now();
    let mut q = MergeQueue::new(cmp.clone(), readers(segments, 0));
    let mut n = 0u64;
    while let Some((k, _)) = q.pop().expect("built segment decodes") {
        n += k.len() as u64;
    }
    black_box(n);
    clock::secs_since(t)
}

/// Collect `records` into a map-side buffer and finish it.
fn kvbuffer_secs(records: &[(u32, Vec<u8>, Vec<u8>)], parts: u32, threshold: u64, job: &JobDef) -> f64 {
    let fs = MemFs::new();
    let t = clock::now();
    let mut buf = MapOutputBuffer::new(job.key_cmp(), job.combiner(), parts, threshold, "m/");
    for (p, k, v) in records {
        buf.collect(&fs, *p, k.clone(), v.clone()).expect("replay store is alive");
    }
    black_box(buf.finish(&fs).expect("replay store is alive").total_bytes());
    clock::secs_since(t)
}

fn shuffle_rungs(shape: &Shape, seed: u64, out: &mut Metrics) {
    let cmp = bytewise_cmp();
    let alm = AlmConfig::default();

    // kvbuffer: one map's worth of Terasort records, with and without
    // spill pressure; then one split of Wordcount through its combiner.
    let terasort: Arc<dyn MrWorkload> = Arc::new(Terasort::new(shape.records_per_map));
    let ts_job = JobDef::new(JobId(0), terasort.clone(), 1, shape.reduces, seed, alm.clone());
    let ts: Vec<(u32, Vec<u8>, Vec<u8>)> = terasort
        .gen_split(0, seed)
        .into_iter()
        .map(|r| (terasort.partition(&r.key, shape.reduces), r.key, r.value))
        .collect();
    let ts_bytes: u64 = ts.iter().map(|(_, k, v)| (k.len() + v.len() + 8) as u64).sum();
    out.set(
        "shuffle.kvbuffer.mb_per_s",
        mb_per_s(ts_bytes, kvbuffer_secs(&ts, shape.reduces, u64::MAX, &ts_job)),
    );
    out.set(
        "shuffle.kvbuffer.spill.mb_per_s",
        mb_per_s(ts_bytes, kvbuffer_secs(&ts, shape.reduces, 128 * 1024, &ts_job)),
    );
    let wordcount: Arc<dyn MrWorkload> = Arc::new(Wordcount::new(200_000, 20));
    let wc_job = JobDef::new(JobId(0), wordcount.clone(), 1, shape.reduces, seed, alm);
    let mut wc = Vec::new();
    for line in wordcount.gen_split(0, seed) {
        wordcount.map(&line, &mut |r| wc.push((wordcount.partition(&r.key, shape.reduces), r.key, r.value)));
    }
    let wc_bytes: u64 = wc.iter().map(|(_, k, v)| (k.len() + v.len() + 8) as u64).sum();
    out.set(
        "shuffle.kvbuffer.combine.mb_per_s",
        mb_per_s(wc_bytes, kvbuffer_secs(&wc, shape.reduces, 256 * 1024, &wc_job)),
    );

    // frame: checksum alone, then frame + unframe.
    let mut payload = vec![0u8; 8 << 20];
    alm_des::rng::stream(seed, "benchmark/frame-payload").fill_bytes(&mut payload);
    let t = clock::now();
    black_box(frame::crc32(&payload));
    out.set("shuffle.frame.crc32_mb_per_s", mb_per_s(payload.len() as u64, clock::secs_since(t)));
    let t = clock::now();
    let framed = Bytes::from(frame::frame(&payload));
    black_box(frame::unframe(&framed).expect("fresh frame verifies").len());
    out.set("shuffle.frame.roundtrip_mb_per_s", mb_per_s(payload.len() as u64, clock::secs_since(t)));

    // mpq: the same 120k records as 6 runs (one per map, as the reducers
    // of these workloads see) and as 64.
    for (metric, k) in [("shuffle.mpq.merge_mb_per_s.k6", 6), ("shuffle.mpq.merge_mb_per_s.k64", 64)] {
        let segments = sorted_segments(k, 120_000, seed, 1);
        let bytes: u64 = segments.iter().map(|s| s.len() as u64).sum();
        out.set(metric, mb_per_s(bytes, merge_secs(&cmp, &segments)));
    }

    // fetcher: 24 fetched partitions against a 4 MB budget, so segments
    // are merged out to disk as they arrive and factor-merged at the end
    // (at the workloads' own sizes everything fits in memory and the
    // fetcher does no work worth timing).
    let fs = MemFs::new();
    let segments = sorted_segments(24, 120_000, seed, 2);
    let bytes: u64 = segments.iter().map(|s| s.len() as u64).sum();
    let t = clock::now();
    let mut buffers = ReduceBuffers::new(cmp.clone(), "r/", 4 << 20, 0.66);
    for (m, s) in segments.into_iter().enumerate() {
        buffers.ingest(&fs, m as u32, s).expect("replay store is alive");
    }
    let spilled = buffers.on_disk_paths().len();
    black_box(buffers.finalize(&fs, 10).expect("replay store is alive").len());
    let secs = clock::secs_since(t);
    assert!(spilled > 0, "the budget must force at least one in-memory merge to disk");
    out.set("shuffle.fetcher.ingest_mb_per_s", mb_per_s(bytes, secs));

    // merger: 24 on-disk runs down to io.sort.factor = 10.
    let fs = MemFs::new();
    let segments = sorted_segments(24, 120_000, seed, 3);
    let bytes: u64 = segments.iter().map(|s| s.len() as u64).sum();
    let paths: Vec<String> = (0..segments.len()).map(|i| format!("r/seg-{i}.out")).collect();
    for (p, s) in paths.iter().zip(&segments) {
        fs.write(p, s.clone()).expect("replay store is alive");
    }
    let t = clock::now();
    let (left, rounds) = merger::factor_merge(&fs, &cmp, paths, 10, "r/").expect("replay store is alive");
    let secs = clock::secs_since(t);
    assert!(rounds > 0 && left.len() <= 10, "factor merge must have merged something");
    out.set("shuffle.merger.factor_merge_mb_per_s", mb_per_s(bytes, secs));
}

/// A reduce-stage log record with a 6-entry MPQ snapshot — what a reducer
/// of these workloads logs.
fn reduce_record(attempt: alm_types::AttemptId, seq: u64) -> LogRecord {
    let mpq = (0..6u64)
        .map(|i| MpqLogEntry {
            source: SegmentSource::LocalFile { path: format!("reduce/{attempt}/final-{i}.out") },
            offset: i * 4096 + seq,
        })
        .collect();
    let stage = StageLog::Reduce {
        records_processed: seq * 32,
        mpq,
        output_path: "/alg/partial-output".into(),
        output_records: seq * 32,
    };
    LogRecord::new(attempt, seq, seq, stage)
}

fn alg_rungs(shape: &Shape, seed: u64, out: &mut Metrics) {
    let config = YarnConfig::scaled_for_tests();
    let attempt = TaskId::reduce(JobId(1), 0).attempt(0);
    let paths = LogPaths::for_task(attempt.task);

    // append: a reduce-stage snapshot with no new output to flush — record
    // encoding plus one small replicated DFS write.
    let dfs = test_dfs(&config);
    let alm = AlmConfig { logging_interval_ms: 1, ..AlmConfig::default() };
    let mut logger = AnalyticsLogger::new(&alm, attempt);
    let mut output = PartialOutput::new(&paths);
    let snapshot = MergeQueue::new(bytewise_cmp(), readers(&sorted_segments(6, 600, seed, 4), 0)).snapshot();
    const APPENDS: u64 = 2_000;
    let t = clock::now();
    for i in 0..APPENDS {
        // One logging interval apart on the logger's clock: always due.
        let logged = logger.maybe_log_reduce(i, &dfs, NodeId(0), &snapshot, i * 32, &mut output);
        assert!(logged.expect("replay DFS is alive").is_some(), "every append must be due");
    }
    out.set("alg.append.us_per_record", clock::secs_since(t) * 1e6 / APPENDS as f64);

    // recover: find the newest trustworthy record among N on the DFS.
    for (metric, n) in [("alg.recover.us.r1", 1u64), ("alg.recover.us.r16", 16), ("alg.recover.us.r128", 128)]
    {
        let dfs = test_dfs(&config);
        for seq in 0..n {
            dfs.write(
                &paths.dfs_record(seq),
                reduce_record(attempt, seq).encode(),
                NodeId(0),
                ReplicationLevel::Rack,
            )
            .expect("replay DFS is alive");
        }
        const RECOVERIES: u32 = 20;
        let t = clock::now();
        for _ in 0..RECOVERIES {
            assert!(!recover_state(None, &dfs, &paths).is_fresh(), "recovery must find the log");
        }
        out.set(metric, clock::secs_since(t) * 1e6 / f64::from(RECOVERIES));
    }

    // restore: reload one reducer's worth of flushed output.
    let dfs = test_dfs(&config);
    let per_reducer = (shape.maps * shape.records_per_map / shape.reduces) as usize;
    let mut partial = PartialOutput::new(&paths);
    for (k, v) in terasort_records(per_reducer, seed, 5) {
        partial.append(&k, &v);
    }
    let bytes = partial.bytes();
    partial.flush(&dfs, NodeId(0), ReplicationLevel::Rack).expect("replay DFS is alive");
    let t = clock::now();
    let restored = PartialOutput::restore(&paths, &dfs).expect("flushed output restores");
    let secs = clock::secs_since(t);
    assert_eq!(restored.records(), per_reducer as u64, "restore must see every flushed record");
    out.set("alg.restore.mb_per_s", mb_per_s(bytes, secs));
}

/// Fig. 14's shape: the same segments merged by four participant threads
/// feeding a global MPQ, and by one queue over all of them.
fn fcm_rungs(seed: u64, out: &mut Metrics) {
    let cmp = bytewise_cmp();
    let per_node: Vec<Vec<Bytes>> = (0..4).map(|n| sorted_segments(4, 30_000, seed, 10 + n)).collect();
    let all: Vec<Bytes> = per_node.iter().flatten().cloned().collect();
    let bytes: u64 = all.iter().map(|s| s.len() as u64).sum();

    let single = merge_secs(&cmp, &all);

    let t = clock::now();
    let participants = per_node
        .iter()
        .enumerate()
        .map(|(n, segs)| Participant { node: NodeId(n as u32), segments: readers(segs, n as u64 * 100) })
        .collect();
    let mut pipeline = spawn_participants(&cmp, participants, alm_core::sfm::fcm::DEFAULT_CHUNK_BYTES)
        .expect("participants start");
    let mut q = MergeQueue::new(cmp.clone(), std::mem::take(&mut pipeline.runs));
    let mut n = 0u64;
    while let Some((k, _)) = q.pop().expect("participant streams decode") {
        n += k.len() as u64;
    }
    black_box(n);
    drop(q);
    pipeline.join().expect("participant threads exit once drained");
    let collective = clock::secs_since(t);

    out.set("fcm.single.mb_per_s.n4", mb_per_s(bytes, single));
    out.set("fcm.collective.mb_per_s.n4", mb_per_s(bytes, collective));
    out.set("fcm.speedup", single / collective);
}

fn dfs_rungs(seed: u64, out: &mut Metrics) {
    let config = YarnConfig::scaled_for_tests();
    let mut payload = vec![0u8; 8 << 20];
    alm_des::rng::stream(seed, "benchmark/dfs-payload").fill_bytes(&mut payload);
    let payload = Bytes::from(payload);
    let small = payload.slice(0..1 << 20);
    let dfs = test_dfs(&config);
    let write = |path: &str, data: &Bytes| {
        dfs.write(path, data.clone(), NodeId(0), ReplicationLevel::Cluster).expect("replay DFS is alive");
    };

    let t = clock::now();
    for i in 0..8 {
        write(&format!("/bench/small-{i}"), &small);
    }
    out.set("dfs.write.mb_per_s.1m", mb_per_s(8 * small.len() as u64, clock::secs_since(t)));

    let t = clock::now();
    write("/bench/large", &payload);
    out.set("dfs.write.mb_per_s.8m", mb_per_s(payload.len() as u64, clock::secs_since(t)));

    // The partial-output pattern: one path rewritten with a growing file.
    let t = clock::now();
    let mut written = 0u64;
    for i in 1..=8 {
        let grown = payload.slice(0..i << 20);
        write("/bench/partial", &grown);
        written += grown.len() as u64;
    }
    out.set("dfs.overwrite.mb_per_s", mb_per_s(written, clock::secs_since(t)));

    let t = clock::now();
    let read = dfs.read("/bench/large").expect("written file reads back");
    out.set("dfs.read.mb_per_s", mb_per_s(read.len() as u64, clock::secs_since(t)));
    assert_eq!(read.len(), payload.len());

    // Repair: lose the writer's node, re-replicate everything it held.
    dfs.set_node_alive(NodeId(0), false);
    let t = clock::now();
    let repaired = dfs.repair();
    let secs = clock::secs_since(t);
    assert!(repaired > 0, "losing a replica holder must give repair work");
    out.set("dfs.repair.mb_per_s", mb_per_s(repaired, secs));
}

pub fn run(shape: &Shape, seed: u64, out: &mut Metrics) {
    let b = job_budget(shape, seed);
    assert!(b.input_bytes > 0 && b.output_bytes > 0, "the replayed job moved no bytes");

    // The budget rows. `runtime.replay_cpu_s` is their sum by construction.
    out.set("workloads.gen_split.busy_s", b.gen_split_s);
    out.set("shuffle.kvbuffer.busy_s", b.kvbuffer_s);
    out.set("shuffle.mof.read.busy_s", b.mof_read_s);
    out.set("shuffle.fetcher.busy_s", b.fetcher_s);
    out.set("shuffle.mpq.reduce.busy_s", b.mpq_reduce_s);
    out.set("alg.flush.busy_s", b.alg_s);
    out.set("dfs.commit.busy_s", b.dfs_commit_s);
    out.set("runtime.replay_cpu_s", b.total_s());
    if let Some(cpu) = out.get("runtime.cpu_per_job_s").filter(|c| *c > 0.0) {
        out.set("runtime.accounted_share", b.total_s() / cpu);
        out.set("runtime.residue_s", cpu - b.total_s());
    }

    out.set("workloads.gen_split.mb_per_s", mb_per_s(b.input_bytes, b.gen_split_s));
    out.set("shuffle.mof.read_mb_per_s", mb_per_s(b.shuffled_bytes, b.mof_read_s));
    out.set("alg.flush.mb_written_per_job", b.flushed_bytes as f64 / MB);
    out.set("alg.flush.write_amplification", b.flushed_bytes as f64 / b.output_bytes as f64);

    let t = clock::now();
    let workload = Terasort::new(shape.records_per_map);
    black_box(canonicalize(&reference_output(&workload, shape.maps, shape.reduces, seed)).len());
    out.set("workloads.reference.busy_s", clock::secs_since(t));

    shuffle_rungs(shape, seed, out);
    alg_rungs(shape, seed, out);
    fcm_rungs(seed, out);
    dfs_rungs(seed, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_types::RecoveryMode;

    fn tiny(mode: RecoveryMode, logging_interval_ms: u64) -> Shape {
        Shape {
            maps: 2,
            reduces: 2,
            records_per_map: 400,
            mode,
            logging_interval_ms,
            crash: false,
            reference_mode: None,
            jobs_per_cycle: 1,
        }
    }

    #[test]
    fn the_budget_moves_the_whole_job_and_its_rows_sum_to_the_total() {
        let shape = tiny(RecoveryMode::Baseline, 5_000);
        let b = job_budget(&shape, 3);
        assert_eq!(b.input_bytes, shape.input_bytes());
        assert_eq!(b.shuffled_bytes, shape.input_bytes(), "terasort shuffles what it reads");
        assert_eq!(b.output_bytes, shape.input_bytes(), "and writes what it shuffles");
        assert_eq!((b.alg_s, b.flushed_bytes), (0.0, 0), "Baseline never logs");
        let rows = b.gen_split_s
            + b.kvbuffer_s
            + b.mof_read_s
            + b.fetcher_s
            + b.mpq_reduce_s
            + b.alg_s
            + b.dfs_commit_s;
        assert_eq!(rows, b.total_s());
        assert!(b.total_s() > 0.0);
    }

    /// One reducer over enough records that its reduce stage outlasts
    /// several 1 ms logging intervals on any host.
    fn logging_shape() -> Shape {
        Shape { maps: 2, reduces: 1, records_per_map: 20_000, ..tiny(RecoveryMode::SfmAlg, 1) }
    }

    #[test]
    fn a_logging_shape_flushes_more_than_it_finally_writes() {
        let b = job_budget(&logging_shape(), 3);
        assert!(b.alg_s > 0.0);
        // Every snapshot rewrites the whole output so far, so a second
        // snapshot already pushes the flushed total past the final size.
        assert!(b.flushed_bytes > b.output_bytes, "flushed {} of {}", b.flushed_bytes, b.output_bytes);
    }

    #[test]
    fn every_rung_is_set_and_positive() {
        let mut out = Metrics::new();
        out.set("runtime.cpu_per_job_s", 1.0);
        run(&logging_shape(), 3, &mut out);
        for name in [
            "runtime.replay_cpu_s",
            "runtime.accounted_share",
            "workloads.gen_split.mb_per_s",
            "workloads.reference.busy_s",
            "shuffle.kvbuffer.mb_per_s",
            "shuffle.kvbuffer.spill.mb_per_s",
            "shuffle.kvbuffer.combine.mb_per_s",
            "shuffle.mof.read_mb_per_s",
            "shuffle.frame.crc32_mb_per_s",
            "shuffle.frame.roundtrip_mb_per_s",
            "shuffle.fetcher.ingest_mb_per_s",
            "shuffle.mpq.merge_mb_per_s.k6",
            "shuffle.mpq.merge_mb_per_s.k64",
            "shuffle.merger.factor_merge_mb_per_s",
            "alg.append.us_per_record",
            "alg.flush.write_amplification",
            "alg.recover.us.r1",
            "alg.recover.us.r128",
            "alg.restore.mb_per_s",
            "fcm.collective.mb_per_s.n4",
            "fcm.single.mb_per_s.n4",
            "fcm.speedup",
            "dfs.write.mb_per_s.1m",
            "dfs.write.mb_per_s.8m",
            "dfs.overwrite.mb_per_s",
            "dfs.read.mb_per_s",
            "dfs.repair.mb_per_s",
        ] {
            assert!(
                out.get(name).is_some_and(|v| v > 0.0),
                "{name} must be positive, got {:?}",
                out.get(name)
            );
        }
        let rows: f64 = [
            "workloads.gen_split.busy_s",
            "shuffle.kvbuffer.busy_s",
            "shuffle.mof.read.busy_s",
            "shuffle.fetcher.busy_s",
            "shuffle.mpq.reduce.busy_s",
            "alg.flush.busy_s",
            "dfs.commit.busy_s",
        ]
        .iter()
        .map(|n| out.get(n).unwrap())
        .sum();
        assert_eq!(rows, out.get("runtime.replay_cpu_s").unwrap());
    }
}
