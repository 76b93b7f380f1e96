//! Interleaving model checks for the exec pool's chunked work queue,
//! using the `xseq-telemetry::sched` interleaving enumerator.
//!
//! N logical workers each run a script of `claim` ops; every interleaving
//! (or a seeded sample of a too-large space) replays against a reference
//! allocator — a plain sequential cursor.  The properties under test are
//! the ones the pool's determinism contract rests on:
//!
//! * claims are handed out in ascending range order regardless of which
//!   worker arrives when;
//! * the issued ranges are disjoint and cover `0..len` exactly once;
//! * a worker that claims after exhaustion gets `None`, forever;
//! * the `Pool::run` slot discipline (take-the-task, store-the-result)
//!   never observes an already-taken slot.

use xseq_exec::ChunkQueue;
use xseq_telemetry::sched::Schedules;

/// Replays `claims_per_thread[t]` claim ops per worker over every
/// interleaving, checking the real [`ChunkQueue`] against a reference
/// cursor allocator of the given `model_chunk`.  `model_chunk` equal to
/// the real chunk size must pass; a different one must diverge (the
/// checker's self-test uses that).
fn check_chunk_queue_model(
    claims_per_thread: &[usize],
    len: usize,
    chunk: usize,
    model_chunk: usize,
    limit: usize,
    seed: u64,
) -> Result<usize, String> {
    let schedules = Schedules::new(claims_per_thread, limit, seed);
    let mut failure: Option<String> = None;
    let visited = schedules.for_each(|sched| {
        if failure.is_some() {
            return;
        }
        if let Err(e) = run_schedule(claims_per_thread, len, chunk, model_chunk, sched) {
            failure = Some(format!("{e} (schedule {sched:?})"));
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(visited),
    }
}

fn run_schedule(
    claims_per_thread: &[usize],
    len: usize,
    chunk: usize,
    model_chunk: usize,
    sched: &[usize],
) -> Result<(), String> {
    let queue = ChunkQueue::new(len, chunk);
    let model_chunk = model_chunk.max(1);
    let mut model_cursor = 0usize;
    let mut cursor = vec![0usize; claims_per_thread.len()];
    // One result slot per item, mirroring Pool::run's task slots: a claim
    // "takes" every index in its range; taking a taken slot is the bug.
    let mut taken = vec![false; len];
    let mut covered = Vec::new();
    for (step, &t) in sched.iter().enumerate() {
        cursor[t] += 1;
        let real = queue.claim();
        let expect = if model_cursor >= len {
            None
        } else {
            let end = (model_cursor + model_chunk).min(len);
            let r = (model_cursor, end);
            model_cursor = end;
            Some(r)
        };
        if real != expect {
            return Err(format!(
                "step {step} (worker {t}): claim gave {real:?}, model expected {expect:?}"
            ));
        }
        if let Some((start, end)) = real {
            covered.push((start, end));
            for slot in &mut taken[start..end] {
                if *slot {
                    return Err(format!(
                        "step {step}: range {start}..{end} re-takes an already-taken slot"
                    ));
                }
                *slot = true;
            }
        }
    }
    // If the scripts performed enough claims to drain the queue, coverage
    // must be total and in ascending order.
    let total_claims: usize = claims_per_thread.iter().sum();
    if total_claims >= len.div_ceil(chunk.max(1)) {
        if !taken.iter().all(|&t| t) {
            return Err(format!("drained queue left unclaimed items: {taken:?}"));
        }
        if !covered.windows(2).all(|w| w[0].1 == w[1].0) {
            return Err(format!("claims not issued in ascending order: {covered:?}"));
        }
    }
    Ok(())
}

#[test]
fn exhaustive_small_space_is_clean() {
    // 3 workers x 3 claims over 6 items chunked by 2: 1680 interleavings,
    // enumerated exhaustively.
    let schedules = Schedules::new(&[3, 3, 3], 2000, 0);
    assert!(schedules.is_exhaustive());
    let visited = check_chunk_queue_model(&[3, 3, 3], 6, 2, 2, 2000, 0)
        .expect("chunk queue diverged from the reference allocator");
    assert_eq!(visited, 1680);
}

#[test]
fn uneven_tail_chunk_is_clean() {
    // 10 items chunked by 3 leaves a 1-item tail chunk; workers claim
    // more than the queue holds, exercising post-exhaustion Nones.
    let visited = check_chunk_queue_model(&[3, 3], 10, 3, 3, 100, 0)
        .expect("tail chunk diverged from the reference allocator");
    assert_eq!(visited, 20, "C(6,3) interleavings");
}

#[test]
fn single_item_chunks_match_task_claiming() {
    // chunk=1 is exactly Pool::run's task claiming; every slot is taken
    // exactly once under every arrival order.
    check_chunk_queue_model(&[4, 4], 5, 1, 1, 200, 0)
        .expect("task claiming diverged from the reference allocator");
}

#[test]
fn oversized_space_runs_a_seeded_sample() {
    let schedules = Schedules::new(&[8, 8, 8, 8], 500, 42);
    assert!(!schedules.is_exhaustive());
    let visited = check_chunk_queue_model(&[8, 8, 8, 8], 24, 2, 2, 500, 42)
        .expect("sampled schedules diverged from the reference allocator");
    assert_eq!(visited, 500);
}

#[test]
fn checker_detects_a_wrong_model() {
    // Self-test: a reference allocator with the wrong chunk size must
    // diverge, proving the harness can fail at all.
    let err = check_chunk_queue_model(&[2, 2], 8, 2, 3, 100, 0)
        .expect_err("mismatched model chunk sizes must diverge");
    assert!(err.contains("model expected"), "unexpected failure: {err}");
}

#[test]
fn empty_queue_yields_none_under_every_schedule() {
    check_chunk_queue_model(&[2, 2], 0, 4, 4, 100, 0)
        .expect("empty queue must return None to every claim");
}
