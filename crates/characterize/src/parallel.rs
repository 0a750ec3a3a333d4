//! Deterministic scoped-thread fan-out: the one place the crate spawns
//! workers.
//!
//! `fan_out` runs `n` independent tasks on a small pool that pulls task
//! indices from a shared cursor (dynamic scheduling, so a slow task never
//! blocks cheaper ones behind it) and returns the results **in index
//! order**, whatever the thread schedule. Two callers use it: the
//! multi-board [`crate::campaign::Campaign::run`] pool (one task per job)
//! and [`platform_fault_count`] (one task per contiguous chunk of
//! `BramId`s). Each per-BRAM count is a pure function of `(chip_seed, bram,
//! resolved condition)` and the reduction walks the results in `BramId`
//! order, so the parallel count is bit-identical to the sequential one —
//! pinned by `tests/parallel_identity.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use uvf_faults::{FaultModel, MaskPlan, ResolvedCondition, WeakCell};
use uvf_fpga::{BramId, DataPattern};

/// Threads worth using on this host (≥ 1). The sweep engine treats `0` and
/// `1` as "stay sequential".
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Observable flips of one BRAM against `pattern` under `resolved`.
#[must_use]
pub fn bram_fault_count(
    model: &FaultModel,
    pattern: DataPattern,
    resolved: &ResolvedCondition,
    bram: BramId,
) -> u64 {
    let mut count = 0u64;
    model.for_each_failing_resolved(bram, resolved, |cell| {
        count += u64::from(observable_against(pattern, bram, cell));
    });
    count
}

/// Run `task(i)` for every `i in 0..n` on up to `threads` scoped workers
/// (`<= 1`: on the calling thread) and return the results in index order.
pub(crate) fn fan_out<T: Send>(
    n: usize,
    threads: usize,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = threads.min(n).max(1);
    if workers == 1 {
        return (0..n).map(task).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Relaxed: the cursor only hands out indices; results are
                // published through the slot mutexes and the scope's join.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let out = task(i);
                *slots[i].lock().expect("fan-out slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("fan-out slot poisoned")
                .expect("fan-out pool exited with an unfilled slot")
        })
        .collect()
}

/// Observable flips across the whole BRAM pool, fanned over `threads`
/// workers. `threads <= 1` runs the sequential baseline; any other value
/// produces the same counts merged in the same (`BramId`) order.
#[must_use]
pub fn platform_fault_count(
    model: &FaultModel,
    pattern: DataPattern,
    resolved: &ResolvedCondition,
    threads: usize,
) -> u64 {
    let n_brams = model.platform().bram_count;
    // BRAM scan costs are near-uniform: one contiguous chunk per worker.
    let workers = threads.clamp(1, n_brams.max(1));
    let chunk = n_brams.div_ceil(workers).max(1);
    fan_out(n_brams.div_ceil(chunk), workers, |i| {
        let last = ((i + 1) * chunk).min(n_brams);
        (i * chunk..last)
            .map(|b| bram_fault_count(model, pattern, resolved, BramId(b as u32)))
            .sum::<u64>()
    })
    .iter()
    .sum()
}

/// Whether a flip of `cell` is observable against `pattern`: the one
/// predicate both the per-run and the batched counts apply.
fn observable_against(pattern: DataPattern, bram: BramId, cell: &WeakCell) -> bool {
    let stored = pattern.word(bram, u32::from(cell.row));
    cell.observable(stored & (1u16 << cell.bit) != 0)
}

/// Observable flips across the whole BRAM pool for *every* condition of a
/// ladder-level family at once — the [`MaskPlan`] fast path. `out[i]` is
/// bit-identical to `platform_fault_count(model, pattern, &conditions[i],
/// _)`: per-BRAM counts are `u64` sums accumulated in `BramId` order.
#[must_use]
pub fn platform_level_counts(
    model: &FaultModel,
    pattern: DataPattern,
    conditions: &[ResolvedCondition],
) -> Vec<u64> {
    let plan = MaskPlan::new(model, conditions.to_vec());
    let obs = |bram: BramId, cell: &WeakCell| observable_against(pattern, bram, cell);
    let mut totals = vec![0u64; conditions.len()];
    let mut per_bram = vec![0u64; conditions.len()];
    for b in 0..model.platform().bram_count as u32 {
        plan.bram_counts(BramId(b), obs, &mut per_bram);
        for (t, c) in totals.iter_mut().zip(&per_bram) {
            *t += c;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_faults::{run_seed, ReadCondition};
    use uvf_fpga::{PlatformKind, Rail};

    #[test]
    fn parallel_count_equals_sequential_for_any_thread_count() {
        let platform = PlatformKind::Zc702.descriptor();
        let model = FaultModel::new(platform);
        let vcrash = platform.vccbram.vcrash;
        let cond = ReadCondition {
            v: vcrash,
            temperature_c: 25.0,
            run_seed: run_seed(model.chip_seed(), Rail::Vccbram, vcrash, 0),
        };
        let resolved = model.resolve(&cond);
        let sequential = platform_fault_count(&model, DataPattern::AllOnes, &resolved, 1);
        assert!(sequential > 0, "no faults at Vcrash");
        for threads in [2, 3, 4, 7, 64, 1000] {
            assert_eq!(
                platform_fault_count(&model, DataPattern::AllOnes, &resolved, threads),
                sequential,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [0, 1, 2, 5, 64] {
            assert_eq!(fan_out(37, threads, |i| i * i), expect, "{threads} threads");
        }
        assert!(fan_out(0, 4, |i| i).is_empty());
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn batched_level_counts_equal_per_run_counts_for_any_thread_count() {
        let platform = PlatformKind::Zc702.descriptor();
        let model = FaultModel::new(platform);
        let vcrash = platform.vccbram.vcrash;
        let conditions: Vec<ResolvedCondition> = (0..6)
            .map(|run| {
                model.resolve(&ReadCondition {
                    v: vcrash,
                    temperature_c: 25.0,
                    run_seed: run_seed(model.chip_seed(), Rail::Vccbram, vcrash, run),
                })
            })
            .collect();
        let expect: Vec<u64> = conditions
            .iter()
            .map(|rc| platform_fault_count(&model, DataPattern::AllOnes, rc, 1))
            .collect();
        assert!(expect.iter().any(|&c| c > 0), "no faults at Vcrash");
        let batched = platform_level_counts(&model, DataPattern::AllOnes, &conditions);
        assert_eq!(batched, expect);
        for threads in [2, 5, 64] {
            let fanned: Vec<u64> = conditions
                .iter()
                .map(|rc| platform_fault_count(&model, DataPattern::AllOnes, rc, threads))
                .collect();
            assert_eq!(batched, fanned, "{threads} threads");
        }
        assert!(platform_level_counts(&model, DataPattern::AllOnes, &[]).is_empty());
    }
}
