//! The workload contract and the run loop shared by every workload.

use std::fmt::Debug;
use std::time::Instant;

use uvf_characterize::FvmCache;
use uvf_fpga::seedmix::mix;

use crate::layers;
use crate::metrics::{median, result_line, Metric, Summary};
use crate::recorder::{by_name, layer_coverage_ns, spans_jsonl, Recorder};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = [
    "fleet_characterization",
    "layer_isolation",
    "mitigation_ladder",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrunken inputs for the smoke tests; never used for measurement.
    pub tiny: bool,
}

/// Everything a workload may depend on: the generated seeds, the thread
/// count and the input scale.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    pub seeds: Seeds,
    /// Worker threads for every parallel entry point: `nproc`.
    pub threads: usize,
    pub tiny: bool,
}

impl Env {
    #[must_use]
    pub fn new(opts: &Options) -> Env {
        Env {
            seeds: Seeds::from_workload_seed(opts.seed),
            threads: nproc(),
            tiny: opts.tiny,
        }
    }
}

/// `nproc`: the CPUs this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The inputs a workload seed selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub workload: u64,
    /// Initialisation, dataset and shuffle seed of the trained network.
    pub net: u64,
    /// The die the NN workloads map onto; also keys the fleet's dies.
    pub chip: u64,
    /// Read-condition run seed.
    pub run: u64,
}

impl Seeds {
    /// Seed 0 reproduces the repository's pinned constants (net 12,
    /// chip 21, run 1); any other seed derives all three by mixing.
    #[must_use]
    pub fn from_workload_seed(seed: u64) -> Seeds {
        if seed == 0 {
            return Seeds {
                workload: 0,
                net: 12,
                chip: 21,
                run: 1,
            };
        }
        Seeds {
            workload: seed,
            net: mix(&[seed, 1]),
            chip: mix(&[seed, 2]),
            run: mix(&[seed, 3]) % 1000 + 1,
        }
    }
}

/// Output checks: each is one attempted operation.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// `x` is a rate in `[0, 1]`.
    pub fn rate(&mut self, x: f64, what: impl FnOnce() -> String) {
        self.check((0.0..=1.0).contains(&x), || {
            format!("{} = {x} outside [0, 1]", what())
        });
    }
}

/// Work one measured pass performs, counted from its output.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Work {
    /// Operations: campaign jobs, census runs and levels, evaluations.
    pub ops: u64,
    /// Simulated BRAM megabits read.
    pub sim_mbit: f64,
    /// Test-split samples classified.
    pub inferences: u64,
    /// Simulated board seconds (the harness clock, summed over jobs).
    pub sim_board_s: f64,
}

/// One benchmark workload.
pub trait Workload {
    const NAME: &'static str;
    type Fixture;
    type Output: PartialEq + Debug;

    /// Build the inputs the measured pass reuses. Traced runs record the
    /// set-up's layer calls in `rec`.
    fn setup(env: &Env, rec: &Recorder) -> Self::Fixture;

    /// A digest of the fixture: every set-up of one run must agree.
    fn fixture_digest(fx: &Self::Fixture) -> u64;

    /// One measured pass through the public entry points.
    ///
    /// # Errors
    /// Any error a library call returns.
    fn run(env: &Env, fx: &Self::Fixture) -> Result<Self::Output, String>;

    /// The same pass composed from each layer's public functions, each
    /// call inside a span. Must return an output equal to [`Workload::run`].
    ///
    /// # Errors
    /// Any error a library call returns.
    fn run_traced(env: &Env, fx: &Self::Fixture, rec: &Recorder) -> Result<Self::Output, String>;

    /// Invariants any correct program's output satisfies.
    fn check(env: &Env, out: &Self::Output, checks: &mut Checks);

    fn work(env: &Env, fx: &Self::Fixture, out: &Self::Output) -> Work;

    /// One line describing the inputs (network shape, dies, thread use).
    fn describe(env: &Env, fx: &Self::Fixture) -> String;
}

/// FNV-1a, the output fingerprint.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn fingerprint<T: Debug>(out: &T) -> u64 {
    fnv1a(format!("{out:?}").as_bytes())
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The checkout's git revision, read from `.git` when present.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Tallies over every pass of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_fingerprint: Option<u64>,
}

impl Tally {
    fn fail(&mut self, what: &str) {
        self.failed += 1;
        println!("FAILED: {what}");
    }

    fn absorb(&mut self, checks: Checks) {
        self.attempted += checks.attempted;
        for f in &checks.failures {
            self.fail(f);
        }
    }

    /// Every pass of a run must print the same fingerprint.
    fn fingerprint(&mut self, fp: u64) {
        self.attempted += 1;
        match self.first_fingerprint {
            None => {
                self.first_fingerprint = Some(fp);
                println!("fingerprint {fp:016x}");
            }
            Some(first) if first != fp => {
                self.fail(&format!(
                    "pass fingerprint {fp:016x} differs from {first:016x}"
                ));
            }
            Some(_) => {}
        }
    }
}

fn seconds(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set the workload up, repeat its measured pass for `opts.seconds`, check
/// every output and return the result line.
///
/// # Errors
/// Only when the result cannot be reported at all (an invalid metric or an
/// unreadable `/proc/self/status`); failed operations and checks are
/// reported in the result.
pub fn run<W: Workload>(env: &Env, opts: &Options) -> Result<String, String> {
    println!(
        "host: nproc={} threads={} profile={} rev={}",
        nproc(),
        env.threads,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_revision(),
    );
    println!(
        "workload {} seed {} (net {}, chip {}, run {}) seconds {} trace {}{}",
        W::NAME,
        env.seeds.workload,
        env.seeds.net,
        env.seeds.chip,
        env.seeds.run,
        opts.seconds,
        u8::from(opts.trace),
        if env.tiny { " tiny" } else { "" },
    );
    let mut tally = Tally::default();

    let setup_rec = if opts.trace {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let rec = Recorder::new();
    let mut setup_s = Vec::new();
    let mut digest = None;
    let mut walls = Vec::new();
    let mut works: Vec<Work> = Vec::new();
    let mut traced = TracedPasses::default();
    let mut cache_delta = [0u64; 3];
    let mut rss = None;
    let start = Instant::now();
    for pass in 0usize.. {
        // A fresh set-up before every pass: the set-up samples then span
        // the whole run, as the pass samples do, so `setup_s` sees the
        // same host conditions as `wall_s`. The previous fixture is freed
        // by then, so every set-up starts from a similar allocator state.
        let t = Instant::now();
        let fx = W::setup(env, &setup_rec);
        setup_s.push(seconds(t));
        let d = W::fixture_digest(&fx);
        tally.attempted += 1;
        if *digest.get_or_insert(d) != d {
            tally.fail("set-ups of one run built different fixtures");
        }
        if pass == 0 {
            println!("inputs: {}", W::describe(env, &fx));
        }

        // Traced passes alternate sides so neither always runs warmer.
        let traced_first = pass % 2 == 1;
        let mut traced_out = None;
        if opts.trace && traced_first {
            traced_out = Some(traced.pass::<W>(env, &fx, &rec));
        }
        let cache_before = cache_counters();
        let plain = plain_pass::<W>(env, &fx, &mut tally, &mut walls, &mut works);
        for (total, (after, before)) in cache_delta
            .iter_mut()
            .zip(cache_counters().into_iter().zip(cache_before))
        {
            *total += after - before;
        }
        // Peak memory of set-up plus one pass: later passes repeat the same
        // work, and allocator growth over repeats would tie the figure to
        // how many passes fit in the run.
        if rss.is_none() {
            rss = Some(peak_rss_mb()?);
        }
        if opts.trace && !traced_first {
            traced_out = Some(traced.pass::<W>(env, &fx, &rec));
        }
        match (plain, traced_out) {
            (Some(plain), Some(Ok(t))) => {
                tally.attempted += 1;
                if plain != t {
                    tally.fail("traced composition differs from the entry-point result");
                }
            }
            (_, Some(Err(e))) => tally.fail(&format!("traced pass: {e}")),
            _ => {}
        }
        if seconds(start) >= opts.seconds {
            break;
        }
    }

    let passes = walls.len();
    let wall = Summary::of(&walls);
    let setup = Summary::of(&setup_s).expect("set-up ran");
    let rate = |f: fn(&Work) -> f64| -> Vec<f64> {
        works.iter().zip(&walls).map(|(w, t)| f(w) / t).collect()
    };
    let mbit_rates = rate(|w| w.sim_mbit);
    let inference_rates = rate(|w| w.inferences as f64);
    let rss = rss.expect("at least one pass");
    let failed_pct = 100.0 * tally.failed as f64 / tally.attempted.max(1) as f64;

    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("set-up times (s): {}", list(&setup_s));
    println!("pass walls (s): {}", list(&walls));
    println!("end-to-end ({passes} untraced passes):");
    match &wall {
        Some(w) => println!("  wall_s            {}", w.render("s")),
        None => println!("  wall_s            no successful pass"),
    }
    println!("  setup_s           {}", setup.render("s"));
    if let Some(s) = Summary::of(&mbit_rates) {
        println!("  sim_mbit_per_s    {}", s.render("Mbit/s"));
    }
    if works.iter().any(|w| w.inferences > 0) {
        if let Some(s) = Summary::of(&inference_rates) {
            println!("  inferences_per_s  {}", s.render("1/s"));
        }
    }
    if works.iter().any(|w| w.sim_board_s > 0.0) {
        let board: Vec<f64> = works.iter().map(|w| w.sim_board_s).collect();
        println!(
            "  sim_board_s       {} (simulated; deterministic per seed)",
            Summary::of(&board).expect("passes").render("s")
        );
    }
    println!("  peak_rss_mb       {rss:.3} MiB");
    println!(
        "  failed_pct        {failed_pct:.3} % ({} of {} operations)",
        tally.failed, tally.attempted
    );

    let metrics = if opts.trace {
        let spans = rec.spans();
        let traced_passes = traced.walls.len().max(1) as f64;
        let overhead_pct = match (median(&traced.walls), median(&walls)) {
            (Some(t), Some(u)) if u > 0.0 => 100.0 * (t - u) / u,
            _ => 0.0,
        };
        let unattributed_pct =
            100.0 * traced.unattributed_ns as f64 / traced.total_ns.max(1) as f64;
        print_self_times(&spans, traced_passes, "traced passes");
        print_self_times(&setup_rec.spans(), setup_s.len() as f64, "set-ups");
        write_spans(W::NAME, env.seeds.workload, &spans);
        layers::per_layer(&layers::Inputs {
            spans: &by_name(&spans),
            counters: &|name| rec.counter(name),
            passes: traced_passes,
            setup_spans: &by_name(&setup_rec.spans()),
            setup_counters: &|name| setup_rec.counter(name),
            setups: setup_s.len() as f64,
            threads: env.threads,
            cache_delta,
            untraced_passes: passes.max(1) as f64,
            unattributed_pct,
            overhead_pct,
        })
    } else {
        vec![
            Metric::new("wall_s", "s", wall.as_ref().map_or(0.0, |w| w.median)),
            Metric::new("setup_s", "s", setup.median),
            Metric::new(
                "sim_mbit_per_s",
                "Mbit/s",
                median(&mbit_rates).unwrap_or(0.0),
            ),
            Metric::new("peak_rss_mb", "MiB", rss),
        ]
    };
    let correct = tally.failed == 0 && passes > 0;
    result_line(correct, tally.attempted, tally.failed, &metrics)
}

/// `FvmCache::global()` hits, misses and evictions so far.
fn cache_counters() -> [u64; 3] {
    let cache = FvmCache::global();
    [cache.hits(), cache.misses(), cache.evictions()]
}

/// One untraced pass: time it, count its work, check its output and its
/// fingerprint. `None` when the pass failed.
fn plain_pass<W: Workload>(
    env: &Env,
    fx: &W::Fixture,
    tally: &mut Tally,
    walls: &mut Vec<f64>,
    works: &mut Vec<Work>,
) -> Option<W::Output> {
    let t = Instant::now();
    let out = W::run(env, fx);
    let wall = seconds(t);
    tally.attempted += 1;
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            tally.fail(&format!("pass: {e}"));
            return None;
        }
    };
    walls.push(wall);
    let work = W::work(env, fx, &out);
    tally.attempted += work.ops;
    works.push(work);
    let mut checks = Checks::default();
    W::check(env, &out, &mut checks);
    tally.absorb(checks);
    tally.fingerprint(fingerprint(&out));
    Some(out)
}

/// Wall time and span coverage of the traced passes.
#[derive(Default)]
struct TracedPasses {
    walls: Vec<f64>,
    total_ns: u64,
    /// Pass time covered by no layer span.
    unattributed_ns: u64,
}

impl TracedPasses {
    fn pass<W: Workload>(
        &mut self,
        env: &Env,
        fx: &W::Fixture,
        rec: &Recorder,
    ) -> Result<W::Output, String> {
        let from = rec.now_ns();
        let out = W::run_traced(env, fx, rec);
        let to = rec.now_ns();
        self.walls.push((to - from) as f64 / 1e9);
        self.total_ns += to - from;
        self.unattributed_ns += (to - from) - layer_coverage_ns(&rec.spans(), from, to);
        out
    }
}

/// Print the per-span-name table: calls, busy and self time per pass, and
/// the per-call duration summary with its sample count.
fn print_self_times(spans: &[crate::recorder::Span], per: f64, label: &str) {
    if spans.is_empty() {
        return;
    }
    println!("self-time tree (per {label}, averaged over {per}):");
    for (name, s) in by_name(spans) {
        println!(
            "  {name:<32} calls {:>8.1}  busy {:>10.6} s  self {:>10.6} s  per call {}",
            s.calls as f64 / per,
            s.busy_ns as f64 / 1e9 / per,
            s.self_ns as f64 / 1e9 / per,
            Summary::of(&s.durations_s)
                .expect("span has calls")
                .render("s"),
        );
    }
}

/// Write the traced spans as JSON lines under `.bench_out/`.
fn write_spans(workload: &str, seed: u64, spans: &[crate::recorder::Span]) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{workload}-seed{seed}.spans.jsonl"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans_jsonl(spans))) {
        Ok(()) => println!("spans: {} ({} spans)", path.display(), spans.len()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_pinned_constants() {
        let s = Seeds::from_workload_seed(0);
        assert_eq!((s.net, s.chip, s.run), (12, 21, 1));
        let other = Seeds::from_workload_seed(5);
        assert_eq!(other, Seeds::from_workload_seed(5));
        assert_ne!(other, Seeds::from_workload_seed(6));
        assert!((1..=1000).contains(&other.run));
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(true, || "fine".into());
        c.rate(0.5, || "half".into());
        c.rate(1.5, || "too big".into());
        assert_eq!(c.attempted, 3);
        assert_eq!(c.failures, vec!["too big = 1.5 outside [0, 1]".to_string()]);
    }
}
