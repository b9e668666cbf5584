//! Whole-job SpLPG benchmark.
//!
//! ```text
//! splpg-jobbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! splpg-jobbench --self-check
//! ```
//!
//! `--trace 0` times whole training jobs, untraced, and prints the
//! end-to-end metrics; `--trace 1` re-drives one job through the crates'
//! public functions with a span around each call and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md for the
//! workloads and what each metric should move.

mod jobs;
mod mirror;
mod probes;
mod report;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use splpg_dist::DistOutcome;

use report::{describe, mean, median, metric, Metric};
use workload::{Cluster, Profile, Workload, WORKLOADS};

/// Whole rounds (one job per instance) every timed run makes, however
/// short `--seconds` is.
const MIN_ROUNDS: usize = 2;
/// Each round times every instance's setup at least twice, and until this
/// many seconds went into its setups, so a cheap setup gets more samples.
const SETUP_ROUND_S: f64 = 0.6;

/// Per-step timings: each is reported as a median and a high percentile.
const STEP_SPANS: [(&str, &str, &str); 6] = [
    ("gnn.negatives", "gnn.negatives_s", "gnn.negatives_s.hi"),
    ("gnn.sample", "gnn.sample_s", "gnn.sample_s.hi"),
    ("dist.fetch", "dist.fetch_s", "dist.fetch_s.hi"),
    ("gnn.forward", "gnn.forward_s", "gnn.forward_s.hi"),
    (
        "tensor.backward",
        "tensor.backward_s",
        "tensor.backward_s.hi",
    ),
    ("nn.adam", "nn.adam_s", "nn.adam_s.hi"),
];

/// Layers whose self time the traced run reports (`self_s.<layer>`).
const LAYERS: [(&str, &str); 6] = [
    ("graph", "self_s.graph"),
    ("dist", "self_s.dist"),
    ("gnn", "self_s.gnn"),
    ("tensor", "self_s.tensor"),
    ("nn", "self_s.nn"),
    ("net", "self_s.net"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (known: {})", known.join(", "))
    })?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if map.len() != 4 {
        return Err(format!("unexpected arguments {args:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The benchmark's directory in the checkout it was built in.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch space inside the checkout: trace files, worker reports, and the
/// TCP rendezvous files of `run_multiprocess` (via `TMPDIR`).
fn out_dir() -> Result<PathBuf, String> {
    let out = bench_dir().join("out");
    let tmp = out.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    Ok(out)
}

/// A run's verdict and metrics.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Times whole jobs, untraced, round-robin over the run's instances until
/// `seconds` have passed (at least `min_rounds` rounds).
fn run_e2e(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    profile: Profile,
    min_rounds: usize,
) -> Result<RunResult, String> {
    let out = out_dir()?;
    let instances = w
        .instance_seeds(seed, profile)
        .into_iter()
        .map(|s| w.instance(s, profile))
        .collect::<Result<Vec<_>, _>>()?;
    let references: Vec<DistOutcome> = instances
        .iter()
        .map(jobs::reference)
        .collect::<Result<_, _>>()?;
    let n = instances.len();
    let (mut wall, mut cpu, mut rss, mut setup) = (
        vec![vec![]; n],
        vec![vec![]; n],
        vec![vec![]; n],
        vec![vec![]; n],
    );
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut rounds = 0usize;
    loop {
        let round_t0 = Instant::now();
        for (i, inst) in instances.iter().enumerate() {
            let (mut reps, mut spent) = (0, 0.0);
            while reps < 2 || spent < SETUP_ROUND_S {
                reps += 1;
                attempted += 1;
                match jobs::time_setup(inst) {
                    Ok(s) => {
                        spent += s;
                        setup[i].push(s);
                    }
                    Err(e) => {
                        failed += 1;
                        println!("FAIL setup on instance {}: {e}", inst.seed);
                        break;
                    }
                }
            }
            attempted += 1;
            let checked = jobs::timed_job(inst, &out, profile).and_then(|(sample, outcome)| {
                jobs::check(&references[i], &outcome, inst).map(|()| sample)
            });
            match checked {
                Ok(sample) => {
                    wall[i].push(sample.wall_s);
                    cpu[i].push(sample.cpu_s);
                    rss[i].push(sample.peak_rss_mib);
                }
                Err(e) => {
                    failed += 1;
                    println!("FAIL job on instance {}: {e}", inst.seed);
                }
            }
        }
        rounds += 1;
        let round_s = round_t0.elapsed().as_secs_f64();
        if rounds >= min_rounds && t0.elapsed().as_secs_f64() + round_s > seconds {
            break;
        }
    }
    let per_instance = |samples: &[Vec<f64>]| -> f64 {
        mean(&samples.iter().map(|s| median(s)).collect::<Vec<_>>())
    };
    let flat = |samples: &[Vec<f64>]| -> Vec<f64> { samples.iter().flatten().copied().collect() };
    let epochs = w.epochs(profile) as f64;
    let metrics = vec![
        metric("run_s", "s", per_instance(&wall)),
        metric("setup_s", "s", per_instance(&setup)),
        metric("cpu_s", "s", per_instance(&cpu)),
        metric("peak_rss_mb", "MiB", per_instance(&rss)),
        metric(
            "wire_bytes_per_epoch",
            "bytes",
            mean(
                &references
                    .iter()
                    .map(|r| r.comm.total_wire_bytes() as f64 / epochs)
                    .collect::<Vec<_>>(),
            ),
        ),
        metric(
            "test_hits",
            "fraction",
            mean(&references.iter().map(|r| r.test_hits).collect::<Vec<_>>()),
        ),
    ];
    println!(
        "{}: {rounds} rounds over {n} instances in {:.1} s; fail_rate {}",
        w.name,
        t0.elapsed().as_secs_f64(),
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        }
    );
    println!("  job wall s: {}", describe(&flat(&wall)));
    println!("  job cpu s:  {}", describe(&flat(&cpu)));
    println!("  setup s:    {}", describe(&flat(&setup)));
    println!("  peak MiB:   {}", describe(&flat(&rss)));
    for (i, inst) in instances.iter().enumerate() {
        println!(
            "  instance {}: job wall s {:.3?}, peak MiB {:.1?}, setup s {:.4?}",
            inst.seed, wall[i], rss[i], setup[i],
        );
    }
    let complete = wall.iter().all(|s| !s.is_empty()) && setup.iter().all(|s| !s.is_empty());
    Ok(RunResult {
        correct: failed == 0 && complete,
        attempted,
        failed,
        metrics,
    })
}

/// Re-drives one job traced and measures single layers directly.
fn run_traced(w: &'static Workload, seed: u64, profile: Profile) -> Result<RunResult, String> {
    let out = out_dir()?;
    let inst = w.instance(w.instance_seeds(seed, profile)[0], profile)?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fail = |what: &str, e: String| {
        failed += 1;
        println!("FAIL {what}: {e}");
    };

    let reference = jobs::reference(&inst)?;
    attempted += 1;
    let m = mirror::run(&inst, seed)?;
    // The traced job must reproduce the reference bit for bit, which shows
    // it did the program's work.
    if let Err(e) = jobs::same_bits(&reference, m.test_hits, &m.epochs, &m.comm) {
        fail("traced job", e);
    }
    // The untraced baseline of the tracing overhead runs after the traced
    // job, so neither of the two pays the first run's warm-up.
    attempted += 1;
    let t0 = Instant::now();
    let again = jobs::reference(&inst)?;
    let reference_s = t0.elapsed().as_secs_f64();
    if let Err(e) = jobs::same_bits(&reference, again.test_hits, &again.epochs, &again.comm) {
        fail("second reference", e);
    }
    let trace_path = out.join(format!("trace-{}-{seed}.json", w.name));
    std::fs::write(&trace_path, m.rec.chrome_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut graph_s = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let g = inst
            .data
            .split
            .train_graph(inst.data.graph.num_nodes())
            .map_err(|e| e.to_string())?;
        graph_s.push(t.elapsed().as_secs_f64());
        drop(g);
    }
    attempted += 1;
    let (partition_s, partition) = probes::partition(&inst, &m.train_graph)?;
    if partition.assignments() != m.setup.partition.assignments() {
        fail(
            "partition probe",
            "direct call disagrees with ClusterSetup's partition".to_string(),
        );
    }
    let positives: Vec<f64> = m
        .setup
        .workers
        .iter()
        .map(|w| w.positives.len() as f64)
        .collect();
    let setup_span = m
        .rec
        .durations("dist.setup")
        .first()
        .copied()
        .unwrap_or(0.0);

    // Untraced jobs, checked like timed ones: frame counts, and for worker
    // processes the cost of processes over threads on the same job.
    let mut untraced = |cluster: Cluster| -> Option<(f64, DistOutcome)> {
        attempted += 1;
        let t = Instant::now();
        let outcome = match cluster {
            Cluster::Channels => inst
                .trainer
                .run(jobs::MODEL, &inst.data)
                .map_err(|e| e.to_string()),
            Cluster::Processes => jobs::timed_job(&inst, &out, profile).map(|(_, o)| o),
        };
        let wall = t.elapsed().as_secs_f64();
        match outcome.and_then(|o| jobs::check(&reference, &o, &inst).map(|()| o)) {
            Ok(o) => Some((wall, o)),
            Err(e) => {
                failed += 1;
                println!("FAIL untraced job: {e}");
                None
            }
        }
    };
    let mut frames = (0.0, 0.0);
    let mut process_overhead_s = 0.0;
    match w.cluster {
        Cluster::Channels => {
            if let Some((_, o)) = untraced(Cluster::Channels) {
                frames = (o.net.messages as f64, o.net.bytes as f64);
            }
        }
        Cluster::Processes => {
            let (mut threads, mut procs) = (Vec::new(), Vec::new());
            for _ in 0..2 {
                if let Some((s, o)) = untraced(Cluster::Processes) {
                    frames = (o.net.messages as f64, o.net.bytes as f64);
                    procs.push(s);
                }
                if let Some((s, _)) = untraced(Cluster::Channels) {
                    threads.push(s);
                }
            }
            process_overhead_s = median(&procs) - median(&threads);
        }
    }
    let (tcp_rtt_s, codec_s) = probes::tcp_and_codec(
        probes::param_count(&inst),
        inst.trainer.dist_config().wire_codec,
    )?;
    let shm_publish_s = if splpg_net::shm::shm_available() {
        probes::shm_publish(&inst)?
    } else {
        0.0
    };

    let epochs = m.epochs.len().max(1) as f64;
    let c = &m.counters;
    let steps = c.steps.max(1) as f64;
    let self_time = m.rec.self_time_by_layer();
    let uncovered_s = self_time.get(trace::STRUCTURE).copied().unwrap_or(0.0);
    let mut metrics = vec![
        metric("graph.train_graph_s", "s", median(&graph_s)),
        metric("partition.s", "s", partition_s),
        metric(
            "partition.edge_cut",
            "count",
            partition.edge_cut(&m.train_graph) as f64,
        ),
        metric(
            "partition.positive_imbalance",
            "ratio",
            positives.iter().copied().fold(0.0, f64::max) / mean(&positives).max(1.0),
        ),
        // The partition inside the traced `dist.setup` call, as
        // `ClusterSetup` timed it: the direct probe is a second run whose
        // noise would swamp the views' few milliseconds.
        metric(
            "dist.views_s",
            "s",
            setup_span - m.setup.partition_time.as_secs_f64(),
        ),
        metric(
            "dist.structure_bytes_per_epoch",
            "bytes",
            m.comm.total_structure_bytes as f64 / epochs,
        ),
        metric(
            "dist.feature_wire_bytes_per_epoch",
            "bytes",
            m.comm.total_feature_wire_bytes as f64 / epochs,
        ),
        metric(
            "dist.feature_bus_bytes_per_epoch",
            "bytes",
            m.comm.total_feature_bus_bytes as f64 / epochs,
        ),
        metric(
            "dist.feature_cache_hit_ratio",
            "fraction",
            if c.remote_rows_requested == 0 {
                0.0
            } else {
                1.0 - c.remote_rows_metered as f64 / c.remote_rows_requested as f64
            },
        ),
        metric(
            "dist.sync_wait_share",
            "fraction",
            if c.sync_span_s > 0.0 {
                c.sync_idle_s / c.sync_span_s
            } else {
                0.0
            },
        ),
        metric(
            "gnn.expansions_per_step",
            "count",
            c.expansions as f64 / steps,
        ),
        metric(
            "gnn.input_nodes_per_step",
            "count",
            c.input_nodes as f64 / steps,
        ),
        metric("gnn.eval_s", "s", median(&m.rec.durations("gnn.eval"))),
        metric("tensor.peak_tape_bytes", "bytes", c.peak_tape_bytes as f64),
        metric(
            "tensor.fresh_allocs_per_step",
            "count",
            c.tape_allocations as f64 / steps,
        ),
        metric("net.frames_per_epoch", "count", frames.0 / epochs),
        metric("net.frame_bytes_per_epoch", "bytes", frames.1 / epochs),
        metric("net.tcp_rtt_s", "s", tcp_rtt_s),
        metric("net.codec_s", "s", codec_s),
        metric("net.shm_publish_s", "s", shm_publish_s),
        metric("net.process_overhead_s", "s", process_overhead_s),
    ];
    for (span, name, hi_name) in STEP_SPANS {
        let d = m.rec.durations(span);
        metrics.push(metric(name, "s", median(&d)));
        metrics.push(metric(
            hi_name,
            "s",
            report::high_percentile(&d).map_or(median(&d), |(_, v)| v),
        ));
    }
    for (layer, name) in LAYERS {
        metrics.push(metric(
            name,
            "s",
            self_time.get(layer).copied().unwrap_or(0.0),
        ));
    }
    metrics.extend([
        metric("trace.steps", "count", c.steps as f64),
        metric("trace.mirror_s", "s", m.wall_s),
        metric("trace.reference_s", "s", reference_s),
        metric("trace.overhead_s", "s", m.wall_s - reference_s),
        metric("trace.uncovered_s", "s", uncovered_s),
        metric(
            "trace.coverage",
            "fraction",
            1.0 - uncovered_s / m.wall_s.max(f64::MIN_POSITIVE),
        ),
    ]);
    println!(
        "{}: traced job {:.3} s vs untraced reference {:.3} s; trace in {}",
        w.name,
        m.wall_s,
        reference_s,
        trace_path.display()
    );
    for (span, _, _) in STEP_SPANS {
        println!("  {span:<16} {}", describe(&m.rec.durations(span)));
    }
    for (layer, s) in &self_time {
        println!("  self time {layer:<10} {s:.4} s");
    }
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn emit(result: &RunResult) {
    for m in &result.metrics {
        println!(
            "  {:<36} {:>18} {}",
            m.name,
            report::number(m.value),
            m.unit
        );
    }
    println!(
        "{}",
        report::result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
}

/// Runs every workload at a few-second scale and checks that the harness
/// still measures the program: every declared metric is printed with its
/// unit, every job passes the output checks, and the traced job is
/// bit-identical to the reference.
fn self_check() -> Result<(), String> {
    let declared = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut problems = Vec::new();
    let mut emitted = Vec::new();
    for w in &WORKLOADS {
        if !declared.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)) {
            problems.push(format!("workload {} is not declared", w.name));
        }
        for (trace, result) in [
            (false, run_e2e(w, 1, 0.0, Profile::Tiny, 1)?),
            (true, run_traced(w, 1, Profile::Tiny)?),
        ] {
            emit(&result);
            if !result.correct || result.failed != 0 {
                problems.push(format!(
                    "{} trace={}: {} of {} operations failed",
                    w.name, trace as u8, result.failed, result.attempted
                ));
            }
            for m in &result.metrics {
                if !m.value.is_finite() {
                    problems.push(format!("{} {}: value {}", w.name, m.name, m.value));
                }
                if !declared.contains(&format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\"",
                    m.name, m.unit
                )) {
                    problems.push(format!("{} is not declared with unit {}", m.name, m.unit));
                }
                emitted.push(m.name.to_string());
            }
        }
    }
    // Every declared metric must be measured.
    for declared_name in declared
        .split("{\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
    {
        let is_workload = WORKLOADS.iter().any(|w| w.name == declared_name);
        if !is_workload && !emitted.iter().any(|e| e == declared_name) {
            problems.push(format!("declared metric {declared_name} is never printed"));
        }
    }
    if problems.is_empty() {
        println!(
            "self-check passed: {} workloads, {} metric values",
            WORKLOADS.len(),
            emitted.len()
        );
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    // A worker child re-executed by run_multiprocess serves and exits here.
    match jobs::serve_child() {
        Ok(true) => return ExitCode::SUCCESS,
        Ok(false) => {}
        Err(e) => {
            eprintln!("worker child failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Set before any thread or child exists; worker children inherit both.
    // TMPDIR keeps run_multiprocess's rendezvous files inside the checkout.
    std::env::set_var("SPLPG_NUM_THREADS", workload::pool_threads().to_string());
    match out_dir() {
        Ok(out) => std::env::set_var("TMPDIR", out.join("tmp")),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if args.len() == 1 && args[0] == "--self-check" {
        return match self_check() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("self-check failed:\n{e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: splpg-jobbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --self-check");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let seeds = w.instance_seeds(args.seed, Profile::Full);
    println!(
        "{}",
        sys::stamp(
            &bench_dir().join(".."),
            w.name,
            args.seed,
            &seeds,
            sys::reset_peak_rss()
        )
    );
    let result = if args.trace {
        run_traced(w, args.seed, Profile::Full)
    } else {
        run_e2e(w, args.seed, args.seconds, Profile::Full, MIN_ROUNDS)
    };
    match result {
        Ok(r) => {
            emit(&r);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "cora-ma-epochs",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.name, "cora-ma-epochs");
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(parse_args(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "cora-ma-epochs",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "cora-ma-epochs",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
    }

    #[test]
    fn benchmark_json_declares_every_workload() {
        let declared = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).unwrap();
        for w in &WORKLOADS {
            assert!(
                declared.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn instance_seeds_depend_only_on_the_run_seed() {
        let w = &WORKLOADS[0];
        assert_eq!(
            w.instance_seeds(5, Profile::Full),
            w.instance_seeds(5, Profile::Full)
        );
        assert_ne!(
            w.instance_seeds(5, Profile::Full),
            w.instance_seeds(6, Profile::Full)
        );
        assert_eq!(w.instance_seeds(5, Profile::Full).len(), w.instances);
    }
}
