//! Frame-loop benchmark against the shipped `dvw-server`.
//!
//! ```text
//! cargo run --release --manifest-path framebench/Cargo.toml -- \
//!     --workload drag_streamlines|smoke_playback \
//!     --seed N --seconds N --trace 0|1
//! ```
//!
//! Run from the repository root. Builds `dvw-server` from the same tree,
//! writes the analytic tapered-cylinder dataset (once), starts the
//! server as a child on loopback, drives it from one thread in a closed
//! loop for `--seconds`, checks every frame, and prints one JSON object
//! as the last line of stdout. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates traced and untraced rounds, reports
//! the per-layer metrics, prints the reconciliation table to stderr and
//! writes the spans under `framebench/out/`. See `framebench/README.md`.

#![deny(unsafe_op_in_unsafe_fn, unused_must_use)]

mod child;
mod client;
mod scene;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{median, quantile, FrameRecord, Metric, Spans};
use workload::{Workload, SERVER_FLAGS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} expects a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or(format!("unknown workload '{workload_name}'"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("--seconds must be a positive whole number")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("framebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !root.join("crates/windtunnel/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/windtunnel is missing)".into());
    }
    let bin = child::build_server(&root)?;
    let dataset = scene::ensure_dataset(&root)?;
    let geo = scene::Geometry::new()?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run_record = format!(
        "workload={} seed={} seconds={} trace={} cores={} server=dvw-server {} {}",
        args.workload_name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores,
        dataset.strip_prefix(&root).unwrap_or(&dataset).display(),
        SERVER_FLAGS.join(" ")
    );
    eprintln!("framebench: {run_record}");

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut session = None;
    for _ in 0..SETUP_REPEATS {
        // The previous server is gone before the next one starts.
        drop(session.take());
        let started = Instant::now();
        session = Some(workload::setup(
            args.workload,
            &bin,
            &dataset,
            &geo,
            args.seed,
        )?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut session = session.ok_or("no set-up ran")?;

    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    let mut records: Vec<FrameRecord> = Vec::new();
    let mut first_error = None;
    let mut off_frame = Duration::ZERO;
    let deadline = Duration::from_secs(args.seconds);
    let mut k = 1u64;
    while origin.elapsed() < deadline {
        let traced = args.trace && k % 2 == 1;
        let round = session.round(k, traced.then_some(&mut spans), &geo)?;
        if first_error.is_none() {
            first_error = round.first_error;
        }
        off_frame += round.off_frame;
        records.extend(round.frames);
        k += 1;
    }
    // Timed wall time less what the loop spent on checks and stats reads.
    let loop_s = origin.elapsed().saturating_sub(off_frame).as_secs_f64();
    let rss_mb = session.server.peak_rss_mb()?;
    drop(session);

    let attempted = records.len();
    let failed = records.iter().filter(|r| r.failed).count();
    if let Some(e) = &first_error {
        eprintln!("framebench: {failed} of {attempted} frames failed; first: {e}");
    }
    let ok: Vec<&FrameRecord> = records.iter().filter(|r| !r.failed).collect();
    let metrics = if args.trace {
        let traced: Vec<&FrameRecord> = ok.iter().copied().filter(|r| r.traced).collect();
        let untraced: Vec<f64> = ok
            .iter()
            .filter(|r| !r.traced)
            .map(|r| r.total_ms())
            .collect();
        eprint!("{}", trace::reconciliation(&traced));
        write_trace(&root, &args, &run_record, &spans, &traced)?;
        trace::layer_metrics(&traced, &spans, median(&untraced))
    } else {
        end_to_end(&ok, loop_s, &setups, rss_mb)
    };
    // A frame fails on an RPC, decode or apply error as well as on a
    // failed check; no failed frame is allowed.
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    Ok(())
}

fn end_to_end(ok: &[&FrameRecord], loop_s: f64, setups: &[f64], rss_mb: f64) -> Vec<Metric> {
    let frame_ms: Vec<f64> = ok.iter().map(|r| r.total_ms()).collect();
    let n = ok.len().max(1) as f64;
    let metric = |name, unit, value| Metric { name, unit, value };
    vec![
        metric("frame_ms_p50", "ms", median(&frame_ms)),
        metric("frame_ms_p90", "ms", quantile(&frame_ms, 0.9)),
        metric(
            "frames_per_s",
            "frames/s",
            if loop_s > 0.0 {
                ok.len() as f64 / loop_s
            } else {
                0.0
            },
        ),
        metric(
            "points_per_frame",
            "points",
            ok.iter().map(|r| r.points as f64).sum::<f64>() / n,
        ),
        metric(
            "wire_bytes_per_frame",
            "bytes",
            ok.iter().map(|r| r.reply_bytes as f64).sum::<f64>() / n,
        ),
        metric("setup_s", "s", median(setups)),
        metric("server_rss_mb", "MB", rss_mb),
    ]
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}")
}

/// Spans as JSON lines under `framebench/out/`, after one line recording
/// the run (seed, cores, server flags) and the traced frames' records.
fn write_trace(
    root: &Path,
    args: &Args,
    run_record: &str,
    spans: &Spans,
    traced: &[&FrameRecord],
) -> Result<(), String> {
    let dir = root.join("framebench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload_name, args.seed
    ));
    let mut text = format!("{{\"run\":\"{run_record}\"}}\n");
    for r in traced {
        let s = r.server.unwrap_or_default();
        let _ = writeln!(
            text,
            "{{\"frame\":{},\"server\":{{\"fresh\":{},\"fetch_us\":{},\"integrate_us\":{},\"map_us\":{},\"frame_encode_us\":{},\"chunk_encode_us\":{},\"delta_splice_us\":{},\"streak_us\":{},\"decode_us\":{},\"io_wait_us\":{}}},\"reply_bytes\":{},\"points\":{}}}",
            r.frame, s.fresh, s.fetch_us, s.integrate_us, s.map_us, s.frame_encode_us, s.chunk_encode_us,
            s.delta_splice_us, s.streak_us, s.decode_us, s.io_wait_us, r.reply_bytes, r.points
        );
    }
    text.push_str(&spans.to_jsonl());
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
