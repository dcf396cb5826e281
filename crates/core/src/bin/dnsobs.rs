//! `dnsobs` — the platform as a command-line tool.
//!
//! ```text
//! dnsobs simulate --duration 60 --out ./data     run the pipeline, write TSV files
//! dnsobs show ./data/srvip-60.tsv                pretty-print a TSV window
//! dnsobs top ./data/srvip-60.tsv --n 10          top rows of a window by hits
//! dnsobs collect --listen 127.0.0.1:5300         run the collector half of a feed
//! dnsobs sensor --connect 127.0.0.1:5300         run one sensor pushing into it
//! dnsobs status --metrics 127.0.0.1:9464         one-page health view of a run
//! ```
//!
//! `simulate` and `collect` accept `--metrics ADDR` to serve the global
//! telemetry registry as a Prometheus text endpoint while they run;
//! `dnsobs status` scrapes that endpoint (or any Prometheus page the
//! Observatory exported) and renders the one-page operator summary.
//! Both writers also emit `meta-*.tsv` self-report windows next to the
//! data files: the platform's own counters on the platform's own storage
//! path, like the paper's `meta` dataset (§2.4).
//!
//! File names encode the dataset and the window start, like the paper's
//! storage layout (§2.4). A `10min` rollup is produced alongside the
//! minutely files when the run is long enough.
//!
//! `sensor`/`collect` split the platform at the paper's Figure 1 A→B
//! boundary: sensors summarize resolver traffic locally and stream the
//! summaries over TCP; the collector merges the streams back into one
//! time-ordered feed and runs the tracking pipeline on it. Start the
//! collector first (or don't — sensors reconnect with backoff), run one
//! `sensor --index I` process per sensor with the same `--seed` and
//! `--sensors N`, and the collector's TSV output matches a single-process
//! `simulate` run of the same seed.

use dns_observatory::aggregate::{Aggregator, Level};
use dns_observatory::{
    status, tsv, Dataset, MetaReporter, Observatory, ObservatoryConfig, StateExporter,
    ThreadedPipeline, TimeSeriesStore, TxSummary,
};
use feed::{Collector, CollectorConfig, Sensor, SensorConfig};
use psl::Psl;
use pubsub::{ServeConfig, Server, ServerHandle, SubEvent, SubscribeClient, Topic};
use simnet::{SimConfig, Simulation};
use sketchwire::{AggregatorConfig, AggregatorCore, WindowState};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use telemetry::{
    FlightRecorder, MetricsServer, Registry, StallEvent, SystemClock, Watchdog, WatchdogCore,
};

fn main() {
    // Whatever crashes, the black box survives to stderr.
    FlightRecorder::install_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("simulate") => simulate(&args[1..]),
        Some("sensor") => sensor(&args[1..]),
        Some("collect") => collect(&args[1..]),
        Some("aggregate") => aggregate_cmd(&args[1..]),
        Some("query") => query_cmd(&args[1..]),
        Some("subscribe") => subscribe_cmd(&args[1..]),
        Some("store") => store_admin(&args[1..]),
        Some("status") => status_cmd(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some("show") => show(&args[1..], usize::MAX),
        Some("top") => {
            let n = flag_value(&args[1..], "--n")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10);
            show(&args[1..], n)
        }
        _ => {
            eprintln!(
                "usage:\n  dnsobs simulate [--duration SECS] [--window SECS] [--seed N] [--topk N] [--out DIR] [--metrics ADDR]\n  dnsobs sensor --connect ADDR [--duration SECS] [--seed N] [--sensors N] [--index I]\n  dnsobs collect --listen ADDR [--sensors N] [--window SECS] [--topk N] [--out DIR] [--metrics ADDR] [--trace-out FILE]\n  dnsobs collect --listen ADDR --forward ADDR [--upstream N] [--chunk-entries N] [--state-out FILE] [--store DIR] [--retain DAYS] [--serve ADDR] [--no-bloom-gate]\n  dnsobs aggregate --listen ADDR --upstreams N [--out DIR] [--metrics ADDR] [--trace-out FILE] [--store DIR] [--retain DAYS] [--serve ADDR]\n  dnsobs aggregate --input FILE [--input FILE ...] [--out DIR]\n  dnsobs subscribe --connect ADDR [--out DIR] [--topics topk,features,meta,dataset=DS]\n  dnsobs query history --store DIR --dataset DS --key KEY [--from SECS] [--to SECS]\n  dnsobs query renumber --store DIR [--dataset aafqdn] [--from SECS] [--to SECS]\n  dnsobs query topk --store DIR --dataset DS --at SECS [--n N]\n  dnsobs store synth --dir DIR [--days N] [--seed N] [--keys N] [--window SECS] [--renumber-every N] [--no-compact]\n  dnsobs store info --dir DIR\n  dnsobs store expire --dir DIR (--retain DAYS | --before SECS)\n  dnsobs status [--metrics ADDR]\n  dnsobs trace DUMP.tsv [--window-start SECS]\n  dnsobs show FILE.tsv\n  dnsobs top FILE.tsv [--n N]\n\n--topk caps the big per-dataset trackers (default 10000); forwarding\ncollectors and the aggregator must agree on it for state to merge.\n\nsensor:    simulate traffic, keep the 1/N slice owned by --index, and\n           stream its summaries to the collector (reconnects with backoff).\ncollect:   accept N sensors, merge their streams in time order, run the\n           tracking pipeline, and write TSV windows like `simulate`.\n           With --forward/--state-out it exports per-window sketch state\n           upward instead of rendering TSVs locally (federated tier).\naggregate: merge the window-state streams of N forwarding collectors\n           (or state files) into global TSV windows with a stated\n           error bound.\nsubscribe: connect to a `--serve ADDR` collector or aggregator and\n           follow its live sealed windows (snapshot, then deltas),\n           writing the same TSV files the server writes locally.\n           --topics narrows fidelity: `topk` drops per-key features.\nquery:     answer history/renumbering/top-k questions from a --store\n           directory in milliseconds, from footer indexes and merged\n           sketch state — raw transactions are never re-read. Output\n           states the merged Space-Saving error bound.\nstore:     `synth` fabricates months of seeded 10-min windows (with\n           planted renumbering events) and compacts them; `info` prints\n           the manifest summary; `expire` drops whole segments older\n           than the retention horizon (manifest-swap commit, ledgered).\n           `collect`/`aggregate` accept --store DIR to persist every\n           sealed window (on restart the last durable window resumes\n           the watermark frontier) and --retain DAYS to expire old\n           segments after every append. --serve ADDR additionally\n           publishes every sealed window to `dnsobs subscribe` clients\n           as delta-encoded state with per-client backpressure.\nstatus:    scrape a running `--metrics` endpoint (default 127.0.0.1:9464)\n           and print the one-page health summary.\ntrace:     render a flight-recorder dump (`--trace-out`, stall or panic\n           dump) as per-window lineage; --window-start narrows to one\n           window. --trace-out on collect/aggregate records span events\n           into the flight recorder and writes the dump at exit (the\n           stall watchdog also dumps it on a stall, to the same file)."
            );
            2
        }
    };
    std::process::exit(code);
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Port every `--metrics ADDR` endpoint defaults to.
const DEFAULT_METRICS_ADDR: &str = "127.0.0.1:9464";

/// Dump the global flight recorder: to `path` when given, otherwise as
/// a delimited block on stderr (skipped when nothing was recorded).
fn dump_recorder(path: Option<&Path>, why: &str) {
    let recorder = FlightRecorder::global();
    match path {
        Some(p) => match recorder.dump_to(p) {
            Ok(()) => eprintln!("flight recorder ({why}): wrote {}", p.display()),
            Err(e) => eprintln!("flight recorder ({why}): cannot write {}: {e}", p.display()),
        },
        None => {
            let dump = recorder.dump();
            if dump.lines().count() > 1 {
                eprintln!("--- flight recorder dump ({why}) ---");
                eprint!("{dump}");
                eprintln!("--- end flight recorder dump ---");
            }
        }
    }
}

/// The watchdog's stderr reporter, plus the black box: a stall dumps the
/// flight recorder (to `trace_out` when given, else stderr) so the
/// evidence is on disk *before* anyone attaches a debugger.
fn watchdog_reporter(trace_out: Option<PathBuf>) -> impl Fn(&StallEvent) + Send + 'static {
    move |event| match event {
        StallEvent::Stalled {
            name,
            stalled_for_us,
            at_value,
        } => {
            eprintln!(
                "watchdog: {name} stalled for {:.1}s at {at_value}",
                *stalled_for_us as f64 / 1e6
            );
            dump_recorder(trace_out.as_deref(), "stall");
        }
        StallEvent::Recovered {
            name,
            stalled_for_us,
        } => eprintln!(
            "watchdog: {name} recovered after {:.1}s",
            *stalled_for_us as f64 / 1e6
        ),
    }
}

/// Serve the global registry on `--metrics ADDR` when asked. Returns
/// `Err` only when the flag was given and the bind failed; the server
/// must be held alive for the duration of the run.
fn metrics_server(args: &[String]) -> Result<Option<MetricsServer>, i32> {
    let Some(addr) = flag_value(args, "--metrics") else {
        return Ok(None);
    };
    match MetricsServer::serve(addr, Registry::global(), Arc::new(SystemClock::new())) {
        Ok(server) => {
            eprintln!("metrics: http://{}/metrics", server.addr());
            Ok(Some(server))
        }
        Err(e) => {
            eprintln!("cannot serve metrics on {addr}: {e}");
            Err(1)
        }
    }
}

/// Write one rendered meta self-report window into `out`, named by its
/// window start like the data files (`meta-00060.tsv`).
fn write_meta(out: &Path, bytes: &[u8]) -> usize {
    let start = match tsv::read_meta_window(bytes) {
        Ok((start, _, _)) => start,
        Err(_) => return 0,
    };
    let path = out.join(format!("meta-{:05}.tsv", start as u64));
    match std::fs::write(&path, bytes) {
        Ok(()) => 1,
        Err(e) => {
            eprintln!("failed writing {}: {e}", path.display());
            0
        }
    }
}

fn simulate(args: &[String]) -> i32 {
    let duration: f64 = flag_value(args, "--duration")
        .and_then(|v| v.parse().ok())
        .unwrap_or(60.0);
    let window: f64 = flag_value(args, "--window")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(SimConfig::default().seed);
    let out = PathBuf::from(flag_value(args, "--out").unwrap_or("./dnsobs-data"));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return 1;
    }

    let _server = match metrics_server(args) {
        Ok(s) => s,
        Err(code) => return code,
    };

    let cfg = SimConfig {
        seed,
        ..SimConfig::small()
    };
    eprintln!(
        "simulating {duration}s of DNS traffic (seed {seed}), windows of {window}s -> {}",
        out.display()
    );
    let mut sim = Simulation::from_config(cfg);
    let mut obs = Observatory::new(ObservatoryConfig {
        datasets: datasets(args),
        window_secs: window,
        ..ObservatoryConfig::default()
    });
    // The meta self-report rides on stream time: one window of platform
    // counters per data window, written next to the data files.
    let mut meta = MetaReporter::new(Registry::global(), (window.max(1.0) * 1e6) as u64);
    let mut meta_files = 0usize;
    meta.tick(0);
    sim.run(duration, &mut |tx| {
        let at = (tx.time.max(0.0) * 1e6) as u64;
        obs.ingest(tx);
        if let Some(bytes) = meta.tick(at) {
            meta_files += write_meta(&out, &bytes);
        }
    });
    if let Some(bytes) = meta.finish((duration.max(0.0) * 1e6) as u64) {
        meta_files += write_meta(&out, &bytes);
    }
    eprintln!("ingested {} transactions", obs.ingested());
    let store = obs.finish();

    match write_store(&out, &store) {
        Ok(files) => {
            eprintln!(
                "wrote {files} TSV files and {meta_files} meta report(s) to {}",
                out.display()
            );
            0
        }
        Err(path) => {
            eprintln!("failed writing {}", path.display());
            1
        }
    }
}

fn default_datasets() -> Vec<(Dataset, usize)> {
    datasets_with_cap(10_000)
}

/// The standard dataset suite with the big trackers capped at `--topk`
/// (default 10 000). Small enumerated datasets keep their natural caps.
fn datasets(args: &[String]) -> Vec<(Dataset, usize)> {
    let cap: usize = flag_value(args, "--topk")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(10_000);
    datasets_with_cap(cap)
}

fn datasets_with_cap(cap: usize) -> Vec<(Dataset, usize)> {
    vec![
        (Dataset::SrvIp, cap),
        (Dataset::Esld, cap),
        (Dataset::Qname, cap),
        (Dataset::Qtype, 64.min(cap)),
        (Dataset::Rcode, 16.min(cap)),
    ]
}

/// Minutely files + a coarse rollup ladder per dataset; returns the file
/// count, or the path that failed.
fn write_store(out: &Path, store: &TimeSeriesStore) -> Result<usize, PathBuf> {
    let mut files = 0usize;
    for &(ds, _) in &default_datasets() {
        let mut agg = Aggregator::new(&[Level {
            name: "10win",
            fan_in: 10,
            retention: 1_000,
        }]);
        for w in store.dataset(ds) {
            let path = out.join(format!("{}-{:05}.tsv", ds.name(), w.start as u64));
            if write_dump(&path, w).is_err() {
                return Err(path);
            }
            files += 1;
            agg.push((*w).clone());
        }
        for w in agg.completed(0) {
            let path = out.join(format!("{}-10win-{:05}.tsv", ds.name(), w.start as u64));
            if write_dump(&path, w).is_err() {
                return Err(path);
            }
            files += 1;
        }
    }
    Ok(files)
}

/// The sensor half of a distributed run: simulate the full deployment's
/// traffic, keep the slice this sensor's vantage point would see, and
/// stream its summaries to the collector.
fn sensor(args: &[String]) -> i32 {
    let Some(addr) = flag_value(args, "--connect") else {
        eprintln!("sensor: --connect ADDR is required");
        return 2;
    };
    let duration: f64 = flag_value(args, "--duration")
        .and_then(|v| v.parse().ok())
        .unwrap_or(60.0);
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(SimConfig::default().seed);
    let sensors: usize = flag_value(args, "--sensors")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let index: usize = flag_value(args, "--index")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if index >= sensors {
        eprintln!("sensor: --index {index} out of range for --sensors {sensors}");
        return 2;
    }

    eprintln!("sensor {index}/{sensors}: {duration}s of traffic (seed {seed}) -> {addr}");
    let psl = Psl::embedded();
    let client = Sensor::connect(addr, SensorConfig::new(index as u64));
    let mut sim = Simulation::from_config(SimConfig {
        seed,
        ..SimConfig::small()
    });
    let mut kept = 0u64;
    sim.run(duration, &mut |tx| {
        if tx.sensor_index(sensors) == index {
            client.send(TxSummary::from_transaction(tx, &psl));
            kept += 1;
        }
    });
    let report = client.finish();
    eprintln!(
        "sensor {index}: summarized {kept} transactions, sent {} frames/{} items, dropped {} frames/{} items, {} connect(s)",
        report.sent_frames,
        report.sent_items,
        report.dropped_frames,
        report.dropped_items,
        report.connects
    );
    0
}

/// The collector half: accept N sensors, merge their streams in time
/// order, run the tracking pipeline over the merged feed, and write the
/// same TSV layout as `simulate`.
fn collect(args: &[String]) -> i32 {
    let Some(listen) = flag_value(args, "--listen") else {
        eprintln!("collect: --listen ADDR is required");
        return 2;
    };
    let sensors: u64 = flag_value(args, "--sensors")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let window: f64 = flag_value(args, "--window")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let out = PathBuf::from(flag_value(args, "--out").unwrap_or("./dnsobs-data"));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return 1;
    }

    let _server = match metrics_server(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let stall_secs: f64 = flag_value(args, "--stall-threshold")
        .and_then(|v| v.parse().ok())
        .unwrap_or(30.0);

    let mut collector = match Collector::<TxSummary>::bind(listen, CollectorConfig::new(sensors)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot listen on {listen}: {e}");
            return 1;
        }
    };
    eprintln!(
        "collecting from {sensors} sensor(s) on {}, windows of {window}s -> {}",
        collector.local_addr(),
        out.display()
    );

    // Stall watchdog: the collector proves liveness through its event
    // counter; a feed frozen past the threshold gets one stderr line
    // (and one more when it recovers) plus a flight-recorder dump.
    let trace_out = flag_value(args, "--trace-out").map(PathBuf::from);
    let clock = Arc::new(SystemClock::new());
    let registry = Registry::global();
    let mut dog = WatchdogCore::new();
    dog.watch_counter(
        "collector_events",
        registry.counter("feed_collector_events_total"),
        (stall_secs.max(1.0) * 1e6) as u64,
        telemetry::Clock::now_us(clock.as_ref()),
    );
    let watchdog = Watchdog::spawn(
        dog,
        clock,
        Duration::from_millis(500),
        watchdog_reporter(trace_out.clone()),
    )
    .ok();

    let output = collector.take_output();
    if flag_value(args, "--forward").is_some()
        || flag_value(args, "--state-out").is_some()
        || flag_value(args, "--store").is_some()
        || flag_value(args, "--serve").is_some()
    {
        let code = collect_forward(args, output.iter(), window);
        let report = collector.finish();
        if let Some(dog) = watchdog {
            dog.stop();
        }
        print_feed_report(&report);
        if let Some(path) = &trace_out {
            dump_recorder(Some(path), "run end");
        }
        return code;
    }
    let mut pipeline = ThreadedPipeline::new(
        ObservatoryConfig {
            datasets: datasets(args),
            window_secs: window,
            ..ObservatoryConfig::default()
        },
        1,
    );
    if trace_out.is_some() {
        // Provenance tracing on: the pipeline stages record span events
        // into the same recorder the feed io edges already write to.
        pipeline = pipeline.with_flight_recorder(FlightRecorder::global());
    }
    // Meta self-reports ride on the merged feed's stream time, one per
    // data window.
    let mut meta = MetaReporter::new(registry, (window.max(1.0) * 1e6) as u64);
    let mut meta_files = 0usize;
    meta.tick(0);
    let mut last_us = 0u64;
    let store = pipeline.run_summaries(output.iter().inspect(|s| {
        last_us = (s.time.max(0.0) * 1e6) as u64;
        if let Some(bytes) = meta.tick(last_us) {
            meta_files += write_meta(&out, &bytes);
        }
    }));
    let report = collector.finish();
    if let Some(dog) = watchdog {
        dog.stop();
    }
    if let Some(bytes) = meta.finish(last_us) {
        meta_files += write_meta(&out, &bytes);
    }
    eprintln!("wrote {meta_files} meta report(s)");

    print_feed_report(&report);
    if let Some(path) = &trace_out {
        dump_recorder(Some(path), "run end");
    }
    match write_store(&out, &store) {
        Ok(files) => {
            eprintln!("wrote {files} TSV files to {}", out.display());
            0
        }
        Err(path) => {
            eprintln!("failed writing {}", path.display());
            1
        }
    }
}

/// Print the transport-level ledger of a finished feed: merged totals
/// plus per-sensor gap/dup/CRC accounting.
fn print_feed_report(report: &feed::CollectorReport) {
    eprintln!("merged {} items", report.items_merged);
    for (id, s) in &report.sensors {
        eprintln!(
            "  sensor {id}: {} frames/{} items, {} gap(s)/{} missing frames, {} dup(s), {} crc error(s), self-reported drops {} frames/{} items",
            s.frames,
            s.items,
            s.gaps.len(),
            s.gap_frames,
            s.duplicate_frames,
            s.crc_errors,
            s.reported_dropped_frames,
            s.reported_dropped_items
        );
    }
}

/// An open `--store` handle plus the newest durable window (start
/// seconds + its states) — the resume point, when one exists.
type CliStore = (store::Store, Option<(f64, Vec<WindowState>)>);

/// Open the `--store DIR` historical window store when asked: recovery
/// leftovers are printed (ledgered, never silent), counters mirror into
/// the global registry, and the newest durable window — the resume
/// point — is returned alongside.
fn open_cli_store(args: &[String]) -> Result<Option<CliStore>, i32> {
    let Some(dir) = flag_value(args, "--store") else {
        return Ok(None);
    };
    let dir = PathBuf::from(dir);
    let (s, report) = match store::Store::open(&dir) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("cannot open store {}: {e}", dir.display());
            if let Some(seg) = e.bad_segment() {
                eprintln!("bad segment: {seg} (quarantine it or restore from a replica)");
            }
            return Err(1);
        }
    };
    if !report.is_clean() {
        eprintln!(
            "store recovery: removed {} tmp file(s) {:?} and {} orphan segment(s) {:?}",
            report.removed_tmp.len(),
            report.removed_tmp,
            report.removed_orphans.len(),
            report.removed_orphans
        );
    }
    let mut s = s.with_registry(&Registry::global(), &report);
    if flag_value(args, "--trace-out").is_some() {
        s = s.with_trace(FlightRecorder::global().ring("store"));
    }
    let last = match s.last_window() {
        Ok(l) => l,
        Err(e) => {
            eprintln!("store {}: cannot read last window: {e}", dir.display());
            return Err(1);
        }
    };
    Ok(Some((s, last)))
}

/// Parse `--retain DAYS` (fractional days allowed) into a retention
/// span in microseconds of stream time.
fn retain_span_us(args: &[String]) -> Option<u64> {
    flag_value(args, "--retain")
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|d| d.is_finite() && *d > 0.0)
        .map(|d| (d * 86_400.0 * 1e6).round() as u64)
}

/// Append one sealed window's records, run the background compaction
/// tick (rolls any newly ripe hour/day/month bucket), then enforce the
/// `--retain` horizon: segments wholly older than `frontier - retain`
/// are dropped behind a manifest-swap commit.
fn store_append(
    s: &mut store::Store,
    batch: &[WindowState],
    policy: &store::CompactionPolicy,
    retain: Option<u64>,
) -> Result<(), i32> {
    if batch.is_empty() {
        return Ok(());
    }
    if let Err(e) = s.append(batch) {
        eprintln!("store append failed: {e}");
        return Err(1);
    }
    match store::compact(s, policy) {
        Ok(report) if !report.rolled.is_empty() => {
            eprintln!(
                "store: rolled {} segment(s) into {} rollup(s)",
                report.inputs(),
                report.rolled.len()
            );
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("store compaction failed: {e}");
            return Err(1);
        }
    }
    if let (Some(span), Some(frontier)) = (retain, s.frontier_us()) {
        match s.expire_before(frontier.saturating_sub(span)) {
            Ok(report) if !report.expired.is_empty() => {
                eprintln!(
                    "store: expired {} segment(s) ({} window(s)) behind t={}s",
                    report.expired.len(),
                    report.windows(),
                    report.horizon_us as f64 / 1e6
                );
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("store expiry failed: {e}");
                return Err(1);
            }
        }
    }
    Ok(())
}

/// Bind the `--serve ADDR` live subscription tier when asked. Returns
/// the server plus its single seal-path publish handle.
fn serve_server(args: &[String]) -> Result<Option<(Server, ServerHandle)>, i32> {
    let Some(addr) = flag_value(args, "--serve") else {
        return Ok(None);
    };
    let trace = if flag_value(args, "--trace-out").is_some() {
        FlightRecorder::global().ring("pubsub")
    } else {
        telemetry::TraceRing::disabled()
    };
    match Server::bind(addr, ServeConfig::default(), &Registry::global(), trace) {
        Ok(mut server) => {
            eprintln!("serving live windows on {}", server.local_addr());
            let handle = server.take_handle().expect("fresh server has its handle");
            Ok(Some((server, handle)))
        }
        Err(e) => {
            eprintln!("cannot serve on {addr}: {e}");
            Err(1)
        }
    }
}

/// Drop the publish handle, finish the server, and print the broker's
/// departure ledger summary.
fn finish_server(serve: Option<(Server, ServerHandle)>) {
    let Some((server, handle)) = serve else {
        return;
    };
    drop(handle);
    let report = server.finish();
    eprintln!(
        "served {} client(s): {} frames delivered, {} dropped, {} undelivered at exit, {} evicted",
        report.clients_seen,
        report.frames_delivered,
        report.frames_dropped,
        report.undelivered,
        report
            .departures
            .iter()
            .filter(|d| matches!(
                d.reason,
                pubsub::EvictReason::TooSlow | pubsub::EvictReason::Protocol
            ))
            .count()
    );
}

/// The forwarding half of a federated collector: fold the merged summary
/// feed into per-window sketch state and push it upward (`--forward`),
/// append it to a state record file (`--state-out`), and/or persist it
/// into a historical store (`--store`). With a store, a restart resumes
/// the watermark frontier from the last durable window instead of
/// re-counting from zero.
fn collect_forward(args: &[String], output: impl Iterator<Item = TxSummary>, window: f64) -> i32 {
    let upstream: u64 = flag_value(args, "--upstream")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    // Chunk trackers so every record stays comfortably under the feed's
    // frame cap even at the default 10k-key capacities.
    let chunk_entries: usize = flag_value(args, "--chunk-entries")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024);
    let state_out = flag_value(args, "--state-out");
    let upward = flag_value(args, "--forward")
        .map(|addr| Sensor::<WindowState>::connect(addr, SensorConfig::new(upstream)));
    // Test hook for the crash-recovery suite: exit hard (code 3) after
    // the Nth window is durable, like a kill -9 at the worst moment.
    let kill_after: Option<u64> =
        flag_value(args, "--kill-after-windows").and_then(|v| v.parse().ok());

    let cfg = ObservatoryConfig {
        datasets: datasets(args),
        window_secs: window,
        // The admission gate's bloom filter and eviction order ride in
        // the serialized window exports, so a crash-recovery resume
        // reconstructs the gate exactly; --no-bloom-gate now only
        // disables the gate itself, it is not needed for exact resume.
        bloom_gate: !args.iter().any(|a| a == "--no-bloom-gate"),
        ..ObservatoryConfig::default()
    };
    let mut cli_store = match open_cli_store(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut serve = match serve_server(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let retain = retain_span_us(args);
    let mut exporter = match cli_store.as_mut().and_then(|(_, last)| last.take()) {
        Some((start, states)) => {
            match StateExporter::resume(cfg.clone(), upstream, chunk_entries, start, states) {
                Ok(e) => {
                    eprintln!("store: resumed watermark frontier after window t={start}s");
                    e
                }
                Err(e) => {
                    eprintln!("store: cannot resume from last window ({e}); starting fresh");
                    StateExporter::new(cfg.clone(), upstream, chunk_entries)
                }
            }
        }
        _ => StateExporter::new(cfg.clone(), upstream, chunk_entries),
    };
    let policy = store::CompactionPolicy::default();
    let tracing = flag_value(args, "--trace-out").is_some();
    let export_clock = SystemClock::new();
    if tracing {
        exporter = exporter.with_trace(FlightRecorder::global().ring("exporter"));
    }
    // Live subscribers get the platform's own meta self-report windows
    // alongside the data, one per sealed window of stream time.
    let mut meta = serve
        .is_some()
        .then(|| MetaReporter::new(Registry::global(), (window.max(1.0) * 1e6) as u64));
    if let Some(m) = &mut meta {
        m.tick(0);
    }
    let mut file_buf = Vec::new();
    let mut states = Vec::new();
    let mut exported = 0u64;
    let mut windows_stored = 0u64;
    let mut push = |states: &mut Vec<WindowState>,
                    file_buf: &mut Vec<u8>,
                    cli_store: &mut Option<CliStore>,
                    serve: &mut Option<(Server, ServerHandle)>|
     -> Result<(), i32> {
        if let Some((s, _)) = cli_store {
            // Each drain is one sealed window's full record batch.
            store_append(s, states, &policy, retain)?;
            if !states.is_empty() {
                windows_stored += 1;
                if kill_after.is_some_and(|n| windows_stored >= n) {
                    eprintln!("kill hook: exiting after {windows_stored} stored window(s)");
                    std::process::exit(3);
                }
            }
        }
        if let Some((_, handle)) = serve {
            // Publishing never blocks the seal path: a full broker ring
            // drops the batch and counts it, subscribers resync later.
            if !states.is_empty() {
                handle.publish_windows(states.clone());
            }
        }
        for ws in states.drain(..) {
            if state_out.is_some() {
                sketchwire::write_record(&ws, file_buf);
            }
            if let Some(s) = &upward {
                s.send(ws);
            }
            exported += 1;
        }
        Ok(())
    };
    let publish_meta = |meta_bytes: Option<Vec<u8>>, serve: &mut Option<(Server, ServerHandle)>| {
        let (Some(bytes), Some((_, handle))) = (meta_bytes, serve.as_mut()) else {
            return;
        };
        if let Ok((start, _, _)) = tsv::read_meta_window(bytes.as_slice()) {
            handle.publish_meta((start.max(0.0) * 1e6) as u64, bytes);
        }
    };
    let mut last_us = 0u64;
    for summary in output {
        if tracing {
            exporter.set_now_us(telemetry::Clock::now_us(&export_clock));
        }
        last_us = (summary.time.max(0.0) * 1e6) as u64;
        if let Some(m) = &mut meta {
            let bytes = m.tick(last_us);
            publish_meta(bytes, &mut serve);
        }
        exporter.ingest_summary(summary, &mut states);
        if let Err(code) = push(&mut states, &mut file_buf, &mut cli_store, &mut serve) {
            return code;
        }
    }
    let skipped = exporter.resumed_skipped();
    let ingested = exporter.finish(&mut states);
    if let Err(code) = push(&mut states, &mut file_buf, &mut cli_store, &mut serve) {
        return code;
    }
    if let Some(m) = &mut meta {
        let bytes = m.finish(last_us);
        publish_meta(bytes, &mut serve);
    }
    finish_server(serve);
    if skipped > 0 {
        eprintln!("store: skipped {skipped} summaries already covered by durable windows");
    }
    eprintln!("upstream {upstream}: ingested {ingested} summaries, exported {exported} window-state record(s)");
    if let Some((s, _)) = &cli_store {
        eprintln!(
            "store: {} live segment(s), frontier {}",
            s.segments().len(),
            s.frontier_us()
                .map(|us| format!("t={}s", us as f64 / 1e6))
                .unwrap_or_else(|| "empty".into())
        );
    }

    if let Some(path) = state_out {
        if let Err(e) = std::fs::write(path, &file_buf) {
            eprintln!("failed writing {path}: {e}");
            return 1;
        }
        eprintln!("wrote {} state bytes to {path}", file_buf.len());
    }
    if let Some(s) = upward {
        let report = s.finish();
        eprintln!(
            "forwarded {} frames/{} items, dropped {} frames/{} items, {} connect(s)",
            report.sent_frames,
            report.sent_items,
            report.dropped_frames,
            report.dropped_items,
            report.connects
        );
    }
    0
}

/// Every value of a repeatable flag (`--input a --input b`).
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// The aggregation tier: merge N forwarding collectors' window-state
/// streams (over TCP or from record files) into global TSV windows whose
/// error bound is the sum of the per-collector bounds.
fn aggregate_cmd(args: &[String]) -> i32 {
    let out = PathBuf::from(flag_value(args, "--out").unwrap_or("./dnsobs-data"));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return 1;
    }
    let _server = match metrics_server(args) {
        Ok(s) => s,
        Err(code) => return code,
    };

    let inputs = flag_values(args, "--input");
    if !inputs.is_empty() {
        return aggregate_files(&inputs, &out, args);
    }

    let Some(listen) = flag_value(args, "--listen") else {
        eprintln!("aggregate: --listen ADDR (or --input FILE) is required");
        return 2;
    };
    let upstreams: u64 = flag_value(args, "--upstreams")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mut collector =
        match Collector::<WindowState>::bind(listen, CollectorConfig::new(upstreams)) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot listen on {listen}: {e}");
                return 1;
            }
        };
    eprintln!(
        "aggregating {upstreams} upstream(s) on {} -> {}",
        collector.local_addr(),
        out.display()
    );

    let trace_out = flag_value(args, "--trace-out").map(PathBuf::from);
    let mut core = AggregatorCore::with_registry(
        &AggregatorConfig::new(upstreams as usize),
        &Registry::global(),
    );
    if trace_out.is_some() {
        core = core.with_trace(FlightRecorder::global().ring("aggregator"));
    }
    // With --store, sealed global windows are persisted (upstream id 0)
    // and a restart resumes the seal watermark from the last durable
    // window instead of re-sealing — records at or before it are late.
    let mut cli_store = match open_cli_store(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut serve = match serve_server(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let retain = retain_span_us(args);
    let policy = store::CompactionPolicy::default();
    if let Some((_, Some((start, _)))) = &cli_store {
        core.resume_sealed_through((start * 1e6).round() as u64);
        eprintln!("store: resumed seal watermark after window t={start}s");
    }
    // Lineage timestamps are always stamped — one clock read per record
    // keeps every sealed window's first-seen/sealed times meaningful
    // even when span tracing is off.
    let agg_clock = SystemClock::new();
    let output = collector.take_output();
    let mut sealed = Vec::new();
    let mut files = 0usize;
    for ws in output.iter() {
        core.set_now_us(telemetry::Clock::now_us(&agg_clock));
        if let Err(e) = core.on_state(ws) {
            eprintln!("rejected window-state record: {e}");
        }
        core.poll(&mut sealed);
        match write_sealed(
            &out,
            &mut sealed,
            cli_store.as_mut().map(|(s, _)| s),
            &policy,
            retain,
            serve.as_mut().map(|(_, h)| h),
        ) {
            Ok(n) => files += n,
            Err(e) => {
                eprintln!("failed writing global window: {e}");
                return 1;
            }
        }
    }
    let feed_report = collector.finish();
    let report = core.finish(&mut sealed);
    match write_sealed(
        &out,
        &mut sealed,
        cli_store.as_mut().map(|(s, _)| s),
        &policy,
        retain,
        serve.as_mut().map(|(_, h)| h),
    ) {
        Ok(n) => files += n,
        Err(e) => {
            eprintln!("failed writing global window: {e}");
            return 1;
        }
    }
    finish_server(serve);
    print_feed_report(&feed_report);
    print_aggregator_report(&report);
    if let Some(path) = &trace_out {
        dump_recorder(Some(path), "run end");
    }
    eprintln!("wrote {files} global TSV files to {}", out.display());
    0
}

/// Offline aggregation over `--state-out` record files.
fn aggregate_files(inputs: &[&str], out: &Path, args: &[String]) -> i32 {
    let mut records = Vec::new();
    for path in inputs {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return 1;
            }
        };
        match sketchwire::read_all(&bytes) {
            Ok(mut r) => records.append(&mut r),
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return 1;
            }
        }
    }
    let expected = records
        .iter()
        .map(|r| r.upstream)
        .collect::<std::collections::BTreeSet<_>>()
        .len()
        .max(1);
    let mut core =
        AggregatorCore::with_registry(&AggregatorConfig::new(expected), &Registry::global());
    let mut cli_store = match open_cli_store(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let retain = retain_span_us(args);
    let policy = store::CompactionPolicy::default();
    if let Some((_, Some((start, _)))) = &cli_store {
        core.resume_sealed_through((start * 1e6).round() as u64);
        eprintln!("store: resumed seal watermark after window t={start}s");
    }
    for ws in records {
        if let Err(e) = core.on_state(ws) {
            eprintln!("rejected window-state record: {e}");
        }
    }
    let mut sealed = Vec::new();
    let report = core.finish(&mut sealed);
    let files = match write_sealed(
        out,
        &mut sealed,
        cli_store.as_mut().map(|(s, _)| s),
        &policy,
        retain,
        None,
    ) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("failed writing global window: {e}");
            return 1;
        }
    };
    print_aggregator_report(&report);
    eprintln!("wrote {files} global TSV files to {}", out.display());
    0
}

/// Render and write every sealed global window, draining `sealed`.
/// When a store is given, each window is persisted (durably, before the
/// TSV render) as upstream-0 records, then compaction and retention
/// tick. When a serve handle is given, the window is also published to
/// live subscribers (never blocking: a full broker ring drops it).
fn write_sealed(
    out: &Path,
    sealed: &mut Vec<sketchwire::GlobalWindow>,
    mut cli_store: Option<&mut store::Store>,
    policy: &store::CompactionPolicy,
    retain: Option<u64>,
    mut serve: Option<&mut ServerHandle>,
) -> std::io::Result<usize> {
    let mut files = 0usize;
    for gw in sealed.drain(..) {
        if cli_store.is_some() || serve.is_some() {
            let batch: Vec<WindowState> = gw
                .datasets
                .iter()
                .map(|topk| WindowState {
                    upstream: 0,
                    start: gw.start,
                    length: gw.length,
                    topk: topk.clone(),
                })
                .collect();
            if let Some(s) = cli_store.as_deref_mut() {
                if store_append(s, &batch, policy, retain).is_err() {
                    return Err(std::io::Error::other("store append failed"));
                }
            }
            if let Some(h) = serve.as_deref_mut() {
                h.publish_windows(batch);
            }
        }
        files += dns_observatory::write_global(out, &gw)?;
    }
    Ok(files)
}

/// Parse a `--flag SECS` time as integer microseconds.
fn secs_us(args: &[String], flag: &str) -> Option<u64> {
    flag_value(args, flag)
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s >= 0.0)
        .map(|s| (s * 1e6).round() as u64)
}

/// Print a typed query failure; corrupt stores name the bad segment so
/// the operator knows which file to quarantine.
fn report_query_error(e: &store::StoreError) -> i32 {
    eprintln!("query failed: {e}");
    if let Some(seg) = e.bad_segment() {
        eprintln!("bad segment: {seg} (quarantine it or restore from a replica)");
    }
    1
}

/// Print the query planner's accounting plus wall-clock latency.
fn print_query_stats(started: std::time::Instant, stats: &store::QueryStats) {
    println!(
        "answered in {:.2} ms ({} of {} segment(s) decoded, {} record(s); pruned {} time, {} dataset, {} bloom)",
        started.elapsed().as_secs_f64() * 1e3,
        stats.segments_scanned,
        stats.segments_total,
        stats.records_decoded,
        stats.pruned_time,
        stats.pruned_dataset,
        stats.pruned_bloom
    );
}

/// `dnsobs query`: answer historical questions from a `--store`
/// directory — footer indexes plus merged sketch state, never raw
/// transactions. Every answer states the merged Space-Saving error
/// bound it carries.
fn query_cmd(args: &[String]) -> i32 {
    let usage = || {
        eprintln!(
            "query: usage:\n  dnsobs query history --store DIR --dataset DS --key KEY [--from SECS] [--to SECS]\n  dnsobs query renumber --store DIR [--dataset aafqdn] [--from SECS] [--to SECS]\n  dnsobs query topk --store DIR --dataset DS --at SECS [--n N]"
        );
        2
    };
    let Some(kind) = args.first().map(String::as_str) else {
        return usage();
    };
    let rest = &args[1..];
    let Some(dir) = flag_value(rest, "--store") else {
        eprintln!("query: --store DIR is required");
        return 2;
    };
    let started = std::time::Instant::now();
    let (s, report) = match store::Store::open(Path::new(dir)) {
        Ok(opened) => opened,
        Err(e) => return report_query_error(&e),
    };
    if !report.is_clean() {
        eprintln!(
            "note: store recovery swept {} tmp / {} orphan file(s)",
            report.removed_tmp.len(),
            report.removed_orphans.len()
        );
    }
    let t0_us = secs_us(rest, "--from").unwrap_or(0);
    let t1_us = secs_us(rest, "--to")
        .or_else(|| s.frontier_us().map(|f| f.saturating_add(1)))
        .unwrap_or(u64::MAX);
    match kind {
        "history" => {
            let (Some(dataset), Some(key)) =
                (flag_value(rest, "--dataset"), flag_value(rest, "--key"))
            else {
                eprintln!("query history: --dataset and --key are required");
                return 2;
            };
            match store::query::history(&s, dataset, key, t0_us, t1_us) {
                Ok((points, total_error, stats)) => {
                    println!(
                        "history of {key:?} in {dataset} over [{}s, {}s): {} window(s)",
                        t0_us as f64 / 1e6,
                        t1_us as f64 / 1e6,
                        points.len()
                    );
                    for p in &points {
                        println!(
                            "  t={:>12.0}s len={:>7.0}s level={} hits={:<10} count<={} (err<={}) window-bound={}",
                            p.start, p.length, p.level, p.hits, p.count, p.error, p.error_bound
                        );
                    }
                    let hits: u64 = points.iter().map(|p| p.hits).sum();
                    let count: u64 = points.iter().map(|p| p.count).sum();
                    println!("exact hits (feature counters, sum of per-window deltas): {hits}");
                    println!(
                        "true count in [{}, {count}] (Space-Saving count minus summed per-point error {total_error}, over {} window(s))",
                        count.saturating_sub(total_error),
                        points.len()
                    );
                    print_query_stats(started, &stats);
                    0
                }
                Err(e) => report_query_error(&e),
            }
        }
        "renumber" => {
            let dataset = flag_value(rest, "--dataset").unwrap_or("aafqdn");
            let (groups, stats) = match store::query::windows_in(&s, dataset, t0_us, t1_us, None) {
                Ok(r) => r,
                Err(e) => return report_query_error(&e),
            };
            let mut dumps = Vec::new();
            let mut total_bound = 0u64;
            for g in &groups {
                total_bound = total_bound.saturating_add(g.state.error_bound);
                match dns_observatory::render_state(&g.state, g.start, g.length) {
                    Ok(d) => dumps.push(d),
                    Err(e) => {
                        eprintln!("window t={}s does not render: {e}", g.start);
                        return 1;
                    }
                }
            }
            let refs: Vec<&dns_observatory::WindowDump> = dumps.iter().collect();
            let changes = dns_observatory::analysis::ttl::detect_changes(&refs);
            let renumberings: Vec<_> = changes
                .iter()
                .filter(|c| {
                    c.category == dns_observatory::analysis::ttl::ChangeCategory::Renumbering
                })
                .collect();
            println!(
                "renumbering events in [{}s, {}s): {}",
                t0_us as f64 / 1e6,
                t1_us as f64 / 1e6,
                renumberings.len()
            );
            for c in &renumberings {
                println!(
                    "  t={:>12.0}s {:<40} A-TTL {} -> {}",
                    c.at, c.key, c.ttl_before, c.ttl_after
                );
            }
            println!(
                "inspected {} window(s) of {dataset}; merged Space-Saving error bound: {total_bound}",
                groups.len()
            );
            print_query_stats(started, &stats);
            0
        }
        "topk" => {
            let Some(dataset) = flag_value(rest, "--dataset") else {
                eprintln!("query topk: --dataset is required");
                return 2;
            };
            let Some(at_us) = secs_us(rest, "--at") else {
                eprintln!("query topk: --at SECS is required");
                return 2;
            };
            let n: usize = flag_value(rest, "--n")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10);
            match store::query::topk_at(&s, dataset, at_us) {
                Ok((Some(g), stats)) => {
                    let mut rows: Vec<(&str, u64, u64, u64)> = g
                        .state
                        .entries
                        .iter()
                        .map(|e| {
                            (
                                e.key.as_str(),
                                e.features.adds.first().copied().unwrap_or(0),
                                e.count,
                                e.error,
                            )
                        })
                        .collect();
                    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                    println!(
                        "top-{n} of {dataset} at t={}s (window t={}s len={}s, level {}):",
                        at_us as f64 / 1e6,
                        g.start,
                        g.length,
                        g.level
                    );
                    println!(
                        "{:<40} {:>10} {:>12} {:>8}",
                        "key", "hits", "count<=", "err<="
                    );
                    for (key, hits, count, err) in rows.into_iter().take(n) {
                        println!("{key:<40} {hits:>10} {count:>12} {err:>8}");
                    }
                    println!(
                        "merged Space-Saving error bound: {} (observed {}, capacity {})",
                        g.state.error_bound, g.state.observed, g.state.capacity
                    );
                    print_query_stats(started, &stats);
                    0
                }
                Ok((None, stats)) => {
                    println!("no {dataset} window covers t={}s", at_us as f64 / 1e6);
                    print_query_stats(started, &stats);
                    0
                }
                Err(e) => report_query_error(&e),
            }
        }
        _ => usage(),
    }
}

/// `dnsobs subscribe`: follow a `--serve ADDR` collector or aggregator
/// live. The first frame per dataset is a full snapshot; every later
/// sealed window arrives as a delta against the previous one, and the
/// reassembled state renders to the same TSV files the server writes
/// locally. Meta self-report windows land next to the data files.
fn subscribe_cmd(args: &[String]) -> i32 {
    let Some(addr) = flag_value(args, "--connect") else {
        eprintln!("subscribe: --connect ADDR is required");
        return 2;
    };
    let out = PathBuf::from(flag_value(args, "--out").unwrap_or("./dnsobs-data"));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return 1;
    }
    let mut topics = Vec::new();
    for spec in flag_value(args, "--topics")
        .map(|v| v.split(',').collect::<Vec<_>>())
        .unwrap_or_default()
    {
        match Topic::parse(spec.trim()) {
            Some(t) => topics.push(t),
            None => {
                eprintln!(
                    "subscribe: unknown topic {spec:?} (expected topk, features, meta, or dataset=NAME)"
                );
                return 2;
            }
        }
    }
    let mut client = match SubscribeClient::connect(addr, &topics) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot subscribe to {addr}: {e}");
            return 1;
        }
    };
    eprintln!("subscribed to {addr} -> {}", out.display());
    let mut files = 0usize;
    let mut meta_files = 0usize;
    loop {
        match client.next_event() {
            Ok(Some(SubEvent::Window { dataset, .. })) => {
                let h = client
                    .core()
                    .held(&dataset)
                    .expect("an event names a held window");
                let dump = match dns_observatory::render_state(&h.state, h.start, h.length) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("window t={}s does not render: {e}", h.start);
                        return 1;
                    }
                };
                let path = out.join(format!("{}-{:05}.tsv", dump.dataset, dump.start as u64));
                if let Err(e) = write_dump(&path, &dump) {
                    eprintln!("failed writing {}: {e}", path.display());
                    return 1;
                }
                files += 1;
            }
            Ok(Some(SubEvent::Meta { bytes, .. })) => {
                meta_files += write_meta(&out, &bytes);
            }
            Ok(Some(SubEvent::Evicted {
                reason,
                undelivered,
            })) => {
                eprintln!(
                    "evicted by the server ({reason}): {undelivered} frame(s) were undelivered"
                );
                eprintln!("wrote {files} TSV file(s) and {meta_files} meta report(s)");
                return 1;
            }
            Ok(Some(SubEvent::End)) | Ok(None) => {
                let core = client.core();
                eprintln!(
                    "stream over: {} snapshot(s) + {} delta(s) -> {files} TSV file(s), {meta_files} meta report(s)",
                    core.snapshots_applied(),
                    core.deltas_applied()
                );
                return 0;
            }
            Err(e) => {
                eprintln!("subscription failed: {e}");
                return 1;
            }
        }
    }
}

/// `dnsobs store`: admin verbs for a store directory.
fn store_admin(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("synth") => store_synth(&args[1..]),
        Some("info") => store_info(&args[1..]),
        Some("expire") => store_expire(&args[1..]),
        _ => {
            eprintln!(
                "store: usage:\n  dnsobs store synth --dir DIR [--days N] [--seed N] [--keys N] [--window SECS] [--renumber-every N] [--no-compact]\n  dnsobs store info --dir DIR\n  dnsobs store expire --dir DIR (--retain DAYS | --before SECS)"
            );
            2
        }
    }
}

/// `dnsobs store expire`: drop whole segments older than the retention
/// horizon. `--retain DAYS` keeps the trailing span behind the frontier;
/// `--before SECS` names an absolute stream-time horizon. The manifest
/// swap is the commit point: a crash mid-unlink leaves only ledgered
/// orphans for the next open to sweep.
fn store_expire(args: &[String]) -> i32 {
    let Some(dir) = flag_value(args, "--dir") else {
        eprintln!("store expire: --dir DIR is required");
        return 2;
    };
    let (mut s, report) = match store::Store::open(Path::new(dir)) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("cannot open store {dir}: {e}");
            return 1;
        }
    };
    if !report.is_clean() {
        eprintln!(
            "store recovery swept {} tmp / {} orphan file(s)",
            report.removed_tmp.len(),
            report.removed_orphans.len()
        );
    }
    let horizon_us = match (retain_span_us(args), secs_us(args, "--before")) {
        (Some(span), None) => {
            let Some(frontier) = s.frontier_us() else {
                eprintln!("store expire: {dir} is empty, nothing to do");
                return 0;
            };
            frontier.saturating_sub(span)
        }
        (None, Some(at)) => at,
        _ => {
            eprintln!("store expire: exactly one of --retain DAYS or --before SECS is required");
            return 2;
        }
    };
    match s.expire_before(horizon_us) {
        Ok(report) => {
            eprintln!(
                "expired {} segment(s), {} window(s), {} record(s) behind t={}s; {} live segment(s) remain",
                report.expired.len(),
                report.windows(),
                report.records(),
                report.horizon_us as f64 / 1e6,
                s.segments().len()
            );
            for meta in &report.expired {
                eprintln!("  removed {}", meta.name);
            }
            0
        }
        Err(e) => {
            eprintln!("store expire failed: {e}");
            1
        }
    }
}

/// `dnsobs store synth`: fabricate months of seeded 10-minute windows
/// (with planted renumbering events `dnsobs query renumber` can find)
/// and compact them up the hour/day/month hierarchy.
fn store_synth(args: &[String]) -> i32 {
    use dns_observatory::synth::{renumber_truth, SynthConfig, SynthStream};
    let Some(dir) = flag_value(args, "--dir") else {
        eprintln!("store synth: --dir DIR is required");
        return 2;
    };
    let days: usize = flag_value(args, "--days")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(92);
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let keys: usize = flag_value(args, "--keys")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(8);
    let window: f64 = flag_value(args, "--window")
        .and_then(|v| v.parse().ok())
        .filter(|&w: &f64| w > 0.0)
        .unwrap_or(600.0);
    let windows_per_day = (86_400.0 / window).round().max(1.0) as usize;
    let renumber_every: usize = flag_value(args, "--renumber-every")
        .and_then(|v| v.parse().ok())
        .unwrap_or(windows_per_day);
    let started = std::time::Instant::now();
    let (mut s, report) = match store::Store::open(Path::new(dir)) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("cannot open store {dir}: {e}");
            return 1;
        }
    };
    if !report.is_clean() {
        eprintln!(
            "store recovery swept {} tmp / {} orphan file(s)",
            report.removed_tmp.len(),
            report.removed_orphans.len()
        );
    }
    if !s.segments().is_empty() {
        eprintln!(
            "store synth: {dir} already holds {} segment(s); refusing to mix",
            s.segments().len()
        );
        return 1;
    }
    let cfg = SynthConfig {
        seed,
        start: 0.0,
        window_secs: window,
        windows: days * windows_per_day,
        keys,
        datasets: vec!["aafqdn".to_string(), "esld".to_string()],
        capacity: (keys as u64) * 4,
        renumber_every,
    };
    let planted = renumber_truth(&cfg).len();
    let mut stream = SynthStream::new(cfg);
    // One level-0 segment per synthetic day keeps the append count (and
    // the manifest) proportional to days, not 10-min windows.
    for day in 0..days {
        let mut batch = Vec::new();
        for _ in 0..windows_per_day {
            batch.extend(stream.next_window().expect("stream sized to days"));
        }
        if let Err(e) = s.append(&batch) {
            eprintln!("append failed on day {day}: {e}");
            return 1;
        }
    }
    let before = s.segments().len();
    if flag_value(args, "--no-compact").is_none() && !args.iter().any(|a| a == "--no-compact") {
        match store::compact(&mut s, &store::CompactionPolicy::default()) {
            Ok(r) => eprintln!(
                "compacted {} input segment(s) into {} rollup(s)",
                r.inputs(),
                r.rolled.len()
            ),
            Err(e) => {
                eprintln!("compaction failed: {e}");
                return 1;
            }
        }
    }
    eprintln!(
        "synthesized {days} day(s) = {} windows ({} planted renumbering event(s), seed {seed}) in {:.2}s; segments {before} -> {}",
        days * windows_per_day,
        planted,
        started.elapsed().as_secs_f64(),
        s.segments().len()
    );
    0
}

/// `dnsobs store info`: one-page manifest summary of a store directory.
fn store_info(args: &[String]) -> i32 {
    let Some(dir) = flag_value(args, "--dir") else {
        eprintln!("store info: --dir DIR is required");
        return 2;
    };
    let (s, report) = match store::Store::open(Path::new(dir)) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("cannot open store {dir}: {e}");
            if let Some(seg) = e.bad_segment() {
                eprintln!("bad segment: {seg}");
            }
            return 1;
        }
    };
    if !report.is_clean() {
        println!(
            "recovery swept: {} tmp {:?}, {} orphan(s) {:?}",
            report.removed_tmp.len(),
            report.removed_tmp,
            report.removed_orphans.len(),
            report.removed_orphans
        );
    }
    println!("generation: {}", s.generation());
    println!("segments:   {}", s.segments().len());
    let mut by_level: std::collections::BTreeMap<u8, (usize, u64, u64)> = Default::default();
    for m in s.segments() {
        let e = by_level.entry(m.level).or_default();
        e.0 += 1;
        e.1 += m.windows as u64;
        e.2 += m.records as u64;
    }
    for (level, (segs, windows, records)) in by_level {
        println!("  level {level}: {segs} segment(s), {windows} window(s), {records} record(s)");
    }
    match s.frontier_us() {
        Some(f) => println!("frontier:   t={}s", f as f64 / 1e6),
        None => println!("frontier:   empty store"),
    }
    0
}

/// Print the aggregator's semantic ledger: per-upstream record, window,
/// gap, and late counts (the transport ledger is printed separately).
fn print_aggregator_report(report: &sketchwire::AggregatorReport) {
    eprintln!(
        "aggregated {} records into {} global window(s) ({} dataset merges, {} conflicts, {} late, {} rejected)",
        report.records,
        report.windows_sealed,
        report.dataset_merges,
        report.merge_conflicts,
        report.late_records,
        report.rejected
    );
    for (id, s) in &report.upstreams {
        eprintln!(
            "  upstream {id}: {} records, {} windows, {} gap(s), {} out-of-order, {} late, {} rejected, {} merged",
            s.records, s.windows, s.window_gaps, s.out_of_order, s.late_records, s.rejected, s.merged_windows
        );
    }
}

/// `dnsobs status`: scrape a metrics endpoint and render the one-page
/// operator summary.
fn status_cmd(args: &[String]) -> i32 {
    let addr = flag_value(args, "--metrics").unwrap_or(DEFAULT_METRICS_ADDR);
    let text = match telemetry::fetch(addr) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot scrape {addr}: {e}\n(start a run with `--metrics {addr}` first)");
            return 1;
        }
    };
    let samples = telemetry::prometheus::parse(&text);
    print!("{}", status::render_status(&samples));
    0
}

/// `dnsobs trace`: render a flight-recorder dump file as per-window
/// lineage. `--window-start SECS` narrows the detail to one window.
fn trace_cmd(args: &[String]) -> i32 {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("trace: usage: dnsobs trace DUMP.tsv [--window-start SECS]");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    let rows = telemetry::trace::parse_dump(&text);
    let only = flag_value(args, "--window-start")
        .and_then(|v| v.parse::<f64>().ok())
        .map(|s| (s * 1e6).round() as u64);
    print!("{}", dns_observatory::lineage::render_trace(&rows, only));
    0
}

fn write_dump(path: &Path, dump: &dns_observatory::WindowDump) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    tsv::write_window(&mut w, dump)
}

fn show(args: &[String], top: usize) -> i32 {
    let Some(path) = args
        .iter()
        .find(|a| !a.starts_with("--") && a.ends_with(".tsv"))
    else {
        eprintln!("no .tsv file given");
        return 2;
    };
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return 1;
        }
    };
    let dump = match tsv::read_window(BufReader::new(file)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return 1;
        }
    };
    println!(
        "dataset {} | window {}s @ t={}s | kept {} dropped {} filtered {}",
        dump.dataset, dump.length, dump.start, dump.kept, dump.dropped, dump.filtered
    );
    println!(
        "{:<40} {:>8} {:>7} {:>7} {:>9} {:>8}",
        "key", "hits", "nxd", "nodata", "delay_ms", "top_ttl"
    );
    for (key, row) in dump.rows.iter().take(top) {
        println!(
            "{:<40} {:>8} {:>6.1}% {:>6.1}% {:>9.1} {:>8}",
            key,
            row.hits,
            row.nxd_share() * 100.0,
            row.nodata_share() * 100.0,
            row.median_delay(),
            row.top_ttl()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }
    0
}
