//! Spans around the benchmark's own calls into each layer, the server's
//! stage timers read through PROC_STATS, and the reconciliation of both
//! against the frame's wall time.

use std::fmt::Write as _;
use std::time::Instant;
use windtunnel::proto::FrameStats;

/// Span names, one per layer boundary the client crosses.
pub const FRAME: &str = "frame";
pub const COMMAND_CALL: &str = "dlib.command_call";
pub const FRAME_CALL: &str = "dlib.frame_call";
pub const DECODE: &str = "windtunnel.proto.decode";
pub const APPLY: &str = "windtunnel.client.apply";
pub const RENDER: &str = "vr.render";

/// One timed interval. Spans of one frame share `frame`; `parent` indexes
/// the enclosing span in the same recorder.
pub struct Span {
    pub frame: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span store; written out once when the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn push(
        &mut self,
        frame: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            frame,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// JSON lines: one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"frame\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.frame, s.name, s.start_ns, s.end_ns, parent
            );
        }
        out
    }
}

/// The server's own account of one frame request, from the PROC_STATS
/// read that follows it (outside the frame span).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerSample {
    /// The request computed a fresh frame (its per-frame stage timers
    /// describe this request, not an earlier one).
    pub fresh: bool,
    /// The request advanced the clock (the streak stage timers are this
    /// tick's).
    pub advanced: bool,
    pub fetch_us: u64,
    pub integrate_us: u64,
    pub map_us: u64,
    pub frame_encode_us: u64,
    pub chunk_encode_us: u64,
    pub delta_splice_us: u64,
    pub streak_us: u64,
    pub streak_particles_per_s: u64,
    pub geom_hits: u64,
    pub geom_misses: u64,
    pub decode_us: u64,
    pub io_wait_us: u64,
    pub chunk_encodes: u64,
}

impl ServerSample {
    /// Difference the stats read after a request against the one before.
    pub fn between(
        before: &FrameStats,
        after: &FrameStats,
        frame_revision: u64,
        full: bool,
        advanced: bool,
    ) -> ServerSample {
        let fresh = after.revision == frame_revision && after.revision != before.revision;
        let per_frame = |v: u64| if fresh { v } else { 0 };
        ServerSample {
            fresh,
            advanced,
            fetch_us: per_frame(after.fetch_us),
            integrate_us: per_frame(after.integrate_us),
            map_us: per_frame(after.map_us),
            frame_encode_us: if full { per_frame(after.encode_us) } else { 0 },
            chunk_encode_us: if full {
                0
            } else {
                per_frame(after.chunk_encode_us)
            },
            delta_splice_us: if full { 0 } else { after.delta_encode_us },
            streak_us: if advanced {
                after.streak_sample_us
                    + after.streak_integrate_us
                    + after.streak_compact_us
                    + after.streak_inject_us
            } else {
                0
            },
            streak_particles_per_s: if advanced {
                after.streak_particles_per_s
            } else {
                0
            },
            geom_hits: per_frame(u64::from(after.geom_hits)),
            geom_misses: per_frame(u64::from(after.geom_misses)),
            decode_us: after.cum_decode_us.saturating_sub(before.cum_decode_us),
            io_wait_us: after.cum_io_wait_us.saturating_sub(before.cum_io_wait_us),
            chunk_encodes: after
                .cum_chunk_encodes
                .saturating_sub(before.cum_chunk_encodes),
        }
    }

    /// Server time the stage timers account for, µs. Decode and I/O wait
    /// are not added: they happen inside fetch or integrate.
    pub fn stages_us(&self) -> u64 {
        self.fetch_us
            + self.integrate_us
            + self.map_us
            + self.frame_encode_us
            + self.chunk_encode_us
            + self.delta_splice_us
            + self.streak_us
    }
}

/// Everything measured about one client frame.
#[derive(Debug, Clone, Default)]
pub struct FrameRecord {
    pub frame: u64,
    /// The frame was a FRAME_DELTA round trip (else PROC_FRAME).
    pub delta: bool,
    pub traced: bool,
    pub failed: bool,
    pub total_ns: u64,
    pub command_ns: u64,
    pub frame_call_ns: u64,
    pub decode_ns: u64,
    pub apply_ns: u64,
    pub render_ns: u64,
    pub reply_bytes: usize,
    pub points: usize,
    pub server: Option<ServerSample>,
}

impl FrameRecord {
    fn ms(ns: u64) -> f64 {
        ns as f64 / 1.0e6
    }

    pub fn total_ms(&self) -> f64 {
        Self::ms(self.total_ns)
    }

    /// Frame RPC time the server's stage timers do not account for:
    /// socket transfer, queue wait, and untimed tick work.
    pub fn unexplained_ms(&self) -> f64 {
        let stages = self.server.map_or(0, |s| s.stages_us());
        Self::ms(self.frame_call_ns) - stages as f64 / 1.0e3
    }
}

/// Quantile by linear interpolation between order statistics (the
/// "inclusive" method): `q` in [0, 1].
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One named per-layer value, with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn p50_where(frames: &[&FrameRecord], keep: impl Fn(&FrameRecord) -> Option<f64>) -> f64 {
    let v: Vec<f64> = frames.iter().filter_map(|f| keep(f)).collect();
    median(&v)
}

/// Per-layer metrics of the traced frames; `untraced_p50` is the frame
/// p50 of the same run's untraced rounds (for the tracing overhead).
pub fn layer_metrics(traced: &[&FrameRecord], spans: &Spans, untraced_p50: f64) -> Vec<Metric> {
    let ms = |us: u64| us as f64 / 1.0e3;
    let server = |f: &FrameRecord| f.server.unwrap_or_default();
    let fresh = |f: &FrameRecord| server(f).fresh;
    let n = traced.len().max(1) as f64;
    let sum = |get: fn(&ServerSample) -> u64| traced.iter().map(|f| get(&server(f))).sum::<u64>();
    let traced_ids: std::collections::HashSet<u64> = traced.iter().map(|f| f.frame).collect();
    let command_calls: Vec<f64> = spans
        .all()
        .iter()
        .filter(|s| s.name == COMMAND_CALL && traced_ids.contains(&s.frame))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1.0e6)
        .collect();
    let (hits, misses) = (sum(|s| s.geom_hits), sum(|s| s.geom_misses));
    let frame_p50 = median(&traced.iter().map(|f| f.total_ms()).collect::<Vec<_>>());
    vec![
        Metric {
            name: "dlib.frame_call_ms_p50",
            unit: "ms",
            value: p50_where(traced, |f| Some(FrameRecord::ms(f.frame_call_ns))),
        },
        Metric {
            name: "dlib.command_call_ms_p50",
            unit: "ms",
            value: median(&command_calls),
        },
        Metric {
            name: "storage.fetch_ms_p50",
            unit: "ms",
            value: p50_where(traced, |f| fresh(f).then(|| ms(server(f).fetch_us))),
        },
        Metric {
            name: "storage.decode_ms_per_frame",
            unit: "ms",
            value: ms(sum(|s| s.decode_us)) / n,
        },
        Metric {
            name: "storage.io_wait_ms_per_frame",
            unit: "ms",
            value: ms(sum(|s| s.io_wait_us)) / n,
        },
        Metric {
            name: "tracer.integrate_ms_p50",
            unit: "ms",
            value: p50_where(traced, |f| fresh(f).then(|| ms(server(f).integrate_us))),
        },
        Metric {
            name: "tracer.streak_advance_ms_p50",
            unit: "ms",
            value: p50_where(traced, |f| {
                server(f).advanced.then(|| ms(server(f).streak_us))
            }),
        },
        Metric {
            name: "tracer.streak_particles_per_s",
            unit: "1/s",
            value: p50_where(traced, |f| {
                server(f)
                    .advanced
                    .then(|| server(f).streak_particles_per_s as f64)
            }),
        },
        Metric {
            name: "windtunnel.compute.map_ms_p50",
            unit: "ms",
            value: p50_where(traced, |f| fresh(f).then(|| ms(server(f).map_us))),
        },
        Metric {
            name: "windtunnel.compute.geom_hit_ratio",
            unit: "ratio",
            value: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        },
        Metric {
            name: "windtunnel.proto.frame_encode_ms_p50",
            unit: "ms",
            value: p50_where(traced, |f| {
                (!f.delta).then(|| ms(server(f).frame_encode_us))
            }),
        },
        Metric {
            name: "windtunnel.proto.chunk_encode_ms_p50",
            unit: "ms",
            value: p50_where(traced, |f| f.delta.then(|| ms(server(f).chunk_encode_us))),
        },
        Metric {
            name: "windtunnel.proto.delta_splice_ms_p50",
            unit: "ms",
            value: p50_where(traced, |f| f.delta.then(|| ms(server(f).delta_splice_us))),
        },
        Metric {
            name: "windtunnel.proto.chunk_encodes_per_frame",
            unit: "count",
            value: sum(|s| s.chunk_encodes) as f64 / n,
        },
        Metric {
            name: "windtunnel.proto.decode_ms_p50",
            unit: "ms",
            value: p50_where(traced, |f| Some(FrameRecord::ms(f.decode_ns))),
        },
        Metric {
            name: "windtunnel.client.apply_ms_p50",
            unit: "ms",
            value: p50_where(traced, |f| f.delta.then(|| FrameRecord::ms(f.apply_ns))),
        },
        Metric {
            name: "vr.render_ms_p50",
            unit: "ms",
            value: p50_where(traced, |f| Some(FrameRecord::ms(f.render_ns))),
        },
        Metric {
            name: "unexplained_ms_p50",
            unit: "ms",
            value: p50_where(traced, |f| Some(f.unexplained_ms())),
        },
        Metric {
            name: "trace_overhead_ms_p50",
            unit: "ms",
            value: frame_p50 - untraced_p50,
        },
    ]
}

/// The additive decomposition of a frame: client spans, the server's
/// stage timers, and what neither accounts for.
fn components(f: &FrameRecord) -> [(&'static str, f64); 13] {
    let s = f.server.unwrap_or_default();
    let ms = |us: u64| us as f64 / 1.0e3;
    let spans = f.command_ns + f.frame_call_ns + f.decode_ns + f.apply_ns + f.render_ns;
    [
        ("dlib.command_call", FrameRecord::ms(f.command_ns)),
        ("storage.fetch", ms(s.fetch_us)),
        ("tracer.integrate", ms(s.integrate_us)),
        ("tracer.streak_advance", ms(s.streak_us)),
        ("windtunnel.compute.map", ms(s.map_us)),
        ("windtunnel.proto.frame_encode", ms(s.frame_encode_us)),
        ("windtunnel.proto.chunk_encode", ms(s.chunk_encode_us)),
        ("windtunnel.proto.delta_splice", ms(s.delta_splice_us)),
        ("unexplained", f.unexplained_ms()),
        ("windtunnel.proto.decode", FrameRecord::ms(f.decode_ns)),
        ("windtunnel.client.apply", FrameRecord::ms(f.apply_ns)),
        ("vr.render", FrameRecord::ms(f.render_ns)),
        (
            "client.between_spans",
            FrameRecord::ms(f.total_ns.saturating_sub(spans)),
        ),
    ]
}

/// Reconciliation table: each layer's mean over the traced frames whose
/// wall time lies between the 40th and 60th percentiles. The rows of
/// one frame add up to its wall time exactly, so the column adds up to
/// the band's mean frame, which is set beside `frame_ms_p50`.
pub fn reconciliation(traced: &[&FrameRecord]) -> String {
    let totals: Vec<f64> = traced.iter().map(|f| f.total_ms()).collect();
    let (lo, hi) = (quantile(&totals, 0.4), quantile(&totals, 0.6));
    let band: Vec<&FrameRecord> = traced
        .iter()
        .copied()
        .filter(|f| (lo..=hi).contains(&f.total_ms()))
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "{:<34} {:>10}", "layer (p40-p60 band mean)", "ms");
    let mut sum = 0.0;
    if !band.is_empty() {
        let mut rows: Vec<(&str, f64)> =
            components(band[0]).iter().map(|(n, _)| (*n, 0.0)).collect();
        for f in &band {
            for (row, (_, v)) in rows.iter_mut().zip(components(f)) {
                row.1 += v / band.len() as f64;
            }
        }
        for (name, v) in rows {
            sum += v;
            let _ = writeln!(out, "{name:<34} {v:>10.3}");
        }
    }
    let _ = writeln!(out, "{:<34} {sum:>10.3}", "sum of layers");
    let band_mean = band.iter().map(|f| f.total_ms()).sum::<f64>() / band.len().max(1) as f64;
    let _ = writeln!(out, "{:<34} {band_mean:>10.3}", "band mean frame");
    let _ = writeln!(
        out,
        "{:<34} {:>10.3}",
        "frame_ms_p50 (traced)",
        median(&totals)
    );
    let _ = writeln!(
        out,
        "({} traced frames, {} in the band)",
        traced.len(),
        band.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_like_the_inclusive_method() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn components_add_up_to_the_frame() {
        let f = FrameRecord {
            total_ns: 10_000_000,
            command_ns: 500_000,
            frame_call_ns: 6_000_000,
            decode_ns: 1_000_000,
            apply_ns: 250_000,
            render_ns: 2_000_000,
            server: Some(ServerSample {
                fetch_us: 100,
                integrate_us: 2_000,
                map_us: 300,
                ..ServerSample::default()
            }),
            ..FrameRecord::default()
        };
        let sum: f64 = components(&f).iter().map(|(_, v)| v).sum();
        assert!((sum - f.total_ms()).abs() < 1e-9);
    }
}
