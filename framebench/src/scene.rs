//! The benchmark's inputs and its independent model of the outputs: the
//! analytic tapered cylinder on the paper's 64×64×32 O-grid, written as a
//! v2 dataset before any clock starts, plus the checks every delivered
//! frame must pass. The checks use the analytic flow and the O-grid's
//! own geometry, never anything the server reports about itself.

use cfd::analytic::AnalyticField;
use cfd::tapered_cylinder::{generate_dataset, TaperedCylinderFlow};
use cfd::OGridSpec;
use flowfield::CurvilinearGrid;
use std::path::{Path, PathBuf};
use tracer::{Domain, Handle, Rake, ToolKind};
use vecmath::Vec3;
use windtunnel::proto::{DeltaFrame, GeometryFrame, PathKind};

/// Timesteps in the dataset: longer than the server's 16-step cache
/// window, so looping playback decodes a new timestep every frame.
pub const TIMESTEPS: usize = 64;
/// Physical time between stored timesteps (the `dvw-gen` default).
const DT: f32 = 0.25;
/// Streak particle lifetime in ticks (`StreaklineConfig::default`).
const STREAK_MAX_AGE: u64 = 400;

/// Where a path's first point may sit from the rake's nearest seed.
const SEED_TOLERANCE: f32 = 1.0e-3;
/// A streamline segment must point along the analytic
/// velocity: the length-weighted mean cosine over a path's segments may
/// not fall below this, and no segment may run against the flow.
const MIN_MEAN_COSINE: f64 = 0.9;
/// Segments where the analytic speed is below this share of the
/// freestream carry no reliable direction (stagnation points) and are
/// skipped by the tangency check.
const MIN_SPEED_FRACTION: f32 = 0.05;
/// Segments shorter than this are rounding noise of a path crawling
/// along the body surface; their direction means nothing.
const MIN_SEGMENT: f32 = 1.0e-4;
/// Slack on the physical-domain test: mapped points lie on chords of
/// the body and far-field circles, inside the true curves by up to
/// `1 - cos(pi / (ni - 1))` of the radius.
const DOMAIN_SLACK: f32 = 1.0e-3;

/// Write the dataset under `root` once; later runs reuse it. A marker
/// file written last makes an interrupted generation invisible.
pub fn ensure_dataset(root: &Path) -> Result<PathBuf, String> {
    let dims = OGridSpec::default().dims;
    let dir = root.join("framebench").join("data").join(format!(
        "tapered-cylinder-{}x{}x{}-{TIMESTEPS}-v2",
        dims.ni, dims.nj, dims.nk
    ));
    let marker = dir.join("complete");
    if marker.is_file() {
        return Ok(dir);
    }
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let dataset = generate_dataset(
        &TaperedCylinderFlow::default(),
        "tapered-cylinder",
        TIMESTEPS,
        DT,
    )
    .map_err(|e| format!("generating the dataset: {e}"))?;
    flowfield::format::write_dataset_v2(&dir, &dataset)
        .map_err(|e| format!("writing the dataset: {e}"))?;
    std::fs::write(&marker, b"ok\n").map_err(|e| format!("{}: {e}", marker.display()))?;
    Ok(dir)
}

/// The O-grid, its tracing domain and the analytic flow it samples.
pub struct Geometry {
    spec: OGridSpec,
    grid: CurvilinearGrid,
    domain: Domain,
    flow: TaperedCylinderFlow,
    /// Cosine of half an angular cell: how far inside the body circle a
    /// chord between two surface nodes can dip.
    chord: f32,
}

impl Geometry {
    pub fn new() -> Result<Geometry, String> {
        let flow = TaperedCylinderFlow::default();
        let spec = flow.spec;
        let grid = spec
            .build()
            .map_err(|e| format!("building the O-grid: {e}"))?;
        let chord = (std::f32::consts::PI / (spec.dims.ni - 1) as f32).cos();
        Ok(Geometry {
            spec,
            domain: Domain::o_grid(spec.dims),
            grid,
            flow,
            chord,
        })
    }

    /// A rake between two physical points, in the grid coordinates the
    /// server keeps rakes in.
    pub fn rake(&self, a: Vec3, b: Vec3, seeds: u32, tool: ToolKind) -> Result<Rake, String> {
        let ga = self
            .grid
            .locate(a)
            .ok_or(format!("rake end {a:?} is off the grid"))?;
        let gb = self
            .grid
            .locate(b)
            .ok_or(format!("rake end {b:?} is off the grid"))?;
        Ok(Rake::new(ga, gb, seeds, tool))
    }

    /// Physical position of a rake's center handle.
    pub fn center(&self, rake: &Rake) -> Vec3 {
        self.grid
            .to_physical(rake.handle_position(Handle::Center))
            .unwrap_or(Vec3::ZERO)
    }

    /// Move a held rake the way a fist moving from `from` to `to` drags
    /// its center handle: the physical motion mapped to a grid delta at
    /// the handle.
    pub fn drag(&self, rake: &mut Rake, from: Vec3, to: Vec3) {
        let delta = to - from;
        if delta.length_squared() > 0.0 {
            let at = rake.handle_position(Handle::Center);
            if let Some(d) = self.grid.physical_velocity_to_grid(at, delta) {
                rake.drag(Handle::Center, d);
            }
        }
    }

    /// Physical seed points of a rake.
    pub fn seeds(&self, rake: &Rake) -> Vec<Vec3> {
        rake.seeds()
            .into_iter()
            .filter_map(|s| self.domain.canonicalize(s))
            .filter_map(|s| self.grid.to_physical(s))
            .collect()
    }

    fn inside(&self, p: Vec3) -> bool {
        if !p.is_finite() || p.z < -DOMAIN_SLACK || p.z > self.spec.span + DOMAIN_SLACK {
            return false;
        }
        let r = (p.x * p.x + p.y * p.y).sqrt();
        let body = self.spec.radius_at(p.z.clamp(0.0, self.spec.span));
        r >= body * self.chord - DOMAIN_SLACK && r <= self.spec.far_radius + DOMAIN_SLACK
    }

    /// Length-weighted mean cosine between a path's segments and the
    /// analytic velocity at time `t` at each segment's midpoint. `None`
    /// when no segment has a reliable direction. Errs on a segment
    /// running against the flow.
    fn tangency(&self, points: &[Vec3], t: f32) -> Result<Option<f64>, String> {
        let min_speed = MIN_SPEED_FRACTION * self.flow.u_inf;
        let (mut sum, mut weight) = (0.0f64, 0.0f64);
        for (k, w) in points.windows(2).enumerate() {
            let seg = w[1] - w[0];
            let len = seg.length();
            if len < MIN_SEGMENT {
                continue;
            }
            let v = self.flow.velocity((w[0] + w[1]) * 0.5, t);
            let speed = v.length();
            if speed < min_speed {
                continue;
            }
            let cos = f64::from(seg.dot(v) / (len * speed));
            if cos < 0.0 {
                return Err(format!("segment {k} runs against the flow (cos {cos:.3})"));
            }
            sum += cos * f64::from(len);
            weight += f64::from(len);
        }
        Ok((weight > 0.0).then(|| sum / weight))
    }
}

/// What the benchmark commanded, for checking one delivered frame.
pub struct Expected<'a> {
    /// Rakes in the order they were added (the server numbers them in
    /// that order).
    pub rakes: &'a [Rake],
    pub timestep: u32,
    pub time: f32,
    /// Clock ticks the streak rakes have been advected for.
    pub streak_ticks: u64,
}

/// Check a delivered frame against the analytic flow and the commanded
/// scene. Returns the first violation found.
pub fn check_frame(geo: &Geometry, frame: &GeometryFrame, exp: &Expected) -> Result<(), String> {
    if frame.timestep != exp.timestep || (frame.time - exp.time).abs() > 1.0e-4 {
        return Err(format!(
            "frame at timestep {} (time {}), commanded {} (time {})",
            frame.timestep, frame.time, exp.timestep, exp.time
        ));
    }
    if frame.rakes.len() != exp.rakes.len() {
        return Err(format!(
            "frame carries {} rakes, {} were added",
            frame.rakes.len(),
            exp.rakes.len()
        ));
    }
    let seeds: Vec<Vec<Vec3>> = exp.rakes.iter().map(|r| geo.seeds(r)).collect();
    let mut paths_per_rake = vec![0u32; exp.rakes.len()];
    let mut streak_points = 0u64;
    let mut streak_seeds = 0u64;
    for (model, msg) in exp.rakes.iter().zip(&frame.rakes) {
        if msg.tool != model.tool || msg.seed_count != model.seed_count {
            return Err(format!(
                "rake {} does not carry the commanded tool and seeds",
                msg.id
            ));
        }
        if model.tool == ToolKind::Streakline {
            streak_seeds += u64::from(model.seed_count);
        }
    }
    for path in &frame.paths {
        let Some(slot) = frame.rakes.iter().position(|r| r.id == path.rake_id) else {
            return Err(format!("path of unknown rake {}", path.rake_id));
        };
        let model = &exp.rakes[slot];
        paths_per_rake[slot] += 1;
        let expected_kind = match model.tool {
            ToolKind::Streamline => PathKind::Streamline,
            ToolKind::Streakline => PathKind::Streak,
            ToolKind::ParticlePath => {
                return Err("no workload adds a particle-path rake".into());
            }
        };
        if path.kind != expected_kind {
            return Err(format!(
                "rake {} delivered a {:?} path",
                path.rake_id, path.kind
            ));
        }
        let Some(&first) = path.points.first() else {
            return Err(format!("rake {} delivered an empty path", path.rake_id));
        };
        if let Some(bad) = path.points.iter().find(|p| !geo.inside(**p)) {
            return Err(format!("point {bad:?} lies outside the O-grid domain"));
        }
        let cos = if path.kind == PathKind::Streak {
            streak_points += path.points.len() as u64;
            None
        } else {
            geo.tangency(&path.points, exp.timestep as f32 * DT)?
        };
        if let Some(cos) = cos {
            if cos < MIN_MEAN_COSINE {
                return Err(format!(
                    "{:?} of rake {} is not tangent to the flow (mean cos {cos:.3})",
                    path.kind, path.rake_id
                ));
            }
        }
        // Streak filaments start at their youngest particle, injected at
        // the seed at the end of the last tick.
        let near = seeds[slot]
            .iter()
            .map(|s| s.distance(first))
            .fold(f32::INFINITY, f32::min);
        if near > SEED_TOLERANCE {
            return Err(format!(
                "a path of rake {} starts {near} away from its rake",
                path.rake_id
            ));
        }
    }
    for (model, n) in exp.rakes.iter().zip(&paths_per_rake) {
        if *n > model.seed_count {
            return Err(format!(
                "{n} paths from a rake of {} seeds",
                model.seed_count
            ));
        }
    }
    // One particle per seed per tick, each living through ages
    // 0..=max_age.
    let cap = streak_seeds * exp.streak_ticks.min(STREAK_MAX_AGE + 1);
    if streak_points > cap {
        return Err(format!(
            "{streak_points} streak particles exceed the cap of {cap}"
        ));
    }
    Ok(())
}

/// Per-item header bytes a reply may carry beyond its 12 B points.
const HEADER_PER_ITEM: usize = 64;
const HEADER_FIXED: usize = 64;

/// A PROC_FRAME reply must carry 12 B per point plus a bounded header.
pub fn check_full_payload(bytes: usize, frame: &GeometryFrame) -> Result<(), String> {
    let items = frame.rakes.len() + frame.paths.len() + frame.users.len();
    check_payload(bytes, frame.particle_count(), items)
}

/// A FRAME_DELTA reply: 12 B per shipped point plus a bounded header.
pub fn check_delta_payload(bytes: usize, delta: &DeltaFrame) -> Result<(), String> {
    let paths = delta.chunks.iter().flat_map(|c| &c.paths);
    let points = paths.clone().map(|p| p.points.len()).sum();
    let items = delta.rakes.len()
        + delta.chunks.len()
        + paths.count()
        + delta.tombstones.len()
        + delta.users.len();
    check_payload(bytes, points, items)
}

fn check_payload(bytes: usize, points: usize, items: usize) -> Result<(), String> {
    let floor = 12 * points;
    let ceiling = floor + HEADER_FIXED + HEADER_PER_ITEM * items;
    if bytes < floor || bytes > ceiling {
        return Err(format!(
            "reply of {bytes} B for {points} points and {items} items (allowed {floor}..={ceiling})"
        ));
    }
    Ok(())
}
