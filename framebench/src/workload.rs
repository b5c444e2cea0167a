//! The two workloads: their seeded inputs, their set-up (server spawn
//! to the first timed frame), and one closed-loop round of frames.

use crate::child::ServerChild;
use crate::client::{look_at, Client, Rpc};
use crate::scene::{self, Expected, Geometry, TIMESTEPS};
use crate::trace::{FrameRecord, ServerSample, Spans};
use std::path::Path;
use std::time::{Duration, Instant};
use tracer::{Rake, ToolKind};
use vecmath::{Pose, Vec3};
use vr::Gesture;
use windtunnel::proto::{Command, FrameStats, TimeCommand};

/// The shipped server defaults, plus an ephemeral loopback port.
pub const SERVER_FLAGS: [&str; 3] = ["--ogrid", "--addr", "127.0.0.1:0"];

/// Table 3's rake: 100 seeds of 200-point streamlines.
const DRAG_SEEDS: u32 = 100;
/// Each of the two static streamline rakes beside the dragged one.
const STATIC_SEEDS: u32 = 50;
/// Streakline rakes × seeds: Table 1's 100 k-particle row.
const STREAK_RAKES: usize = 3;
const STREAK_SEEDS: u32 = 200;
/// Clock ticks of smoke emitted before timing starts.
const STREAK_FILL_TICKS: u64 = 200;
/// Rounds between delta-vs-full identity checks.
const IDENTITY_EVERY: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DragStreamlines,
    SmokePlayback,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "drag_streamlines" => Some(Workload::DragStreamlines),
            "smoke_playback" => Some(Workload::SmokePlayback),
            _ => None,
        }
    }
}

/// SplitMix64: the workload's inputs are a pure function of `--seed`.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }
}

/// The server's playback clock as the benchmark commands it (loop mode,
/// one timestep per tick).
#[derive(Clone, Copy)]
struct Clock {
    current: f32,
    playing: bool,
}

impl Clock {
    fn advance(&mut self) {
        if self.playing {
            self.current = (self.current + 1.0).rem_euclid((TIMESTEPS - 1) as f32);
        }
    }

    fn jump(&mut self, ts: u32) {
        self.current = (ts as usize).min(TIMESTEPS - 1) as f32;
    }

    fn timestep(&self) -> u32 {
        self.current.round() as u32
    }
}

/// A smooth seeded hand path starting at `origin`.
struct HandPath {
    origin: Vec3,
    amp: Vec3,
    freq: Vec3,
    phase: Vec3,
    last: Vec3,
}

impl HandPath {
    fn at(&self, k: u64) -> Vec3 {
        let k = k as f32;
        let wave = |a: f32, f: f32, p: f32| a * ((f * k + p).sin() - p.sin());
        self.origin
            + Vec3::new(
                wave(self.amp.x, self.freq.x, self.phase.x),
                wave(self.amp.y, self.freq.y, self.phase.y),
                wave(self.amp.z, self.freq.z, self.phase.z),
            )
    }
}

/// An observer's head walking a seeded orbit around the cylinder.
struct Orbit {
    theta0: f32,
    step: f32,
    bob: f32,
}

impl Orbit {
    fn at(&self, k: u64) -> Pose {
        let th = self.theta0 + self.step * k as f32;
        let eye = Vec3::new(
            16.0 * th.cos(),
            16.0 * th.sin(),
            4.0 + self.bob * (0.5 * th).sin(),
        );
        look_at(eye, Vec3::new(1.0, 0.0, 4.0))
    }
}

/// The per-workload part of each round.
enum Script {
    /// The lead drags its rake along `hand`; the observer walks `orbit`.
    Drag { hand: HandPath, orbit: Orbit },
    /// The lead advances the clock every frame.
    Playback,
}

/// What one round's frames are checked against, kept in step with every
/// command the benchmark sends.
struct Model {
    rakes: Vec<Rake>,
    clock: Clock,
    streak_ticks: u64,
}

impl Model {
    fn expected(&self) -> Expected<'_> {
        Expected {
            rakes: &self.rakes,
            timestep: self.clock.timestep(),
            time: self.clock.current,
            streak_ticks: self.streak_ticks,
        }
    }

    fn tick(&mut self) {
        self.clock.advance();
        if self.rakes.iter().any(|r| r.tool == ToolKind::Streakline) {
            self.streak_ticks += 1;
        }
    }
}

/// A set-up workload: the server, its clients, and the model of what
/// they commanded.
pub struct Session {
    script: Script,
    pub server: ServerChild,
    clients: Vec<Client>,
    model: Model,
    /// Last PROC_STATS read, the baseline for the next traced frame.
    stats: FrameStats,
    next_frame: u64,
}

/// Outcome of a round: its frames, the first failure, if any, and the
/// time spent outside frames on checks and stats reads.
pub struct Round {
    pub frames: Vec<FrameRecord>,
    pub first_error: Option<String>,
    pub off_frame: Duration,
}

/// A rake to add: physical end points, seed count and tool.
type RakeSpec = (Vec3, Vec3, u32, ToolKind);

/// Spawn the server and bring the workload to its first timed frame.
pub fn setup(
    kind: Workload,
    bin: &Path,
    dataset: &Path,
    geo: &Geometry,
    seed: u64,
) -> Result<Session, String> {
    let mut rng = Rng(seed ^ 0x6672_616D_6562_656E);
    let server = ServerChild::spawn(bin, dataset, &SERVER_FLAGS)?;
    let lead_eye = Vec3::new(rng.uniform(-3.0, -1.0), -15.0, rng.uniform(6.0, 8.0));
    let lead_head = look_at(lead_eye, Vec3::new(1.0, 0.0, 4.0));
    let mut lead = Client::connect(server.addr(), Rpc::Delta, lead_head)?;
    lead.send(&Command::HeadPose { pose: lead_head })?;
    let mut model = Model {
        rakes: Vec::new(),
        clock: Clock {
            current: 0.0,
            playing: false,
        },
        streak_ticks: 0,
    };
    let rakes: Vec<RakeSpec> = match kind {
        Workload::DragStreamlines => {
            let ts0 = 4 + (rng.next_u64() % 56) as u32;
            lead.send(&Command::Time(TimeCommand::Jump(ts0)))?;
            model.clock.jump(ts0);
            let z0 = rng.uniform(3.0, 5.0);
            let mut rakes = vec![(
                Vec3::new(-4.0, -2.0, z0),
                Vec3::new(-4.0, 2.0, z0),
                DRAG_SEEDS,
                ToolKind::Streamline,
            )];
            for (lo, hi) in [(1.0, 2.0), (6.0, 7.0)] {
                let z = rng.uniform(lo, hi);
                let (a, b) = (Vec3::new(-3.0, -2.5, z), Vec3::new(-3.0, 2.5, z));
                rakes.push((a, b, STATIC_SEEDS, ToolKind::Streamline));
            }
            rakes
        }
        Workload::SmokePlayback => (0..STREAK_RAKES)
            .map(|i| {
                let z = 1.5 + 2.5 * i as f32 + rng.uniform(-0.3, 0.3);
                let (a, b) = (Vec3::new(-2.0, -1.5, z), Vec3::new(-2.0, 1.5, z));
                (a, b, STREAK_SEEDS, ToolKind::Streakline)
            })
            .collect(),
    };
    for (a, b, seed_count, tool) in rakes {
        model.rakes.push(geo.rake(a, b, seed_count, tool)?);
        lead.send(&Command::AddRake {
            a,
            b,
            seed_count,
            tool,
        })?;
    }
    let mut clients = Vec::new();
    let script = match kind {
        Workload::DragStreamlines => {
            let origin = geo.center(&model.rakes[0]);
            let mut phase = || rng.uniform(0.0, std::f32::consts::TAU);
            let phase = Vec3::new(phase(), phase(), phase());
            let mut freq = || std::f32::consts::TAU / rng.uniform(120.0, 180.0);
            let freq = Vec3::new(freq(), freq(), freq());
            let hand = HandPath {
                origin,
                amp: Vec3::new(0.5, 0.8, 0.8),
                freq,
                phase,
                last: origin,
            };
            // A fist at the center handle grabs the rake for the run.
            lead.send(&Command::Hand {
                position: origin,
                gesture: Gesture::Fist,
            })?;
            let orbit = Orbit {
                theta0: rng.uniform(0.0, std::f32::consts::TAU),
                step: std::f32::consts::TAU / 600.0,
                bob: rng.uniform(1.0, 2.0),
            };
            let observer_head = orbit.at(0);
            let mut observer = Client::connect(server.addr(), Rpc::Full, observer_head)?;
            observer.send(&Command::HeadPose {
                pose: observer_head,
            })?;
            clients.push(lead);
            clients.push(observer);
            Script::Drag { hand, orbit }
        }
        Workload::SmokePlayback => {
            lead.send(&Command::Time(TimeCommand::Play))?;
            model.clock.playing = true;
            for _ in 0..STREAK_FILL_TICKS {
                lead.full_frame_bytes(true)?;
                model.tick();
            }
            clients.push(lead);
            Script::Playback
        }
    };
    let mut session = Session {
        script,
        server,
        clients,
        model,
        stats: FrameStats::default(),
        next_frame: 0,
    };
    // One untimed round: every client holds its first keyframe and
    // every rake has been traced once.
    let warm = session.round(0, None, geo)?;
    if let Some(e) = warm.first_error {
        return Err(format!("set-up frame failed its checks: {e}"));
    }
    Ok(session)
}

impl Session {
    /// The commands one client sends before its frame request in round
    /// `k`, and whether that request advances the clock. Updates the
    /// model to what the commands will make of the scene.
    fn plan(&mut self, client: usize, k: u64, geo: &Geometry) -> (Vec<Command>, bool) {
        let m = &mut self.model;
        match &mut self.script {
            Script::Drag { hand, .. } if client == 0 => {
                let position = hand.at(k + 1);
                if let Some(rake) = m.rakes.first_mut() {
                    geo.drag(rake, hand.last, position);
                }
                hand.last = position;
                let cmd = Command::Hand {
                    position,
                    gesture: Gesture::Fist,
                };
                (vec![cmd], false)
            }
            Script::Drag { orbit, .. } => {
                let pose = orbit.at(k + 1);
                self.clients[client].head = pose;
                (vec![Command::HeadPose { pose }], false)
            }
            Script::Playback => {
                m.tick();
                (Vec::new(), true)
            }
        }
    }

    /// One closed-loop round: each client in turn sends its commands,
    /// requests its frame, decodes, applies and renders it; then, outside
    /// the frame span, the frame is checked. Traced rounds read the
    /// server's stage timers after every frame request.
    pub fn round(
        &mut self,
        k: u64,
        mut spans: Option<&mut Spans>,
        geo: &Geometry,
    ) -> Result<Round, String> {
        let traced = spans.is_some();
        let mut out = Round {
            frames: Vec::with_capacity(self.clients.len()),
            first_error: None,
            off_frame: Duration::ZERO,
        };
        if traced {
            let t = Instant::now();
            self.stats = self.clients[0].stats()?;
            out.off_frame += t.elapsed();
        }
        for c in 0..self.clients.len() {
            let (cmds, advance) = self.plan(c, k, geo);
            let id = self.next_frame;
            self.next_frame += 1;
            let delivered = match self.clients[c].frame(id, &cmds, advance, spans.as_deref_mut()) {
                Ok(d) => d,
                Err(e) => {
                    out.frames.push(FrameRecord {
                        frame: id,
                        failed: true,
                        traced,
                        ..FrameRecord::default()
                    });
                    out.first_error.get_or_insert(e);
                    continue;
                }
            };
            let mut record = delivered.record;
            let t = Instant::now();
            if traced {
                let after = self.clients[0].stats()?;
                let full = self.clients[c].rpc == Rpc::Full;
                record.server = Some(ServerSample::between(
                    &self.stats,
                    &after,
                    delivered.frame.revision,
                    full,
                    advance,
                ));
                self.stats = after;
            }
            let mut verdict = delivered.payload_error.map_or_else(
                || scene::check_frame(geo, &delivered.frame, &self.model.expected()),
                Err,
            );
            if verdict.is_ok() && !traced && k.is_multiple_of(IDENTITY_EVERY) {
                verdict = self.identity_check(c, &delivered.frame);
            }
            if let Err(e) = verdict {
                record.failed = true;
                out.first_error.get_or_insert(e);
            }
            out.off_frame += t.elapsed();
            out.frames.push(record);
        }
        Ok(out)
    }

    /// A FRAME_DELTA client's reassembled frame must encode to the same
    /// bytes PROC_FRAME returns at the same revision; and the render of
    /// it must have drawn something.
    fn identity_check(
        &mut self,
        c: usize,
        frame: &windtunnel::proto::GeometryFrame,
    ) -> Result<(), String> {
        let client = &mut self.clients[c];
        if client.lit_pixels() == 0 {
            return Err("the stereo render drew nothing".into());
        }
        if client.rpc != Rpc::Delta {
            return Ok(());
        }
        let full = client.full_frame_bytes(false)?;
        if full.as_ref() != frame.encode().as_ref() {
            return Err(format!(
                "FRAME_DELTA reassembly at revision {} differs from PROC_FRAME",
                frame.revision
            ));
        }
        Ok(())
    }
}
