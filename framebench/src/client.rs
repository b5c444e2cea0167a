//! One benchmark client, speaking only the wire protocol: `DlibClient`
//! calls, the `windtunnel::proto` codecs, a `RetainedScene` for
//! FRAME_DELTA, and stereo rendering through `vr` into a fixed
//! framebuffer.

use crate::trace::{self, FrameRecord, Spans};
use dlib::{ClientConfig, DlibClient};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use vecmath::{Mat4, Pose, Vec3};
use vr::render::Rgb;
use vr::stereo::{render_anaglyph, StereoCamera};
use vr::Framebuffer;
use windtunnel::client::RetainedScene;
use windtunnel::proto::{
    Command, DeltaFrame, DeltaRequest, FrameRequest, FrameStats, GeometryFrame, HelloReply,
    PathKind, PROC_COMMAND, PROC_FRAME, PROC_FRAME_DELTA, PROC_HELLO, PROC_STATS,
};

/// The framebuffer every frame is rendered into (the `dvw-client` size).
const FB_WIDTH: usize = 640;
const FB_HEIGHT: usize = 480;

/// Which RPC fetches this client's frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rpc {
    Delta,
    Full,
}

/// A frame as delivered to the display, with what the wire carried.
pub struct Delivered {
    pub frame: GeometryFrame,
    pub record: FrameRecord,
    /// Why the reply itself was malformed (payload-size check), if it was.
    pub payload_error: Option<String>,
}

pub struct Client {
    dlib: DlibClient,
    scene: RetainedScene,
    fb: Framebuffer,
    pub head: Pose,
    pub rpc: Rpc,
}

/// A head pose at `eye` looking at `target` (z up).
pub fn look_at(eye: Vec3, target: Vec3) -> Pose {
    let view = Mat4::look_at(eye, target, Vec3::Z);
    Pose::from_mat4(&view.inverse_rigid())
}

impl Client {
    pub fn connect(addr: SocketAddr, rpc: Rpc, head: Pose) -> Result<Client, String> {
        let config = ClientConfig {
            call_timeout: Some(Duration::from_secs(30)),
            connect_timeout: Some(Duration::from_secs(10)),
        };
        let mut dlib =
            DlibClient::connect_with(addr, config).map_err(|e| format!("connect: {e}"))?;
        let reply = dlib
            .call(PROC_HELLO, b"")
            .map_err(|e| format!("HELLO: {e}"))?;
        let hello = HelloReply::decode(&reply).map_err(|e| format!("HELLO reply: {e}"))?;
        if hello.timestep_count as usize != crate::scene::TIMESTEPS {
            return Err(format!(
                "server offers {} timesteps, the dataset has {}",
                hello.timestep_count,
                crate::scene::TIMESTEPS
            ));
        }
        Ok(Client {
            dlib,
            scene: RetainedScene::new(),
            fb: Framebuffer::new(FB_WIDTH, FB_HEIGHT),
            head,
            rpc,
        })
    }

    pub fn send(&mut self, cmd: &Command) -> Result<(), String> {
        self.dlib
            .call(PROC_COMMAND, &cmd.encode())
            .map(|_| ())
            .map_err(|e| format!("command {cmd:?}: {e}"))
    }

    pub fn stats(&mut self) -> Result<FrameStats, String> {
        let bytes = self
            .dlib
            .call(PROC_STATS, b"")
            .map_err(|e| format!("STATS: {e}"))?;
        FrameStats::decode(&bytes).map_err(|e| format!("STATS reply: {e}"))
    }

    /// Raw PROC_FRAME bytes (used outside timed spans, for warm-up and
    /// for the delta-vs-full identity check).
    pub fn full_frame_bytes(&mut self, advance: bool) -> Result<impl AsRef<[u8]>, String> {
        self.dlib
            .call(PROC_FRAME, &FrameRequest { advance }.encode())
            .map_err(|e| format!("FRAME: {e}"))
    }

    /// One client frame: this frame's commands, the frame RPC, decode,
    /// apply (FRAME_DELTA only) and stereo render. Spans go to `spans`
    /// when it is given.
    pub fn frame(
        &mut self,
        id: u64,
        commands: &[Command],
        advance: bool,
        spans: Option<&mut Spans>,
    ) -> Result<Delivered, String> {
        let mut rec = FrameRecord {
            frame: id,
            delta: self.rpc == Rpc::Delta,
            traced: spans.is_some(),
            ..FrameRecord::default()
        };
        let mut children: Vec<(&'static str, Instant, Instant)> =
            Vec::with_capacity(commands.len() + 4);
        let start = Instant::now();
        for cmd in commands {
            let t = Instant::now();
            self.send(cmd)?;
            children.push((trace::COMMAND_CALL, t, Instant::now()));
        }
        let t = Instant::now();
        let reply = match self.rpc {
            Rpc::Delta => {
                let req = DeltaRequest {
                    advance,
                    baseline: self.scene.revision(),
                };
                self.dlib.call(PROC_FRAME_DELTA, &req.encode())
            }
            Rpc::Full => self
                .dlib
                .call(PROC_FRAME, &FrameRequest { advance }.encode()),
        }
        .map_err(|e| format!("frame RPC: {e}"))?;
        children.push((trace::FRAME_CALL, t, Instant::now()));
        rec.reply_bytes = reply.len();

        let t = Instant::now();
        let (frame, payload_error) = match self.rpc {
            Rpc::Delta => {
                let delta = DeltaFrame::decode(&reply).map_err(|e| format!("delta decode: {e}"))?;
                children.push((trace::DECODE, t, Instant::now()));
                // Counted here because apply consumes the delta; a few
                // microseconds between spans.
                let payload_error = crate::scene::check_delta_payload(reply.len(), &delta).err();
                let t = Instant::now();
                let frame = self.scene.apply(delta).map_err(|e| format!("apply: {e}"))?;
                children.push((trace::APPLY, t, Instant::now()));
                (frame, payload_error)
            }
            Rpc::Full => {
                let frame =
                    GeometryFrame::decode(&reply).map_err(|e| format!("frame decode: {e}"))?;
                children.push((trace::DECODE, t, Instant::now()));
                let payload_error = crate::scene::check_full_payload(reply.len(), &frame).err();
                (frame, payload_error)
            }
        };

        let t = Instant::now();
        self.render(&frame);
        children.push((trace::RENDER, t, Instant::now()));
        let end = Instant::now();

        for (name, s, e) in &children {
            let ns = u64::try_from(e.duration_since(*s).as_nanos()).unwrap_or(u64::MAX);
            match *name {
                trace::COMMAND_CALL => rec.command_ns += ns,
                trace::FRAME_CALL => rec.frame_call_ns = ns,
                trace::DECODE => rec.decode_ns = ns,
                trace::APPLY => rec.apply_ns = ns,
                _ => rec.render_ns = ns,
            }
        }
        rec.total_ns = u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        rec.points = frame.particle_count();
        if let Some(spans) = spans {
            let root = spans.push(id, trace::FRAME, start, end, None);
            for (name, s, e) in children {
                spans.push(id, name, s, e, Some(root));
            }
        }
        Ok(Delivered {
            frame,
            record: rec,
            payload_error,
        })
    }

    /// The shipped client's stereo display path, built on `vr` directly
    /// rather than through `WindtunnelClient`, so the benchmark outlives
    /// changes to the client types.
    fn render(&mut self, frame: &GeometryFrame) {
        let mut lines: Vec<(Vec<Vec3>, u8)> =
            Vec::with_capacity(frame.paths.len() + frame.rakes.len());
        for p in &frame.paths {
            let shade = match p.kind {
                PathKind::Streamline => 235,
                PathKind::ParticlePath => 180,
                PathKind::Streak => 140,
            };
            lines.push((p.points.clone(), shade));
        }
        for r in &frame.rakes {
            lines.push((vec![r.a, r.b], 255));
        }
        self.fb.clear(Rgb::BLACK);
        self.fb.clear_depth();
        let mut camera = StereoCamera::new(self.head);
        camera.aspect = FB_WIDTH as f32 / FB_HEIGHT as f32;
        render_anaglyph(&mut self.fb, &camera, &lines);
    }

    /// Lit pixels of the last render (a render that draws nothing is a
    /// camera or geometry fault, not a fast frame).
    pub fn lit_pixels(&self) -> usize {
        self.fb.count_pixels(|c| c != Rgb::BLACK)
    }
}
