//! The `dvw-server` child process: built from the checkout, spawned on
//! loopback with the shipped defaults, readiness taken from its
//! listening line, stdout drained for its whole life, killed on drop.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the server may take between spawn and its listening line.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Build `dvw-server` from the checkout at `root` (a no-op when it is
/// fresh) and return the binary's path. Cargo's own output goes to
/// stderr so stdout stays the benchmark's result channel.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "dvw-windtunnel",
            "--bin",
            "dvw-server",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building dvw-server failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let bin = target.join("release").join("dvw-server");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("dvw-server not found at {}", bin.display()))
    }
}

/// A running `dvw-server`. Dropping it kills the process, waits for it,
/// and joins the stdout drain.
pub struct ServerChild {
    child: Child,
    drain: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl ServerChild {
    /// Spawn `bin <dataset> <flags…>` and block until it prints the
    /// listening line (never a fixed sleep).
    pub fn spawn(bin: &Path, dataset: &Path, flags: &[&str]) -> Result<ServerChild, String> {
        let mut child = Command::new(bin)
            .arg(dataset)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            kill_and_reap(&mut child);
            return Err("dvw-server stdout was not captured".into());
        };
        let (tx, rx) = mpsc::channel::<String>();
        // The drain reads to EOF for the child's whole life: dvw-server
        // prints a second line after the listening line and panics on a
        // closed pipe, so the read end must stay open and emptied.
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let mut announced = false;
            while let Some(Ok(line)) = lines.next() {
                if !announced {
                    announced = tx.send(line).is_ok();
                }
            }
        });
        let mut server = ServerChild {
            child,
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = rx
            .recv_timeout(READY_TIMEOUT)
            .map_err(|_| "dvw-server exited or stalled before its listening line".to_string())?;
        server.addr = parse_listening_line(&line)?;
        Ok(server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set (`VmHWM`) of the server so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM line in the server's /proc status")?;
        Ok(kb / 1024.0)
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        kill_and_reap(&mut self.child);
        if let Some(drain) = self.drain.take() {
            // The pipe closes when the child dies, so the drain ends.
            let _ = drain.join();
        }
    }
}

fn kill_and_reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// `dvw-server: serving '<name>' (<dims> x <n> timesteps) on <addr>`.
fn parse_listening_line(line: &str) -> Result<SocketAddr, String> {
    line.strip_prefix("dvw-server: serving ")
        .and_then(|rest| rest.rsplit(" on ").next())
        .and_then(|addr| addr.trim().parse().ok())
        .ok_or_else(|| format!("unexpected first line from dvw-server: {line:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_yields_the_bound_address() {
        let addr = parse_listening_line(
            "dvw-server: serving 'tapered-cylinder' (64x64x32 x 64 timesteps) on 127.0.0.1:40123",
        )
        .unwrap();
        assert_eq!(addr, SocketAddr::from(([127, 0, 0, 1], 40123)));
        assert!(parse_listening_line("press Ctrl-C to stop").is_err());
    }
}
