//! Local process launching: the machinery behind `ncs-launch`.
//!
//! Spawns `np` ranks of a command on this machine, wires their
//! environment ([`crate::cluster::env`]) to an embedded — or external —
//! rendezvous service, multiplexes child stdout/stderr onto the parent's
//! with `[rank N]` prefixes (optionally teeing per-rank log files), and
//! reaps everything under a hard deadline so a hung rank can never hang
//! the launcher.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_long, c_ulong};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ncs_obs::json::{self, Json};
use ncs_threads::sync::POLLIN;

use crate::cluster::{env, ClusterError};
use crate::rendezvous::RendezvousServer;

/// `poll(2)`'s descriptor record: the descriptor, the events waited for,
/// and those it reported.
#[repr(C)]
struct PollFd(RawFd, i16, i16);

extern "C" {
    fn syscall(num: c_long, ...) -> c_long;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// `pidfd_open(2)` (Linux 5.3 on): a descriptor that polls readable once
/// the process has exited.
const SYS_PIDFD_OPEN: c_long = 434;

/// What to launch and how.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// Number of ranks to spawn.
    pub np: u32,
    /// The command (program + arguments) every rank runs.
    pub command: Vec<String>,
    /// External rendezvous service to use; `None` embeds one for the
    /// launch.
    pub ncsd: Option<SocketAddr>,
    /// Hard deadline for the whole world; survivors are killed when it
    /// expires.
    pub timeout: Duration,
    /// When set, rank output is additionally teed to per-rank files in
    /// this directory: `rank<N>.log` (stdout) and `rank<N>.err.log`
    /// (stderr).
    pub log_dir: Option<PathBuf>,
    /// Collect the telemetry plane: ranks publish their final metrics +
    /// flight-recorder dump (pushed to the rendezvous service and, with a
    /// [`LaunchSpec::log_dir`], written per rank to
    /// `rank<N>.telemetry.json` wrapped with the exit cause), and the
    /// launcher merges them into one world snapshot
    /// ([`LaunchReport::telemetry`], also `telemetry.json` in the log
    /// dir).
    pub telemetry: bool,
    /// Self-healing worlds: when a rank exits nonzero (or dies to a
    /// signal), respawn it into the same slot with a bumped
    /// [`env::INCARNATION`] (up to [`MAX_RESPAWNS`] times per rank)
    /// instead of recording the death. The respawned process sees a
    /// nonzero incarnation and is expected to `ClusterNode::rejoin` the
    /// running world rather than bootstrap it. Ranks exiting zero are
    /// finished, never respawned.
    pub respawn_dead: bool,
}

/// Respawn budget per rank slot under [`LaunchSpec::respawn_dead`] — a
/// crash-looping rank must eventually fail the launch rather than churn
/// forever.
pub const MAX_RESPAWNS: u32 = 3;

impl LaunchSpec {
    /// A spec running `command` on `np` local ranks with a 120 s deadline
    /// and an embedded rendezvous service.
    pub fn new(np: u32, command: Vec<String>) -> Self {
        LaunchSpec {
            np,
            command,
            ncsd: None,
            timeout: Duration::from_secs(120),
            log_dir: None,
            telemetry: false,
            respawn_dead: false,
        }
    }
}

/// One rank's fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankExit {
    /// The rank.
    pub rank: u32,
    /// Its exit code; `None` when it was killed at the deadline or died
    /// to a signal.
    pub code: Option<i32>,
}

/// The outcome of a launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchReport {
    /// Every rank's exit, ordered by rank.
    pub exits: Vec<RankExit>,
    /// Whether the deadline expired before every rank exited.
    pub timed_out: bool,
    /// The merged world telemetry snapshot (schema `ncs-telemetry/1`)
    /// when [`LaunchSpec::telemetry`] was set: every rank's final
    /// metrics + flight dump under one `"ranks"` array (`null` entries
    /// for ranks that died before publishing).
    pub telemetry: Option<String>,
}

impl LaunchReport {
    /// Whether every rank exited zero within the deadline.
    pub fn success(&self) -> bool {
        !self.timed_out && self.exits.iter().all(|e| e.code == Some(0))
    }

    /// The exit code the launcher should propagate: 0 on success, the
    /// first failing rank's code otherwise, 124 for a timeout (the
    /// `timeout(1)` convention).
    pub fn exit_code(&self) -> i32 {
        if self.timed_out {
            return 124;
        }
        self.exits
            .iter()
            .find_map(|e| match e.code {
                Some(0) => None,
                Some(c) => Some(c),
                None => Some(1),
            })
            .unwrap_or(0)
    }
}

/// A reader thread pumping one child stream to the parent's, line by
/// line, with a rank prefix (and an optional tee file).
fn pump_stream<R: std::io::Read + Send + 'static>(
    rank: u32,
    stream: R,
    to_stderr: bool,
    tee: Option<std::fs::File>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut tee = tee;
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if let Some(f) = &mut tee {
                let _ = writeln!(f, "{line}");
            }
            if to_stderr {
                eprintln!("[rank {rank}] {line}");
            } else {
                println!("[rank {rank}] {line}");
            }
        }
    })
}

struct Running {
    rank: u32,
    child: Child,
    /// The child's pidfd: the reaper waits on it.
    exited: OwnedFd,
    pumps: Vec<std::thread::JoinHandle<()>>,
    killed: bool,
    /// Which incarnation of the rank slot this process is (respawns bump
    /// it; the value is handed down via [`env::INCARNATION`]).
    incarnation: u32,
    respawns_left: u32,
}

/// Spawns one rank process with the world environment. `incarnation` is
/// zero for the initial launch; respawns pass the bumped value (and the
/// log tees switch to append so the death's evidence survives).
fn spawn_rank(
    spec: &LaunchSpec,
    program: &str,
    args: &[String],
    ncsd: SocketAddr,
    rank: u32,
    incarnation: u32,
) -> Result<Running, ClusterError> {
    let mut cmd = Command::new(program);
    cmd.args(args)
        .env(env::RANK, rank.to_string())
        .env(env::WORLD, spec.np.to_string())
        .env(env::NCSD, ncsd.to_string())
        .env(env::INCARNATION, incarnation.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if spec.telemetry {
        cmd.env(ncs_obs::postmortem::TELEMETRY_PUSH_ENV, "1");
        if let Some(dir) = &spec.log_dir {
            cmd.env(
                ncs_obs::postmortem::TELEMETRY_FILE_ENV,
                rank_telemetry_path(dir, rank),
            );
        }
    }
    let mut child = cmd.spawn().map_err(|e| {
        ClusterError::Config(format!("cannot spawn '{program}' for rank {rank}: {e}"))
    })?;
    // SAFETY: the call takes a process id and flags, and opens a
    // descriptor or fails.
    let pidfd = unsafe { syscall(SYS_PIDFD_OPEN, child.id() as c_long, 0 as c_long) };
    if pidfd < 0 {
        let e = std::io::Error::last_os_error();
        let _ = child.kill();
        return Err(ClusterError::Config(format!("pidfd_open: {e}")));
    }
    // SAFETY: the descriptor is new, and nothing else owns it.
    let exited = unsafe { OwnedFd::from_raw_fd(pidfd as RawFd) };
    let tee = |suffix: &str| {
        let path = spec
            .log_dir
            .as_ref()?
            .join(format!("rank{rank}{suffix}.log"));
        let opened = if incarnation == 0 {
            std::fs::File::create(&path)
        } else {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
        };
        match opened {
            Ok(f) => Some(f),
            Err(e) => {
                // The log files exist to diagnose failed runs; losing
                // them must at least be loud.
                eprintln!("ncs-launch: cannot create {}: {e}", path.display());
                None
            }
        }
    };
    let mut pumps = Vec::new();
    if let Some(out) = child.stdout.take() {
        pumps.push(pump_stream(rank, out, false, tee("")));
    }
    if let Some(errs) = child.stderr.take() {
        pumps.push(pump_stream(rank, errs, true, tee(".err")));
    }
    Ok(Running {
        rank,
        child,
        exited,
        pumps,
        killed: false,
        incarnation,
        respawns_left: if spec.respawn_dead { MAX_RESPAWNS } else { 0 },
    })
}

/// Where rank `rank`'s telemetry lands when a log dir is in play.
fn rank_telemetry_path(dir: &std::path::Path, rank: u32) -> PathBuf {
    dir.join(format!("rank{rank}.telemetry.json"))
}

/// `text` when it is one well-formed JSON object, else `None` with a
/// warning. A rank killed mid-write leaves a truncated file, and a pushed
/// dump is bytes off a socket; either would corrupt everything it is
/// spliced into. The caller splices the returned *text*, not a
/// re-rendering, so `u64` counters never round through `f64`.
fn intact_dump<'a>(rank: u32, source: &str, text: &'a str) -> Option<&'a str> {
    let why = match json::parse(text) {
        Ok(Json::Obj(_)) => return Some(text.trim()),
        Ok(_) => "not a JSON object".to_owned(),
        Err(e) => e.to_string(),
    };
    eprintln!("ncs-launch: dropping rank {rank}'s {source} telemetry dump: {why}");
    None
}

/// Picks each rank's dump — the one it pushed to the rendezvous service
/// (exact final state) before the file it wrote, and only a dump that
/// parsed — and merges them into the `ncs-telemetry/1` world view (`null`
/// for a rank with nothing intact). `files` has one entry per rank.
fn merge_telemetry<'a>(
    pushed: &'a HashMap<u32, String>,
    files: &'a [Option<String>],
) -> (Vec<Option<&'a str>>, String) {
    let dumps: Vec<Option<&str>> = (0u32..)
        .zip(files)
        .map(|(rank, file)| {
            [("pushed", pushed.get(&rank)), ("file", file.as_ref())]
                .into_iter()
                .find_map(|(source, text)| intact_dump(rank, source, text?))
        })
        .collect();
    let ranks: Vec<&str> = dumps.iter().map(|d| d.unwrap_or("null")).collect();
    let world_view = format!(
        "{{\"schema\":\"ncs-telemetry/1\",\"world\":{},\"ranks\":[{}]}}",
        files.len(),
        ranks.join(",")
    );
    (dumps, world_view)
}

/// Launches the world and blocks until every rank exited or the deadline
/// expired (stragglers are killed).
///
/// # Errors
///
/// [`ClusterError::Config`] for an empty command or zero `np`; spawn
/// failures surface as [`ClusterError::Config`] too (bad program path is
/// a configuration problem, not a runtime one).
pub fn launch(spec: &LaunchSpec) -> Result<LaunchReport, ClusterError> {
    if spec.np == 0 {
        return Err(ClusterError::Config("--np must be positive".into()));
    }
    let Some((program, args)) = spec.command.split_first() else {
        return Err(ClusterError::Config("no command to launch".into()));
    };
    // The rendezvous service every rank will meet at.
    let mut embedded: Option<RendezvousServer> = None;
    let ncsd = match spec.ncsd {
        Some(addr) => addr,
        None => {
            let server = RendezvousServer::start("127.0.0.1:0", spec.np)?;
            let addr = server.addr();
            embedded = Some(server);
            addr
        }
    };
    if let Some(dir) = &spec.log_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| ClusterError::Config(format!("cannot create log dir: {e}")))?;
    }

    let mut world: Vec<Running> = Vec::with_capacity(spec.np as usize);
    for rank in 0..spec.np {
        match spawn_rank(spec, program, args, ncsd, rank, 0) {
            Ok(r) => world.push(r),
            Err(e) => {
                // Kill what we already spawned: a half-world would hang on
                // rendezvous until its own timeout.
                for r in &mut world {
                    let _ = r.child.kill();
                }
                return Err(e);
            }
        }
    }

    // Reap under the deadline.
    let deadline = Instant::now() + spec.timeout;
    let mut exits: Vec<Option<RankExit>> = (0..spec.np).map(|_| None).collect();
    let mut timed_out = false;
    loop {
        // The pidfds of the children still running.
        let mut running = Vec::new();
        for r in &mut world {
            if exits[r.rank as usize].is_some() {
                continue;
            }
            match r.child.try_wait() {
                Ok(Some(status)) => {
                    let code = status.code();
                    // Self-healing: a dead (nonzero/signalled) rank with
                    // respawn budget left rejoins the world as the next
                    // incarnation instead of ending the run.
                    if code != Some(0) && r.respawns_left > 0 && Instant::now() < deadline {
                        for p in r.pumps.drain(..) {
                            let _ = p.join();
                        }
                        r.respawns_left -= 1;
                        r.incarnation += 1;
                        eprintln!(
                            "ncs-launch: rank {} died (exit {:?}); respawning as incarnation {}",
                            r.rank, code, r.incarnation
                        );
                        match spawn_rank(spec, program, args, ncsd, r.rank, r.incarnation) {
                            Ok(fresh) => {
                                r.child = fresh.child;
                                r.exited = fresh.exited;
                                r.pumps = fresh.pumps;
                                running.push(PollFd(r.exited.as_raw_fd(), POLLIN, 0));
                            }
                            Err(e) => {
                                eprintln!("ncs-launch: respawn of rank {} failed: {e}", r.rank);
                                exits[r.rank as usize] = Some(RankExit { rank: r.rank, code });
                            }
                        }
                    } else {
                        exits[r.rank as usize] = Some(RankExit { rank: r.rank, code });
                    }
                }
                Ok(None) => running.push(PollFd(r.exited.as_raw_fd(), POLLIN, 0)),
                Err(_) => {
                    exits[r.rank as usize] = Some(RankExit {
                        rank: r.rank,
                        code: None,
                    });
                }
            }
        }
        if running.is_empty() {
            break;
        }
        if Instant::now() >= deadline {
            timed_out = true;
            for r in &mut world {
                if exits[r.rank as usize].is_none() {
                    let _ = r.child.kill();
                    let _ = r.child.wait();
                    r.killed = true;
                    exits[r.rank as usize] = Some(RankExit {
                        rank: r.rank,
                        code: None,
                    });
                }
            }
            break;
        }
        // Until a child exits — its pidfd polls readable — or the
        // deadline; a signal ends the wait early, and the loop looks again.
        let left = deadline.saturating_duration_since(Instant::now());
        let ms = left.as_micros().div_ceil(1000).min(i32::MAX as u128) as c_int;
        // SAFETY: `running` is writable for its whole length, which is
        // what the call is told.
        unsafe { poll(running.as_mut_ptr(), running.len() as c_ulong, ms) };
    }
    let killed: Vec<bool> = world.iter().map(|r| r.killed).collect();
    for r in world {
        // A killed rank's grandchildren may hold its output pipe open
        // indefinitely; detach those pumps instead of joining (they exit
        // when the pipe finally closes).
        if r.killed {
            continue;
        }
        for p in r.pumps {
            let _ = p.join();
        }
    }
    let exits: Vec<RankExit> = exits.into_iter().map(|e| e.expect("all reaped")).collect();

    // Telemetry aggregation: merge the ranks' dumps into one world
    // snapshot, and wrap each per-rank file with the exit cause.
    let telemetry = spec.telemetry.then(|| {
        let pushed = embedded
            .as_ref()
            .map(|s| s.telemetry_snapshots())
            .unwrap_or_default();
        let files: Vec<Option<String>> = exits
            .iter()
            .map(|e| {
                let dir = spec.log_dir.as_ref()?;
                std::fs::read_to_string(rank_telemetry_path(dir, e.rank)).ok()
            })
            .collect();
        let (dumps, world_view) = merge_telemetry(&pushed, &files);
        if let Some(dir) = &spec.log_dir {
            let write = |path: PathBuf, text: &str| {
                if let Err(err) = std::fs::write(&path, text) {
                    eprintln!("ncs-launch: cannot write {}: {err}", path.display());
                }
            };
            for (e, dump) in exits.iter().zip(&dumps) {
                let wrapped = format!(
                    "{{\"rank\":{},\"exit_code\":{},\"killed\":{},\"telemetry\":{}}}",
                    e.rank,
                    e.code.map_or_else(|| "null".to_owned(), |c| c.to_string()),
                    killed[e.rank as usize],
                    dump.unwrap_or("null"),
                );
                write(rank_telemetry_path(dir, e.rank), &wrapped);
            }
            write(dir.join("telemetry.json"), &world_view);
        }
        world_view
    });
    drop(embedded);
    Ok(LaunchReport {
        exits,
        timed_out,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_exit_codes() {
        let ok = LaunchReport {
            exits: vec![
                RankExit {
                    rank: 0,
                    code: Some(0),
                },
                RankExit {
                    rank: 1,
                    code: Some(0),
                },
            ],
            timed_out: false,
            telemetry: None,
        };
        assert!(ok.success());
        assert_eq!(ok.exit_code(), 0);
        let failed = LaunchReport {
            exits: vec![
                RankExit {
                    rank: 0,
                    code: Some(0),
                },
                RankExit {
                    rank: 1,
                    code: Some(3),
                },
            ],
            timed_out: false,
            telemetry: None,
        };
        assert!(!failed.success());
        assert_eq!(failed.exit_code(), 3);
        let killed = LaunchReport {
            exits: vec![RankExit {
                rank: 0,
                code: None,
            }],
            timed_out: true,
            telemetry: None,
        };
        assert_eq!(killed.exit_code(), 124);
    }

    /// A `}`-terminated truncated file and a pushed fragment that would
    /// re-bracket the whole document: neither may reach the world view.
    #[test]
    fn malformed_rank_dumps_become_null_without_corrupting_the_world() {
        let good = r#"{"rank":0,"metrics":[{"value":18446744073709551615}]}"#;
        let pushed = HashMap::from([
            (0, good.to_owned()),
            (2, r#"}],"x":[{"#.to_owned()),
            (3, "[1,2]".to_owned()),
        ]);
        let files = [
            Some(r#"{"rank":0,"stale":true}"#.to_owned()),
            Some(r#"{"a":{"b":1}"#.to_owned()),
            Some(format!(" {} \n", good.replace("\"rank\":0", "\"rank\":2"))),
            None,
        ];
        let (dumps, world_view) = merge_telemetry(&pushed, &files);
        // Rank 0: the pushed dump wins, spliced byte-for-byte (a u64 that
        // f64 cannot hold survives). Rank 1: truncated file -> null.
        // Rank 2: bad push, intact file fallback. Rank 3: not an object.
        assert_eq!(dumps[0], Some(good));
        assert_eq!(dumps[1], None);
        assert!(dumps[2].is_some_and(|d| d.starts_with("{\"rank\":2")));
        assert_eq!(dumps[3], None);
        assert!(world_view.contains("18446744073709551615"));
        let doc = json::parse(&world_view).expect("world view parses");
        assert_eq!(doc.get("world").and_then(Json::as_num), Some(4.0));
        let ranks = doc.get("ranks").and_then(Json::as_arr).expect("ranks");
        let nulls: Vec<bool> = ranks.iter().map(|r| *r == Json::Null).collect();
        assert_eq!(nulls, [false, true, false, true]);
    }

    #[test]
    fn empty_specs_are_refused() {
        assert!(launch(&LaunchSpec::new(0, vec!["true".into()])).is_err());
        assert!(launch(&LaunchSpec::new(1, vec![])).is_err());
    }

    #[test]
    fn launches_trivial_ranks_and_collects_exits() {
        // Ranks that only echo their identity: exercises env plumbing,
        // prefixed output pumping and the reaper, without NCS traffic.
        let spec = LaunchSpec::new(
            3,
            vec![
                "/bin/sh".into(),
                "-c".into(),
                "echo rank $NCS_RANK of $NCS_WORLD at $NCS_NCSD".into(),
            ],
        );
        let report = launch(&spec).expect("launch");
        assert!(report.success(), "report: {report:?}");
        assert_eq!(report.exits.len(), 3);
    }

    #[test]
    fn respawn_dead_revives_failing_ranks() {
        // Incarnation 0 dies; incarnation 1 exits clean — the respawn
        // policy must turn that into a successful world.
        let cmd = vec![
            "/bin/sh".into(),
            "-c".into(),
            "[ \"$NCS_INCARNATION\" -ge 1 ]".into(),
        ];
        let spec = LaunchSpec {
            respawn_dead: true,
            ..LaunchSpec::new(2, cmd.clone())
        };
        let report = launch(&spec).expect("launch");
        assert!(report.success(), "report: {report:?}");

        // Without the policy the same world fails on first death.
        let report = launch(&LaunchSpec::new(2, cmd)).expect("launch");
        assert!(!report.success());
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn respawn_budget_bounds_crash_loops() {
        let spec = LaunchSpec {
            respawn_dead: true,
            ..LaunchSpec::new(1, vec!["/bin/sh".into(), "-c".into(), "exit 7".into()])
        };
        let t0 = Instant::now();
        let report = launch(&spec).expect("launch");
        assert!(!report.success());
        assert_eq!(report.exit_code(), 7);
        // MAX_RESPAWNS + 1 spawns, not an unbounded churn.
        assert!(t0.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn deadline_kills_stragglers() {
        let spec = LaunchSpec {
            timeout: Duration::from_millis(300),
            ..LaunchSpec::new(2, vec!["/bin/sh".into(), "-c".into(), "sleep 30".into()])
        };
        let t0 = Instant::now();
        let report = launch(&spec).expect("launch");
        assert!(report.timed_out);
        assert_eq!(report.exit_code(), 124);
        assert!(t0.elapsed() < Duration::from_secs(10));
    }
}
