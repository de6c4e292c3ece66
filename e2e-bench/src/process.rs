//! Running one `alex` child process while polling `/proc` for its peak
//! resident set and CPU time.

use std::io::Read;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Poll period. Exit is detected by polling too, so this is also the
/// resolution of the measured wall time.
const POLL: Duration = Duration::from_millis(1);

/// Read `VmHWM` only every this many polls: it changes slowly and the
/// status file is the costlier of the two reads.
const STATUS_EVERY: u32 = 5;

/// Linux reports CPU time in clock ticks of `USER_HZ`, which is 100 on
/// every architecture the kernel supports.
const TICKS_PER_SECOND: f64 = 100.0;

/// What one finished child process did.
#[derive(Debug)]
pub struct Finished {
    pub status: ExitStatus,
    /// Spawn to exit.
    pub wall: Duration,
    /// Highest `VmHWM` seen while the process ran.
    pub peak_rss_kb: u64,
    /// User plus system CPU time.
    pub cpu_s: f64,
    pub stdout: String,
    pub stderr: String,
}

/// Run `program args` to completion. Exit is noticed when `/proc/<pid>/stat`
/// shows the zombie state, before the child is reaped, so its final CPU
/// time can still be read.
pub fn run(program: &Path, args: &[String]) -> std::io::Result<Finished> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let stat_path = format!("/proc/{}/stat", child.id());
    let status_path = format!("/proc/{}/status", child.id());
    let mut out_pipe = child.stdout.take().expect("stdout is piped");
    let mut err_pipe = child.stderr.take().expect("stderr is piped");
    std::thread::scope(|s| {
        let out = s.spawn(move || {
            let mut text = String::new();
            out_pipe.read_to_string(&mut text).map(|_| text)
        });
        let err = s.spawn(move || {
            let mut text = String::new();
            err_pipe.read_to_string(&mut text).map(|_| text)
        });
        let mut peak_rss_kb = 0;
        let mut cpu_ticks = 0;
        let mut polls = 0u32;
        let wall = loop {
            match std::fs::read_to_string(&stat_path)
                .ok()
                .and_then(|t| parse_stat(&t))
            {
                Some(stat) => {
                    cpu_ticks = stat.cpu_ticks;
                    if stat.exited() {
                        break start.elapsed();
                    }
                }
                // No stat file: the process is gone already.
                None => {
                    if child.try_wait()?.is_some() {
                        break start.elapsed();
                    }
                }
            }
            if polls.is_multiple_of(STATUS_EVERY) {
                if let Some(kb) = std::fs::read_to_string(&status_path)
                    .ok()
                    .and_then(|t| parse_vm_hwm_kb(&t))
                {
                    peak_rss_kb = peak_rss_kb.max(kb);
                }
            }
            polls += 1;
            std::thread::sleep(POLL);
        };
        let status = child.wait()?;
        let stdout = out.join().expect("stdout reader panicked")?;
        let stderr = err.join().expect("stderr reader panicked")?;
        Ok(Finished {
            status,
            wall,
            peak_rss_kb,
            cpu_s: cpu_ticks as f64 / TICKS_PER_SECOND,
            stdout,
            stderr,
        })
    })
}

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStat {
    /// Single-letter process state (`R`, `S`, `D`, `Z`, ...).
    pub state: char,
    /// `utime + stime`, in clock ticks.
    pub cpu_ticks: u64,
}

impl ProcStat {
    /// Whether the process has exited (zombie or dead).
    pub fn exited(&self) -> bool {
        matches!(self.state, 'Z' | 'X' | 'x')
    }
}

/// Parse `/proc/<pid>/stat`. The command name (field 2) is parenthesised
/// and may itself contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let state = fields.first()?.chars().next()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(ProcStat {
        state,
        cpu_ticks: utime + stime,
    })
}

/// `VmHWM` (peak resident set) in kB from `/proc/<pid>/status`; `None` when
/// the line is absent, as it is for a zombie.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_state_and_cpu_from_stat() {
        let text = "4242 (alex) R 4200 4242 4200 34816 4242 4194304 12045 0 0 0 \
                    731 52 0 0 20 0 3 0 9876543 470310912 110612 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n";
        assert_eq!(
            parse_stat(text),
            Some(ProcStat {
                state: 'R',
                cpu_ticks: 783
            })
        );
    }

    #[test]
    fn stat_survives_awkward_command_names() {
        let text = "7 (a) b (c)) Z 1 7 7 0 -1 4194560 0 0 0 0 5 6 0 0 20 0 1 0 100 0 0\n";
        let stat = parse_stat(text).unwrap();
        assert_eq!(stat.cpu_ticks, 11);
        assert!(stat.exited());
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn reads_peak_rss_from_status() {
        let status = "Name:\talex\nState:\tR (running)\nVmPeak:\t  470312 kB\n\
                      VmHWM:\t  453120 kB\nVmRSS:\t  440000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(453_120));
        let zombie = "Name:\talex\nState:\tZ (zombie)\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm_kb(zombie), None);
    }

    #[test]
    fn runs_a_child_to_completion() {
        let done = run(
            Path::new("sh"),
            &["-c".into(), "echo out; echo err >&2".into()],
        )
        .unwrap();
        assert!(done.status.success());
        assert_eq!(done.stdout, "out\n");
        assert_eq!(done.stderr, "err\n");
        assert!(done.wall > Duration::ZERO);
    }
}
