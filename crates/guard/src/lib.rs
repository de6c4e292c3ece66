//! Run-level supervision for ALEX: budgets, breaches, and degraded mode.
//!
//! PR 2 hardened the federation edge (endpoint faults), PR 4 the storage
//! edge (crash-safe WAL); this crate hardens the middle of the loop. A
//! [`Budget`] bounds what one improvement run may consume — per-episode
//! and whole-run wall-clock, resident-set watermark, total feedback
//! items — and a [`Supervisor`] checks it at every episode boundary. On a
//! breach the driver finalizes the episode *normally* (it is journaled
//! through the WAL like any other, with a `degraded` marker in the same
//! record, so resume replays the marker instead of re-measuring the
//! clock), stamps incompleteness on the run report, and then either keeps
//! going or stops cleanly per [`BreachPolicy`].
//!
//! Two design rules keep supervision compatible with the repo's
//! determinism contract:
//!
//! 1. **Budgets never interrupt an episode.** Checks run between
//!    episodes, so feedback application is never torn; the worst case is
//!    one episode of overrun, which is the price of byte-identical state.
//! 2. **Breach outcomes are journaled, not recomputed.** Wall-clock and
//!    RSS are inherently nondeterministic, so the `degraded` bit travels
//!    in the episode's WAL record; a resumed run reads it back rather
//!    than re-deriving it from a clock it cannot reproduce.
//!
//! Breaches land in the `budget_breaches_total` counter and (when the
//! timeline recorder is on) a `budget_breach` instant event; degraded
//! episodes are counted by the driver in `episodes_degraded_total`.
//!
//! Panic isolation and seeded chaos live in `alex-parallel`
//! ([`PanicPolicy`], [`ChaosProfile`]) and are re-exported here so the
//! CLI and tests have one supervision facade.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

use alex_telemetry::{counter, timeline};

pub use alex_parallel::chaos::{self, ChaosProfile};
pub use alex_parallel::{panic_policy, set_panic_policy, PanicPolicy};

/// Resource ceilings for one improvement run. `None` everywhere (the
/// default) disables supervision checks entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock ceiling for a single episode.
    pub episode_wall: Option<Duration>,
    /// Wall-clock ceiling for the whole run.
    pub run_wall: Option<Duration>,
    /// Resident-set-size ceiling in bytes (checked via [`current_rss_bytes`]).
    pub max_rss_bytes: Option<u64>,
    /// Ceiling on total feedback items processed across the run.
    pub max_items: Option<u64>,
}

impl Budget {
    /// A budget with no limits: every check passes.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Whether every limit is disabled.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::default()
    }

    /// Set the per-episode wall-clock ceiling (the `--episode-budget-ms` flag).
    pub fn episode_wall_ms(mut self, ms: u64) -> Budget {
        self.episode_wall = Some(Duration::from_millis(ms));
        self
    }

    /// Set the whole-run wall-clock ceiling (the `--run-budget-ms` flag).
    pub fn run_wall_ms(mut self, ms: u64) -> Budget {
        self.run_wall = Some(Duration::from_millis(ms));
        self
    }

    /// Set the RSS ceiling in mebibytes (the `--max-rss-mb` flag).
    pub fn max_rss_mb(mut self, mb: u64) -> Budget {
        self.max_rss_bytes = Some(mb * 1024 * 1024);
        self
    }

    /// Set the total feedback-item quota.
    pub fn max_items(mut self, items: u64) -> Budget {
        self.max_items = Some(items);
        self
    }
}

/// One budget violation, found at an episode boundary. Ordered by check
/// priority: episode wall, run wall, RSS, items — the first violated
/// check wins when several are breached at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Breach {
    /// The episode took longer than [`Budget::episode_wall`].
    EpisodeWall {
        /// 1-based episode number.
        episode: u64,
        /// Measured episode duration.
        elapsed: Duration,
        /// The configured ceiling.
        budget: Duration,
    },
    /// The run as a whole exceeded [`Budget::run_wall`].
    RunWall {
        /// 1-based episode number at which the ceiling was crossed.
        episode: u64,
        /// Run wall-clock so far.
        elapsed: Duration,
        /// The configured ceiling.
        budget: Duration,
    },
    /// Resident set size crossed [`Budget::max_rss_bytes`].
    Rss {
        /// 1-based episode number at which the probe tripped.
        episode: u64,
        /// Probed RSS in bytes.
        rss_bytes: u64,
        /// The configured ceiling in bytes.
        budget_bytes: u64,
    },
    /// Total feedback items crossed [`Budget::max_items`].
    Items {
        /// 1-based episode number at which the quota was exhausted.
        episode: u64,
        /// Items processed so far.
        items: u64,
        /// The configured quota.
        budget: u64,
    },
}

impl fmt::Display for Breach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Breach::EpisodeWall {
                episode,
                elapsed,
                budget,
            } => write!(
                f,
                "episode {episode} ran {}ms, over the {}ms episode budget",
                elapsed.as_millis(),
                budget.as_millis()
            ),
            Breach::RunWall {
                episode,
                elapsed,
                budget,
            } => write!(
                f,
                "run reached {}ms at episode {episode}, over the {}ms run budget",
                elapsed.as_millis(),
                budget.as_millis()
            ),
            Breach::Rss {
                episode,
                rss_bytes,
                budget_bytes,
            } => write!(
                f,
                "RSS {}MiB at episode {episode}, over the {}MiB ceiling",
                rss_bytes / (1024 * 1024),
                budget_bytes / (1024 * 1024)
            ),
            Breach::Items {
                episode,
                items,
                budget,
            } => write!(
                f,
                "{items} feedback items by episode {episode}, over the {budget}-item quota"
            ),
        }
    }
}

/// What the driver does after a breach: mark the episode degraded and
/// keep going, or finalize and stop the run cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreachPolicy {
    /// Finalize the breaching episode, stamp the report, stop the run.
    #[default]
    Stop,
    /// Mark the episode degraded and continue; the run report still
    /// records every breach.
    Continue,
}

impl std::str::FromStr for BreachPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<BreachPolicy, String> {
        match s {
            "stop" => Ok(BreachPolicy::Stop),
            "continue" => Ok(BreachPolicy::Continue),
            other => Err(format!(
                "unknown budget policy {other:?} (expected stop|continue)"
            )),
        }
    }
}

/// Episode-boundary budget enforcement. Owned by the caller of the
/// driver and handed in by mutable reference, so one supervisor can span
/// a whole run (the run clock starts at the first check).
#[derive(Debug)]
pub struct Supervisor {
    budget: Budget,
    policy: BreachPolicy,
    run_started: Option<Instant>,
    items_total: u64,
    log: Vec<Breach>,
}

impl Supervisor {
    /// A supervisor enforcing `budget` under `policy`.
    pub fn new(budget: Budget, policy: BreachPolicy) -> Supervisor {
        Supervisor {
            budget,
            policy,
            run_started: None,
            items_total: 0,
            log: Vec::new(),
        }
    }

    /// The configured breach policy.
    pub fn policy(&self) -> BreachPolicy {
        self.policy
    }

    /// The configured budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Breaches observed so far.
    pub fn breaches(&self) -> u64 {
        self.log.len() as u64
    }

    /// Every breach observed so far, in episode order.
    pub fn breach_log(&self) -> &[Breach] {
        &self.log
    }

    /// Check the budget after one episode. `duration` is the episode's
    /// wall-clock, `items` the feedback items it processed. Returns the
    /// highest-priority breach, if any; every breach bumps
    /// `budget_breaches_total` and, when the timeline recorder is on,
    /// records a `budget_breach` instant event.
    pub fn after_episode(
        &mut self,
        episode: u64,
        duration: Duration,
        items: u64,
    ) -> Option<Breach> {
        let run_elapsed = self.run_started.get_or_insert_with(Instant::now).elapsed();
        self.items_total = self.items_total.saturating_add(items);
        let breach = self.check(episode, duration, run_elapsed);
        if let Some(b) = breach {
            self.log.push(b);
            counter!("budget_breaches_total").add(1);
            if timeline::enabled() {
                timeline::instant("budget_breach");
            }
        }
        breach
    }

    fn check(&self, episode: u64, duration: Duration, run_elapsed: Duration) -> Option<Breach> {
        if let Some(budget) = self.budget.episode_wall {
            if duration > budget {
                return Some(Breach::EpisodeWall {
                    episode,
                    elapsed: duration,
                    budget,
                });
            }
        }
        if let Some(budget) = self.budget.run_wall {
            if run_elapsed > budget {
                return Some(Breach::RunWall {
                    episode,
                    elapsed: run_elapsed,
                    budget,
                });
            }
        }
        if let Some(budget_bytes) = self.budget.max_rss_bytes {
            if let Some(rss_bytes) = current_rss_bytes() {
                if rss_bytes > budget_bytes {
                    return Some(Breach::Rss {
                        episode,
                        rss_bytes,
                        budget_bytes,
                    });
                }
            }
        }
        if let Some(budget) = self.budget.max_items {
            if self.items_total > budget {
                return Some(Breach::Items {
                    episode,
                    items: self.items_total,
                    budget,
                });
            }
        }
        None
    }
}

/// Current resident set size in bytes, probed from `/proc/self/status`
/// (`VmRSS`). Returns `None` where the proc filesystem is unavailable
/// (non-Linux hosts) or unparsable — RSS ceilings are then simply not
/// enforced, which is the safe direction for a budget probe.
pub fn current_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_rss(&status)
}

/// Peak resident set size in bytes (`VmHWM`), for watermark reporting.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_field(&status, "VmHWM:")
}

fn parse_vm_rss(status: &str) -> Option<u64> {
    parse_vm_field(status, "VmRSS:")
}

/// `VmRSS:     1234 kB` → bytes. The kernel reports kB unconditionally.
fn parse_vm_field(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line
        .strip_prefix(field)?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_breaches() {
        let mut sup = Supervisor::new(Budget::unlimited(), BreachPolicy::Stop);
        assert!(Budget::unlimited().is_unlimited());
        for episode in 1..=100 {
            assert_eq!(
                sup.after_episode(episode, Duration::from_secs(3600), 1_000_000),
                None
            );
        }
        assert_eq!(sup.breaches(), 0);
    }

    #[test]
    fn episode_wall_breach_has_priority_and_counts() {
        let before = alex_telemetry::counter!("budget_breaches_total").get();
        let budget = Budget::unlimited().episode_wall_ms(10).max_items(0);
        let mut sup = Supervisor::new(budget, BreachPolicy::Continue);
        // Both the episode wall and the items quota are violated; the
        // episode wall is reported because it is checked first.
        let breach = sup.after_episode(1, Duration::from_millis(50), 5).unwrap();
        assert!(
            matches!(breach, Breach::EpisodeWall { episode: 1, .. }),
            "{breach}"
        );
        assert_eq!(sup.breaches(), 1);
        assert!(alex_telemetry::counter!("budget_breaches_total").get() > before);
        // Within budget: no breach (items quota 0 still trips though).
        let breach = sup.after_episode(2, Duration::from_millis(1), 0).unwrap();
        assert!(matches!(breach, Breach::Items { .. }));
    }

    #[test]
    fn run_wall_accumulates_across_episodes() {
        let mut sup = Supervisor::new(Budget::unlimited().run_wall_ms(20), BreachPolicy::Stop);
        assert_eq!(sup.after_episode(1, Duration::from_millis(1), 0), None);
        std::thread::sleep(Duration::from_millis(30));
        let breach = sup.after_episode(2, Duration::from_millis(1), 0).unwrap();
        assert!(
            matches!(breach, Breach::RunWall { episode: 2, .. }),
            "{breach}"
        );
    }

    #[test]
    fn items_quota_is_cumulative() {
        let mut sup = Supervisor::new(Budget::unlimited().max_items(10), BreachPolicy::Continue);
        assert_eq!(sup.after_episode(1, Duration::ZERO, 6), None);
        let breach = sup.after_episode(2, Duration::ZERO, 6).unwrap();
        assert!(
            matches!(
                breach,
                Breach::Items {
                    items: 12,
                    budget: 10,
                    ..
                }
            ),
            "{breach}"
        );
    }

    #[test]
    fn rss_probe_reads_proc_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        let rss = current_rss_bytes().expect("VmRSS present on Linux");
        assert!(rss > 0);
        let peak = peak_rss_bytes().expect("VmHWM present on Linux");
        assert!(peak >= rss / 2, "peak {peak} vs rss {rss}");
    }

    #[test]
    fn tight_rss_ceiling_breaches() {
        if current_rss_bytes().is_none() {
            return;
        }
        // 1 MiB is far below any real process RSS, so this must trip.
        let mut sup = Supervisor::new(Budget::unlimited().max_rss_mb(1), BreachPolicy::Stop);
        let breach = sup.after_episode(1, Duration::ZERO, 0).unwrap();
        assert!(matches!(breach, Breach::Rss { .. }), "{breach}");
    }

    #[test]
    fn vm_field_parser_handles_kernel_format() {
        let status = "Name:\talex\nVmHWM:\t  2048 kB\nVmRSS:\t   1536 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_rss(status), Some(1536 * 1024));
        assert_eq!(parse_vm_field(status, "VmHWM:"), Some(2048 * 1024));
        assert_eq!(parse_vm_rss("Name:\talex\n"), None);
    }

    #[test]
    fn breach_policy_parses() {
        assert_eq!("stop".parse::<BreachPolicy>(), Ok(BreachPolicy::Stop));
        assert_eq!(
            "continue".parse::<BreachPolicy>(),
            Ok(BreachPolicy::Continue)
        );
        assert!("abort".parse::<BreachPolicy>().is_err());
    }

    #[test]
    fn breach_displays_are_operator_readable() {
        let b = Breach::EpisodeWall {
            episode: 3,
            elapsed: Duration::from_millis(120),
            budget: Duration::from_millis(100),
        };
        assert_eq!(
            b.to_string(),
            "episode 3 ran 120ms, over the 100ms episode budget"
        );
        let b = Breach::Rss {
            episode: 1,
            rss_bytes: 300 * 1024 * 1024,
            budget_bytes: 256 * 1024 * 1024,
        };
        assert!(b.to_string().contains("300MiB"), "{b}");
    }
}
