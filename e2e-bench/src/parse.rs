//! Readers for what the `alex` CLI prints: the `--verbose` span table on
//! stderr and the per-episode `ep N  P ..  R ..  F ..` lines on stdout.

/// Summed `total` column of the span-table rows whose path ends in the
/// segment `episode`, in seconds. These are the program's always-on
/// episode spans (`improve/episode`, `improve_partitioned/episode`), which
/// cover feedback, learning, journal appends and periodic snapshots.
pub fn episode_seconds(stderr: &str) -> f64 {
    span_rows(stderr)
        .filter(|(path, _)| path.rsplit('/').next() == Some("episode"))
        .map(|(_, total)| total)
        .sum()
}

/// `(path, total seconds)` for every span-table row in `text`. A row is
/// `path count total mean min max`; any other line is skipped.
fn span_rows(text: &str) -> impl Iterator<Item = (&str, f64)> {
    text.lines().filter_map(|line| {
        let cols: Vec<&str> = line.split_whitespace().collect();
        let [path, count, total, mean, min, max] = cols.as_slice() else {
            return None;
        };
        count.parse::<u64>().ok()?;
        for d in [mean, min, max] {
            duration_seconds(d)?;
        }
        Some((*path, duration_seconds(total)?))
    })
}

/// A span-table duration (`532ns`, `104.08µs`, `81.70ms`, `9.96s`) in
/// seconds.
pub fn duration_seconds(text: &str) -> Option<f64> {
    let (number, scale) = if let Some(n) = text.strip_suffix("ns") {
        (n, 1e-9)
    } else if let Some(n) = text.strip_suffix("µs") {
        (n, 1e-6)
    } else if let Some(n) = text.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = text.strip_suffix('s') {
        (n, 1.0)
    } else {
        return None;
    };
    number.parse::<f64>().ok().map(|v| v * scale)
}

/// One `ep N  P p  R r  F f` line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeLine {
    pub episode: u64,
    pub precision: f64,
    pub recall: f64,
    pub f_measure: f64,
}

/// Every episode line on stdout, in order.
pub fn episode_lines(stdout: &str) -> Vec<EpisodeLine> {
    stdout
        .lines()
        .filter_map(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let ["ep", n, "P", p, "R", r, "F", f] = cols.as_slice() else {
                return None;
            };
            Some(EpisodeLine {
                episode: n.parse().ok()?,
                precision: p.parse().ok()?,
                recall: r.parse().ok()?,
                f_measure: f.parse().ok()?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const VERBOSE_BATCH: &str = "\
initial links: 1100 usable of 1100; ground truth: 1100 usable of 1100
wrote o.nt
span                                count        total         mean          min          max
improve_partitioned                     1        9.96s        9.96s        9.96s        9.96s
improve_partitioned/build_spaces        1        9.73s        9.73s        9.73s        9.73s
improve_partitioned/episode            40      81.70ms       2.04ms       1.29ms       4.86ms
partition_round                      1080     112.41ms     104.08µs      32.43µs       2.36ms
";

    const VERBOSE_DURABLE: &str = "\
recovering from st: snapshot 10, 3 journal episode(s)
span                          count        total         mean          min          max
improve                           1        1.20s        1.20s        1.20s        1.20s
improve/episode                  16     650.50ms      40.66ms     532ns         90.00ms
improve/episode/evaluate         16       4.10ms     256.25µs     100.00µs     400.00µs
improve/episode/feedback         13     600.00ms      46.15ms      30.00ms      80.00ms
improve/initial_quality           1     200.00µs     200.00µs     200.00µs     200.00µs
";

    #[test]
    fn sums_only_episode_spans() {
        assert!((episode_seconds(VERBOSE_BATCH) - 0.0817).abs() < 1e-12);
        assert!((episode_seconds(VERBOSE_DURABLE) - 0.6505).abs() < 1e-12);
        assert_eq!(episode_seconds("no spans recorded\n"), 0.0);
    }

    #[test]
    fn parses_every_duration_unit() {
        let close = |text, want: f64| (duration_seconds(text).unwrap() - want).abs() < 1e-15;
        assert!(close("532ns", 532e-9));
        assert!(close("104.08µs", 104.08e-6));
        assert!(close("81.70ms", 81.70e-3));
        assert!(close("9.96s", 9.96));
        assert_eq!(duration_seconds("total"), None);
        assert_eq!(duration_seconds("12"), None);
    }

    #[test]
    fn parses_episode_lines() {
        let stdout = "\
 initial  P 0.900  R 0.200  F 0.327
    ep 1  P 0.880  R 0.450  F 0.595
   ep 40  P 0.907  R 1.000  F 0.951
stopped: MaxEpisodes after 40 episodes (9.96s)
";
        let lines = episode_lines(stdout);
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            EpisodeLine {
                episode: 40,
                precision: 0.907,
                recall: 1.0,
                f_measure: 0.951
            }
        );
        assert!(episode_lines("stopped: Converged after 0 episodes (1ms)\n").is_empty());
    }
}
