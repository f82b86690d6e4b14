//! Host-side measurements the bench binaries print next to wall time.

#[cfg(target_os = "linux")]
extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
#[cfg(target_os = "linux")]
const SC_CLK_TCK: i32 = 2;

/// User + system CPU milliseconds this process has used so far, summed
/// over all its threads, from `/proc/self/stat`. `None` where procfs is
/// unavailable. CPU time next to wall time shows whether a run computes
/// or waits: a cross-thread handoff stall leaves CPU well below wall.
pub fn process_cpu_ms() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // The command name (field 2) is parenthesised and may contain
        // spaces; everything after its closing paren starts at field 3.
        let rest = stat.get(stat.rfind(')')? + 1..)?;
        // utime and stime, in clock ticks, are fields 14 and 15.
        let mut fields = rest.split_whitespace();
        let utime: u64 = fields.nth(11)?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        // SAFETY: sysconf has no preconditions.
        let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) };
        (ticks_per_s > 0).then(|| (utime + stime) as f64 * 1e3 / ticks_per_s as f64)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Milliseconds rendered for a `key=value` line or a JSON number: whole
/// milliseconds, or `null` where the value is unavailable.
pub fn ms_field(ms: Option<f64>) -> String {
    ms.map_or_else(|| "null".to_owned(), |v| format!("{v:.0}"))
}

/// Today's UTC date as `YYYY-MM-DD`, for dated benchmark records.
pub fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    civil_date((secs / 86_400) as i64)
}

/// Proleptic-Gregorian `YYYY-MM-DD` of `days` since 1970-01-01
/// (H. Hinnant's `civil_from_days`).
fn civil_date(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The git revision of the workspace these binaries were run from
/// (`git describe --always --dirty`: abbreviated hash, `-dirty` when the
/// tracked tree has uncommitted changes), or `unknown` outside a checkout.
pub fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn process_cpu_ms_advances_with_work() {
        let t0 = process_cpu_ms().expect("procfs readable");
        let (mut t1, mut x) = (t0, 0u64);
        let start = std::time::Instant::now();
        while t1 < t0 + 20.0 && start.elapsed() < std::time::Duration::from_secs(10) {
            for _ in 0..100_000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            t1 = process_cpu_ms().expect("procfs readable");
        }
        assert!(t1 >= t0 + 20.0, "10 s of spinning showed {:.0} ms CPU", t1 - t0);
    }

    #[test]
    fn civil_date_matches_known_days() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(59), "1970-03-01");
        assert_eq!(civil_date(11_016), "2000-02-29");
        assert_eq!(civil_date(20_743), "2026-10-17");
        assert_eq!(civil_date(-1), "1969-12-31");
    }

    #[test]
    fn ms_field_renders_whole_ms_or_null() {
        assert_eq!(ms_field(Some(1234.6)), "1235");
        assert_eq!(ms_field(None), "null");
    }
}
