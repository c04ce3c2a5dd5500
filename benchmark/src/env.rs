//! The run environment: what a result was measured on, and the refusals
//! that keep a result from being measured on the wrong thing.

use std::path::Path;

/// Facts printed with every result.
#[derive(Debug)]
pub struct RunEnv {
    pub cores: usize,
    pub ledger_fs: String,
    pub commit: String,
    pub profile: &'static str,
}

impl RunEnv {
    /// Probe the environment for a ledger directory `ledger_dir` (which
    /// must exist). Refuses a RAM-backed ledger and a build with live
    /// failpoints: neither measures the deployed system.
    pub fn probe(ledger_dir: &Path) -> Result<Self, String> {
        if failpoints_compiled_in() {
            return Err("refusing to run: failpoints are compiled into this build".into());
        }
        let ledger_fs = fs_type(ledger_dir).unwrap_or_else(|| "unknown".into());
        if matches!(ledger_fs.as_str(), "tmpfs" | "ramfs") {
            return Err(format!(
                "refusing to run: ledger directory {} is on {ledger_fs}, not a real disk",
                ledger_dir.display()
            ));
        }
        Ok(Self {
            cores: cores(),
            ledger_fs,
            commit: commit(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        })
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Whether the `failpoints` feature reached this build. With it, the
/// `GEOIND_FAILPOINTS` variable arms sites on first use; without it every
/// site is a constant `false`. Call before starting any thread.
fn failpoints_compiled_in() -> bool {
    const PROBE: &str = "bench.compiled_in_probe";
    std::env::set_var("GEOIND_FAILPOINTS", format!("{PROBE}=*"));
    let live = geoind_testkit::failpoint::hit(PROBE);
    std::env::remove_var("GEOIND_FAILPOINTS");
    live
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo`.
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    fs_type_in(&info, &path)
}

/// The filesystem type of the longest mount point in `mountinfo` that
/// contains `path`.
fn fs_type_in(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map(|(_, t)| t)
}

/// The checked-out commit when run from a git work tree, else a
/// fingerprint of the sources the benchmark builds.
fn commit() -> String {
    if let Some(head) = git_head() {
        return head;
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    // FNV-1a over path and contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!(
        "no git; source fingerprint {h:016x} over {} files",
        files.len()
    )
}

fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .trim()
            .split(' ')
            .next()
            .map(String::from)
    })
}

fn collect_sources(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
        {
            out.push(path.to_path_buf());
        }
    } else if let Ok(dir) = std::fs::read_dir(path) {
        for entry in dir.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n != "target") {
                collect_sources(&p, out);
            }
        }
    }
}

/// Write back every dirty page (the `sync` utility, waited for), so
/// writeback left by the build or an earlier run does not land inside a
/// timed phase: on ext4 an `fdatasync` commit also flushes other files'
/// ordered data. Best effort; a missing `sync` only costs stability.
pub fn settle_disk() {
    let _ = std::process::Command::new("sync").status();
}

/// A `kB` field of `/proc/self/status`, in kibibytes.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Bytes this process has caused to be sent to storage so far
/// (`write_bytes` of `/proc/self/io`).
pub fn write_bytes() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MOUNTINFO: &str = "\
22 1 254:0 / / rw,relatime - ext4 /dev/vda rw
40 22 0:35 / /dev/shm rw,nosuid - tmpfs shm rw
41 22 0:36 / /srv/my\\040disk rw - xfs /dev/vdb rw";

    #[test]
    fn longest_mount_prefix_names_the_filesystem() {
        let fs = |p: &str| fs_type_in(MOUNTINFO, Path::new(p));
        assert_eq!(fs("/srv/ledger").as_deref(), Some("ext4"));
        assert_eq!(fs("/dev/shm/ledger").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/srv/my disk/ledger").as_deref(), Some("xfs"));
    }
}
