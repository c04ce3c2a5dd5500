//! Offline precomputation and persistence of MSM's per-node channels.
//!
//! Section 3.1 of the paper: the mobile device "will also download in
//! advance (offline) a set of objects that are required to support our
//! technique … the amount of data that needs to be downloaded offline is
//! small (in the order of tens of megabytes)". Those objects are exactly
//! the per-node optimal channels; this module implements the flow:
//!
//! 1. a provisioning service calls [`MsmMechanism::precompute`] to solve
//!    every per-node LP eagerly,
//! 2. serializes the channel cache with [`MsmMechanism::export_cache`]
//!    (a small self-describing little-endian binary format),
//! 3. the device calls [`MsmMechanism::import_cache`] and answers every
//!    query without ever touching the LP solver.
//!
//! ## Cache format (version 2)
//!
//! Everything little-endian:
//!
//! ```text
//! magic        8 bytes  "GEOINDCH"
//! version      u32      2
//! count        u64      number of entries
//! header_sum   u64      FNV-1a 64 over the version+count bytes
//! entry × count:
//!   payload_len  u64    length of the payload in bytes
//!   n, m         u64×2  channel shape (inputs × outputs)
//!   payload_sum  u64    FNV-1a 64 over the payload bytes
//!   entry_sum    u64    FNV-1a 64 over the 32 entry-header bytes above
//!   payload      payload_len bytes (level, id, n, m, points, probs)
//! ```
//!
//! The per-section checksums mean a truncated, bit-flipped, or
//! version-bumped blob is rejected with a clean
//! [`MechanismError::CacheCorrupt`] naming the failing section — it can
//! never be admitted as a garbage channel. The entry header (including
//! `payload_len`) is checksum-verified and cross-checked **before any
//! allocation**: `n` and `m` must equal this index's fan-out `g²` and
//! `payload_len` must equal the exact size those shapes imply, so a
//! corrupted or malicious length can neither trigger a huge allocation
//! nor mis-frame the rest of the stream. Version-1 blobs (magic
//! `GEOIND01`, no checksums) are detected and refused explicitly.
//!
//! Checksums only detect *corruption*. A payload forged with valid
//! FNV-1a sums — or produced by a buggy provisioner — could still encode
//! an ε-violating channel, so every structurally valid entry is also
//! **certified on load** against its level budget ([`crate::certify`]).
//! Entries that fail are *quarantined individually*: the rest of the
//! blob imports, the quarantined node falls back to a fresh (gated)
//! solve on demand, and the quarantine list is surfaced in the returned
//! [`CacheImportReport`]. Repair is deliberately not attempted here —
//! repairing a forged payload would launder it into service.

use crate::certify::{self, Certificate, Verdict};
use crate::channel::Channel;
use crate::msm::MsmMechanism;
use crate::MechanismError;
use geoind_lp::simplex::Basis;
use geoind_rng::fnv1a64;
use geoind_spatial::geom::Point;
use geoind_spatial::hier::LevelCell;
use geoind_testkit::failpoint;
use geoind_testkit::pool::Pool;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Format magic (version 2 onward).
const MAGIC: &[u8; 8] = b"GEOINDCH";
/// Magic of the retired checksum-less version-1 format.
const MAGIC_V1: &[u8; 8] = b"GEOIND01";
/// Current format version.
const FORMAT_VERSION: u32 = 2;

fn corrupt(section: impl Into<String>, detail: impl Into<String>) -> MechanismError {
    MechanismError::CacheCorrupt {
        section: section.into(),
        detail: detail.into(),
    }
}

/// Outcome of a structurally valid [`MsmMechanism::import_cache`] run.
#[derive(Debug, Clone)]
pub struct CacheImportReport {
    /// Channels certified and committed to the cache.
    pub loaded: usize,
    /// Entries that parsed and checksummed cleanly but failed
    /// certification against their level budget — dropped, not served;
    /// the failing certificate explains how badly each violated.
    pub quarantined: Vec<(LevelCell, Certificate)>,
}

impl MsmMechanism {
    /// Eagerly solve the channels of every internal index node, breadth
    /// first, up to `max_nodes` (the full tree has
    /// `(g^{2h} − 1)/(g² − 1)` internal nodes). Returns how many channels
    /// the cache now holds. Equivalent to [`Self::precompute_jobs`] with
    /// one worker.
    ///
    /// # Errors
    /// Any [`MechanismError`] raised while building a per-node channel;
    /// channels built before the failure stay cached.
    pub fn precompute(&self, max_nodes: usize) -> Result<usize, MechanismError> {
        self.precompute_jobs(max_nodes, 1)
    }

    /// [`Self::precompute`] with the per-node LP solves of each level
    /// fanned out over `jobs` scoped worker threads.
    ///
    /// The schedule is deterministic and *jobs-independent*: the node set
    /// is the breadth-first prefix of the tree (each level in ascending
    /// cell order) capped at `max_nodes`, and within each level one
    /// canonical **donor** node — the missing node with the lowest cell
    /// index, never "whichever thread finished first" — is solved first,
    /// cold. Its siblings follow in batches of 1, 2, 4, 8, … nodes in cell
    /// order, and each warm-starts from the exit basis of the solved node
    /// (the level donor or one of an earlier batch) whose prior is nearest
    /// its own. Siblings' LPs share one constraint matrix and costs (the
    /// prior only moves the right-hand side), so the dual simplex typically
    /// restores feasibility in a fraction of a cold solve's pivots, the
    /// fewer the closer the priors. Which node donates depends only on the
    /// node's position and the priors, and each sibling's result is a pure
    /// function of its LP and its donor's basis, so the cache contents —
    /// and the bytes [`Self::export_cache`] writes — are bit-identical at
    /// any `jobs`, and a `max_nodes` prefix solves its nodes exactly as the
    /// whole tree does.
    ///
    /// Every fill runs through the same single-flight cache path as
    /// on-demand descents: the certify→repair→admit gate runs exactly
    /// once per channel, and failed solves are never cached.
    ///
    /// # Errors
    /// Any [`MechanismError`] raised while building a per-node channel
    /// (the first in breadth-first order when several workers fail);
    /// channels built before the failure stay cached.
    pub fn precompute_jobs(&self, max_nodes: usize, jobs: usize) -> Result<usize, MechanismError> {
        self.precompute_opts(max_nodes, jobs, true)
    }

    /// [`Self::precompute_jobs`] with warm starts optionally disabled
    /// (`warm_start: false` solves every node cold). The cold mode exists
    /// for the benchmark harness — it quantifies exactly what the donor
    /// bases save — and for diagnosing a suspected warm-start miss;
    /// production callers want `precompute_jobs`.
    ///
    /// # Errors
    /// As [`Self::precompute_jobs`].
    pub fn precompute_opts(
        &self,
        max_nodes: usize,
        jobs: usize,
        warm_start: bool,
    ) -> Result<usize, MechanismError> {
        let pool = Pool::new(jobs);
        let mut budget = max_nodes;
        let mut level_nodes = vec![LevelCell::ROOT];
        while !level_nodes.is_empty() && budget > 0 {
            let take: Vec<LevelCell> = level_nodes.iter().copied().take(budget).collect();
            budget -= take.len();
            let missing: Vec<LevelCell> = take
                .iter()
                .copied()
                .filter(|c| self.cache_get(*c).is_none())
                .collect();
            if let Some(&level_donor) = missing.first() {
                // The greedy spanner (seed rows under cut generation, the
                // whole target set under a spanner constraint set) is an
                // O(n³) build over child geometry that every node on a
                // level shares — build it once here and hand it to every
                // fill on the level.
                let spanner = self.level_shared_spanner(level_donor);
                let priors: Vec<Vec<f64>> = missing
                    .iter()
                    .map(|&cell| normalized_prior(self, cell))
                    .collect();
                let plan = nearest_prior_plan(&priors);
                let last_read = if warm_start {
                    last_reads(&plan, missing.len())
                } else {
                    vec![None; missing.len()]
                };
                // Exit bases of the level's solved nodes, by index into
                // `missing`, each kept from its solve to the end of the
                // last batch that reads it. The level donor is solved cold
                // (levels differ in ε and scale, so cross-level bases
                // rarely transfer).
                let kept =
                    |node: usize, basis: Option<Basis>| basis.filter(|_| last_read[node].is_some());
                let mut bases: Vec<Option<Basis>> = vec![None; missing.len()];
                bases[0] = kept(0, self.fill(level_donor, None, spanner.as_ref())?.1);
                for (b, batch) in plan.into_iter().enumerate() {
                    let results = pool.map(batch, |(sibling, donor)| {
                        let seed = bases[donor].as_ref();
                        let filled = self.fill(missing[sibling], seed, spanner.as_ref());
                        (sibling, filled.map(|(_, basis)| kept(sibling, basis)))
                    });
                    for (sibling, result) in results {
                        // The first failure in canonical node order ends
                        // the precompute; successes stay cached.
                        bases[sibling] = result?;
                    }
                    for (basis, last) in bases.iter_mut().zip(&last_read) {
                        if *last == Some(b) {
                            *basis = None;
                        }
                    }
                }
            }
            level_nodes = next_internal_level(self, &level_nodes);
        }
        Ok(self.cached_channels())
    }

    /// Serialize the current channel cache. Returns the number of channels
    /// written.
    ///
    /// # Errors
    /// Propagates I/O failures from `w`.
    pub fn export_cache(&self, w: &mut impl Write) -> io::Result<usize> {
        let entries = self.cache_snapshot();
        w.write_all(MAGIC)?;
        let mut header = Vec::with_capacity(12);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        w.write_all(&header)?;
        w.write_all(&fnv1a64(&header).to_le_bytes())?;
        for (cell, channel) in &entries {
            let mut payload = Vec::new();
            write_u64(&mut payload, cell.level as u64)?;
            write_u64(&mut payload, cell.id as u64)?;
            write_u64(&mut payload, channel.num_inputs() as u64)?;
            write_u64(&mut payload, channel.num_outputs() as u64)?;
            for p in channel.inputs().iter().chain(channel.outputs()) {
                write_f64(&mut payload, p.x)?;
                write_f64(&mut payload, p.y)?;
            }
            for x in 0..channel.num_inputs() {
                for &v in channel.row(x) {
                    write_f64(&mut payload, v)?;
                }
            }
            let mut entry_header = Vec::with_capacity(32);
            entry_header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            entry_header.extend_from_slice(&(channel.num_inputs() as u64).to_le_bytes());
            entry_header.extend_from_slice(&(channel.num_outputs() as u64).to_le_bytes());
            entry_header.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            w.write_all(&entry_header)?;
            write_u64(w, fnv1a64(&entry_header))?;
            w.write_all(&payload)?;
        }
        Ok(entries.len())
    }

    /// The exact payload size implied by an `n × m` entry: 4 `u64` fields
    /// plus `2(n+m)` coordinate `f64`s plus `n·m` probability `f64`s.
    fn expected_payload_len(n: u64, m: u64) -> u64 {
        32 + 16 * (n + m) + 8 * n * m
    }

    /// Load channels exported by [`MsmMechanism::export_cache`] into this
    /// mechanism's cache. Returns how many channels were committed plus
    /// any per-entry quarantines.
    ///
    /// The blob is validated in layers: magic, format version, header
    /// checksum, per-entry header checksum (which covers the payload
    /// length and shape, checked against this index's fan-out *before*
    /// the payload is allocated), per-entry payload checksum, each entry
    /// against this index's geometry (child count and centers), and
    /// finally **certification** of each entry's channel against its
    /// level budget. Structural failures are transactional — entries are
    /// staged and committed only after the whole blob validates, so a
    /// corrupt blob admits nothing. Certification failures quarantine
    /// only the offending entry (checksums passed, so the bytes arrived
    /// as written — the *content* is what is wrong): the rest of the blob
    /// still imports and the quarantined node is re-solved on demand
    /// through the regular admission gate.
    ///
    /// # Errors
    /// [`MechanismError::CacheCorrupt`] naming the failing section on any
    /// structural validation failure (including truncation and I/O
    /// errors).
    pub fn import_cache(&self, r: &mut impl Read) -> Result<CacheImportReport, MechanismError> {
        if failpoint::hit("cache.import.corrupt") {
            return Err(corrupt(
                "header",
                "injected corruption (failpoint cache.import.corrupt)",
            ));
        }
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)
            .map_err(|e| corrupt("header", format!("magic unreadable: {e}")))?;
        if &magic == MAGIC_V1 {
            return Err(corrupt(
                "header",
                "legacy version-1 cache (no checksums); re-export with this build",
            ));
        }
        if &magic != MAGIC {
            return Err(corrupt("header", "bad magic"));
        }
        let mut header = [0u8; 12];
        r.read_exact(&mut header)
            .map_err(|e| corrupt("header", format!("truncated: {e}")))?;
        let version = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        if version != FORMAT_VERSION {
            return Err(corrupt(
                "header",
                format!("unsupported format version {version} (expected {FORMAT_VERSION})"),
            ));
        }
        let count = u64::from_le_bytes(
            header[4..12]
                .try_into()
                .map_err(|_| corrupt("header", "count unreadable"))?,
        ) as usize;
        let declared_sum = read_u64(r).map_err(|e| corrupt("header", format!("checksum: {e}")))?;
        if declared_sum != fnv1a64(&header) {
            return Err(corrupt("header", "header checksum mismatch"));
        }
        if count > 4_000_000 {
            return Err(corrupt("header", "implausible entry count"));
        }
        // Every per-node channel of this index is g² × g²; anything else
        // cannot belong here, and rejecting it up front bounds the
        // allocation below to the exact entry size this index implies.
        let fan_out = u64::from(self.granularity()) * u64::from(self.granularity());
        let mut staged = Vec::with_capacity(count.min(4096));
        for i in 0..count {
            let section = format!("entry {i}");
            let mut entry_header = [0u8; 32];
            r.read_exact(&mut entry_header)
                .map_err(|e| corrupt(&section, format!("truncated entry header: {e}")))?;
            let declared_entry_sum =
                read_u64(r).map_err(|e| corrupt(&section, format!("header checksum: {e}")))?;
            // The header checksum covers the payload length, so a flipped
            // length bit is caught here, before it can size an allocation
            // or mis-frame the rest of the stream.
            if declared_entry_sum != fnv1a64(&entry_header) {
                return Err(corrupt(&section, "entry header checksum mismatch"));
            }
            let word = |j: usize| {
                u64::from_le_bytes(
                    entry_header[8 * j..8 * (j + 1)]
                        .try_into()
                        .expect("8-byte slice of a 32-byte array"),
                )
            };
            let (len, n, m, payload_sum) = (word(0), word(1), word(2), word(3));
            if n != fan_out || m != fan_out {
                return Err(corrupt(
                    &section,
                    format!("channel shape {n}x{m} does not match this index's {fan_out}x{fan_out} fan-out"),
                ));
            }
            if len != Self::expected_payload_len(n, m) {
                return Err(corrupt(
                    &section,
                    format!(
                        "payload length {len} inconsistent with shape {n}x{m} (expected {})",
                        Self::expected_payload_len(n, m)
                    ),
                ));
            }
            let mut payload = vec![0u8; len as usize];
            r.read_exact(&mut payload)
                .map_err(|e| corrupt(&section, format!("truncated payload: {e}")))?;
            if payload_sum != fnv1a64(&payload) {
                return Err(corrupt(&section, "payload checksum mismatch"));
            }
            let (cell, channel) = self.parse_entry(&payload, (n, m), &section)?;
            staged.push((cell, channel));
        }
        // Certify-on-load: checksums prove the bytes, not the channel.
        // Certify each staged channel against its level budget; violators
        // (and rows that cannot back an alias table) are quarantined
        // individually and never committed.
        let mut quarantined = Vec::new();
        let mut admitted = Vec::with_capacity(staged.len());
        for (cell, channel) in staged {
            let eps_entry = self.budgets().level(cell.level + 1);
            // The strict tolerance `certify::admit` held every channel to
            // over the full pair set, whatever constraint set the bundle
            // was solved under.
            let tol = certify::strict_tolerance(channel.num_inputs(), channel.num_outputs());
            let cert = certify::certify(&channel, eps_entry, tol);
            // Attach the fresh certificate so descents can trust (and
            // count) imported channels exactly like solver-admitted ones.
            let certified = match cert.verdict {
                Verdict::Quarantined => None,
                _ => channel.with_certificate(cert, "cache.import").ok(),
            };
            match certified {
                Some(c) => admitted.push((cell, c)),
                None => quarantined.push((
                    cell,
                    Certificate {
                        verdict: Verdict::Quarantined,
                        ..cert
                    },
                )),
            }
        }
        let loaded = admitted.len();
        for (cell, channel) in admitted {
            self.cache_insert(cell, Arc::new(channel));
        }
        Ok(CacheImportReport {
            loaded,
            quarantined,
        })
    }

    /// Decode and geometry-validate one checksum-verified entry payload.
    /// `declared` is the `(n, m)` shape from the entry header — the
    /// payload's embedded shape must agree with it.
    fn parse_entry(
        &self,
        payload: &[u8],
        declared: (u64, u64),
        section: &str,
    ) -> Result<(LevelCell, Channel), MechanismError> {
        let mut r: &[u8] = payload;
        let fail = |detail: String| corrupt(section, detail);
        let level = read_u64(&mut r).map_err(|e| fail(format!("level field: {e}")))? as u32;
        let id = read_u64(&mut r).map_err(|e| fail(format!("id field: {e}")))? as usize;
        let n_raw = read_u64(&mut r).map_err(|e| fail(format!("shape field: {e}")))?;
        let m_raw = read_u64(&mut r).map_err(|e| fail(format!("shape field: {e}")))?;
        if (n_raw, m_raw) != declared {
            return Err(fail("payload shape disagrees with entry header".into()));
        }
        let (n, m) = (n_raw as usize, m_raw as usize);
        if n == 0 || m == 0 || n > 65_536 || m > 65_536 {
            return Err(fail("bad channel shape".into()));
        }
        let mut pts = Vec::with_capacity(n + m);
        for _ in 0..(n + m) {
            let x = read_f64(&mut r).map_err(|e| fail(format!("point data: {e}")))?;
            let y = read_f64(&mut r).map_err(|e| fail(format!("point data: {e}")))?;
            pts.push(Point::new(x, y));
        }
        let mut probs = Vec::with_capacity(n * m);
        for _ in 0..n * m {
            probs.push(read_f64(&mut r).map_err(|e| fail(format!("probability data: {e}")))?);
        }
        if !r.is_empty() {
            return Err(fail(format!("{} trailing bytes", r.len())));
        }
        if probs.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(fail("non-finite or negative probability".into()));
        }
        let cell = LevelCell { level, id };
        // Geometry validation against this index.
        if level + 1 > self.height() {
            return Err(fail("entry beyond index height".into()));
        }
        let expect: Vec<Point> = self
            .children_of(cell)
            .iter()
            .map(|c| self.center_of(*c))
            .collect();
        if expect.len() != n || n != m {
            return Err(fail("child count mismatch".into()));
        }
        // Inputs and outputs are both the child centers; a NaN
        // coordinate fails too.
        for (a, b) in expect.iter().chain(&expect).zip(&pts) {
            let d = a.dist(*b);
            if d.is_nan() || d > 1e-9 {
                return Err(fail("channel geometry does not match this index".into()));
            }
        }
        Ok((
            cell,
            Channel::new(pts[..n].to_vec(), pts[n..].to_vec(), probs),
        ))
    }
}

/// One tree level's warm-start plan, given the priors of its missing nodes
/// normalized to sum 1: index 0 is the level donor, solved cold, and the
/// rest are its siblings in canonical order. The siblings run in batches
/// of 1, 2, 4, 8, … nodes (`[1, 2)`, `[2, 4)`, `[4, 8)`, …, the last cut
/// short), so every batch can draw on as many solved nodes as it holds.
/// Each sibling warm-starts from the node, among the level donor and all
/// earlier batches, whose prior is nearest its own in L1 distance, ties
/// going to the lower index. Returns the batches in solve order as
/// `(sibling, donor)` index pairs.
///
/// A sibling's donor depends only on its index and the priors of the
/// nodes before its batch, so a prefix of the level is planned exactly as
/// the whole level. The search costs `O(N²·g²)` for `N` nodes of `g²`
/// children.
fn nearest_prior_plan(priors: &[Vec<f64>]) -> Vec<Vec<(usize, usize)>> {
    let l1 = |i: usize, j: usize| -> f64 {
        priors[i]
            .iter()
            .zip(&priors[j])
            .map(|(a, b)| (a - b).abs())
            .sum()
    };
    let mut batches = Vec::new();
    let mut start = 1;
    while start < priors.len() {
        let end = (2 * start).min(priors.len());
        let batch = (start..end).map(|i| {
            // `min_by` keeps the first of equal minima: the lower index.
            let (nearest, _) = (0..start)
                .map(|j| (j, l1(i, j)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("the level donor precedes every batch");
            (i, nearest)
        });
        batches.push(batch.collect());
        start = end;
    }
    batches
}

/// The last batch of a level's `plan` that reads each node's exit basis,
/// by index over the level's `nodes` nodes; `None` for a node no batch
/// names as donor. The precompute keeps a node's basis from its solve
/// only until the end of that batch, and never keeps a basis no batch
/// reads (the last batch's, up to half the level).
fn last_reads(plan: &[Vec<(usize, usize)>], nodes: usize) -> Vec<Option<usize>> {
    let mut last = vec![None; nodes];
    for (b, batch) in plan.iter().enumerate() {
        for &(_, donor) in batch {
            last[donor] = Some(b);
        }
    }
    last
}

/// `cell`'s prior over its children normalized to sum 1: what the
/// warm-start plan measures distances between.
fn normalized_prior(msm: &MsmMechanism, cell: LevelCell) -> Vec<f64> {
    let masses = msm.child_masses(cell);
    let total: f64 = masses.iter().sum();
    masses.iter().map(|m| m / total).collect()
}

/// The internal nodes one level below `nodes`, in ascending cell order
/// (the canonical within-level schedule for the parallel precompute).
fn next_internal_level(msm: &MsmMechanism, nodes: &[LevelCell]) -> Vec<LevelCell> {
    let mut next = Vec::new();
    for &cell in nodes {
        if cell.level + 1 < msm.height() {
            next.extend(msm.children_of(cell));
        }
    }
    next.sort_by_key(|c| c.id);
    next
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocationStrategy;
    use geoind_data::prior::GridPrior;
    use geoind_spatial::geom::BBox;

    fn mechanism() -> MsmMechanism {
        let domain = BBox::square(8.0);
        let prior = GridPrior::uniform(domain, 8);
        MsmMechanism::builder(domain, prior)
            .epsilon(0.8)
            .granularity(2)
            .strategy(AllocationStrategy::FixedHeight(2))
            .build()
            .unwrap()
    }

    fn exported_blob() -> Vec<u8> {
        let provisioner = mechanism();
        provisioner.precompute(usize::MAX).unwrap();
        let mut blob = Vec::new();
        provisioner.export_cache(&mut blob).unwrap();
        blob
    }

    fn assert_corrupt(err: MechanismError) {
        assert!(
            matches!(err, MechanismError::CacheCorrupt { .. }),
            "expected CacheCorrupt, got {err:?}"
        );
    }

    #[test]
    fn precompute_fills_the_whole_tree() {
        let msm = mechanism();
        // g=2, h=2: internal nodes = root + 4 level-1 cells.
        let n = msm.precompute(usize::MAX).unwrap();
        assert_eq!(n, 5);
    }

    #[test]
    fn export_import_roundtrip_preserves_distributions() {
        let provisioner = mechanism();
        provisioner.precompute(usize::MAX).unwrap();
        let mut blob = Vec::new();
        let written = provisioner.export_cache(&mut blob).unwrap();
        assert_eq!(written, 5);
        assert!(!blob.is_empty());

        let device = mechanism();
        assert_eq!(device.cached_channels(), 0);
        let report = device.import_cache(&mut blob.as_slice()).unwrap();
        assert_eq!(report.loaded, 5);
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        assert_eq!(device.cached_channels(), 5);

        // Identical exact output distributions without any further solving.
        let x = geoind_spatial::geom::Point::new(1.7, 6.1);
        let a = provisioner.exact_output_distribution(x);
        let b = device.exact_output_distribution(x);
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let device = mechanism();
        let mut blob: &[u8] = b"NOTMAGIC\x00\x00\x00\x00\x00\x00\x00\x00";
        assert_corrupt(device.import_cache(&mut blob).unwrap_err());
    }

    #[test]
    fn legacy_v1_magic_rejected_explicitly() {
        let device = mechanism();
        let mut blob: &[u8] = b"GEOIND01\x00\x00\x00\x00\x00\x00\x00\x00";
        let err = device.import_cache(&mut blob).unwrap_err();
        match err {
            MechanismError::CacheCorrupt { detail, .. } => {
                assert!(detail.contains("version-1"), "unhelpful detail: {detail}")
            }
            other => panic!("expected CacheCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_rejected_at_every_cut() {
        // Regression for the round-trip fragility: cut the blob at several
        // depths (header, mid-entry, mid-checksum) — every cut must yield a
        // clean CacheCorrupt, never a panic or a garbage channel.
        let blob = exported_blob();
        for keep in [4, 10, 19, blob.len() / 2, blob.len() - 3] {
            let device = mechanism();
            let cut = blob[..keep].to_vec();
            assert_corrupt(device.import_cache(&mut cut.as_slice()).unwrap_err());
            assert_eq!(
                device.cached_channels(),
                0,
                "cut at {keep} leaked a channel"
            );
        }
    }

    #[test]
    fn bit_flips_rejected_everywhere() {
        // Flip one bit at a sweep of positions across the blob; import must
        // reject every time (header sum, entry sum, or field validation).
        let blob = exported_blob();
        for pos in (0..blob.len()).step_by(37) {
            let mut bad = blob.clone();
            bad[pos] ^= 0x10;
            let device = mechanism();
            let res = device.import_cache(&mut bad.as_slice());
            assert!(res.is_err(), "bit flip at byte {pos} was accepted");
        }
    }

    #[test]
    fn version_bump_rejected() {
        let mut blob = exported_blob();
        // Version field sits right after the 8-byte magic.
        blob[8] = 3;
        let device = mechanism();
        let err = device.import_cache(&mut blob.as_slice()).unwrap_err();
        match err {
            MechanismError::CacheCorrupt { detail, .. } => assert!(
                detail.contains("version"),
                "version bump misreported: {detail}"
            ),
            other => panic!("expected CacheCorrupt, got {other:?}"),
        }
    }

    // Blob offsets: magic 8 + version/count header 12 + header sum 8 = 28,
    // then the first entry header [28..60] (len, n, m, payload_sum) and its
    // checksum [60..68].
    const ENTRY: usize = 28;

    #[test]
    fn forged_huge_length_rejected_before_allocation() {
        // Corruption that rewrites payload_len AND fixes up the entry
        // header checksum still cannot force an allocation: the length
        // must equal the exact size implied by the g²×g² shape. (If this
        // guard regressed, the import would attempt a 1 TiB allocation
        // and the test would die rather than fail.)
        let mut blob = exported_blob();
        blob[ENTRY..ENTRY + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let fixed = fnv1a64(&blob[ENTRY..ENTRY + 32]).to_le_bytes();
        blob[ENTRY + 32..ENTRY + 40].copy_from_slice(&fixed);
        let device = mechanism();
        let err = device.import_cache(&mut blob.as_slice()).unwrap_err();
        match err {
            MechanismError::CacheCorrupt { detail, .. } => assert!(
                detail.contains("length"),
                "forged length misreported: {detail}"
            ),
            other => panic!("expected CacheCorrupt, got {other:?}"),
        }
        assert_eq!(device.cached_channels(), 0);
    }

    #[test]
    fn forged_shape_rejected_before_allocation() {
        // Shape words that disagree with this index's fan-out are refused
        // even with a fixed-up entry header checksum — the maximal 65 536²
        // shape would otherwise license a ~34 GiB payload.
        let mut blob = exported_blob();
        blob[ENTRY + 8..ENTRY + 16].copy_from_slice(&65_536u64.to_le_bytes());
        blob[ENTRY + 16..ENTRY + 24].copy_from_slice(&65_536u64.to_le_bytes());
        let fixed = fnv1a64(&blob[ENTRY..ENTRY + 32]).to_le_bytes();
        blob[ENTRY + 32..ENTRY + 40].copy_from_slice(&fixed);
        let device = mechanism();
        let err = device.import_cache(&mut blob.as_slice()).unwrap_err();
        match err {
            MechanismError::CacheCorrupt { detail, .. } => assert!(
                detail.contains("fan-out"),
                "forged shape misreported: {detail}"
            ),
            other => panic!("expected CacheCorrupt, got {other:?}"),
        }
        assert_eq!(device.cached_channels(), 0);
    }

    // The first entry's payload starts after its 40-byte header block at
    // 68: level@68, id@76, n@84, m@92, then the 2(n+m) = 16 coordinate
    // f64s of its 4 inputs and 4 outputs at 100, then the 4×4 probability
    // matrix at 228.
    const POINTS: usize = 100;
    const PROBS: usize = 228;

    /// Overwrite the f64 at `at`.
    fn put_f64(blob: &mut [u8], at: usize, v: f64) {
        blob[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Recompute the first entry's payload checksum (entry-header word 3)
    /// and then the entry-header checksum over the rewritten header, so a
    /// forged payload passes every FNV-1a check.
    fn fix_first_entry_sums(blob: &mut [u8]) {
        let payload_len = u64::from_le_bytes(blob[ENTRY..ENTRY + 8].try_into().unwrap()) as usize;
        let payload_sum = fnv1a64(&blob[68..68 + payload_len]).to_le_bytes();
        blob[ENTRY + 24..ENTRY + 32].copy_from_slice(&payload_sum);
        let entry_sum = fnv1a64(&blob[ENTRY..ENTRY + 32]).to_le_bytes();
        blob[ENTRY + 32..ENTRY + 40].copy_from_slice(&entry_sum);
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let blob = exported_blob();
        // A device with a different domain scale must refuse the blob.
        let domain = BBox::square(16.0);
        let other = MsmMechanism::builder(domain, GridPrior::uniform(domain, 8))
            .epsilon(0.8)
            .granularity(2)
            .strategy(AllocationStrategy::FixedHeight(2))
            .build()
            .unwrap();
        assert_corrupt(other.import_cache(&mut blob.as_slice()).unwrap_err());

        // Checksum-valid forgeries of the first entry's points. NaN input
        // x-coordinates with the identity matrix: every scaled violation
        // is NaN, so a certifier that skipped NaN would admit the identity
        // and serve every report as its own cell's center. An output point
        // moved off its child center.
        let nan_inputs = |blob: &mut Vec<u8>| {
            for k in 0..4 {
                put_f64(blob, POINTS + 16 * k, f64::NAN);
                for z in 0..4 {
                    put_f64(
                        blob,
                        PROBS + 8 * (4 * k + z),
                        if k == z { 1.0 } else { 0.0 },
                    );
                }
            }
        };
        let moved_output = |blob: &mut Vec<u8>| {
            let x = f64::from_le_bytes(blob[POINTS + 64..POINTS + 72].try_into().unwrap());
            put_f64(blob, POINTS + 64, x + 0.5);
        };
        for forge in [&nan_inputs as &dyn Fn(&mut Vec<u8>), &moved_output] {
            let mut forged = blob.clone();
            forge(&mut forged);
            fix_first_entry_sums(&mut forged);
            let device = mechanism();
            match device.import_cache(&mut forged.as_slice()).unwrap_err() {
                MechanismError::CacheCorrupt { detail, .. } => assert!(
                    detail.contains("geometry"),
                    "forged points misreported: {detail}"
                ),
                other => panic!("expected CacheCorrupt, got {other:?}"),
            }
            assert_eq!(device.cached_channels(), 0);
        }
    }

    /// `n` normalized 4-cell priors: every third one of four fixed
    /// patterns (so exact L1 ties occur), the rest pseudo-random.
    fn test_priors(n: usize) -> Vec<Vec<f64>> {
        use geoind_rng::{Rng, SeededRng};
        let patterns = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.25; 4],
            [0.5, 0.5, 0.0, 0.0],
        ];
        let mut rng = SeededRng::from_seed(28);
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    return patterns[(i / 3) % patterns.len()].to_vec();
                }
                let raw: Vec<f64> = (0..4).map(|_| rng.gen_f64()).collect();
                let total: f64 = raw.iter().sum();
                raw.iter().map(|v| v / total).collect()
            })
            .collect()
    }

    #[test]
    fn nearest_prior_plan_batches_double_and_pick_the_nearest_earlier_node() {
        let l1 =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        let mut ties = 0;
        for n in 0..=70 {
            let priors = test_priors(n);
            let plan = nearest_prior_plan(&priors);
            // Batches of 1, 2, 4, … siblings in index order, the last one
            // cut at n.
            let mut start = 1;
            for batch in &plan {
                let want: Vec<usize> = (start..(2 * start).min(n)).collect();
                let got: Vec<usize> = batch.iter().map(|&(i, _)| i).collect();
                assert_eq!(got, want, "n={n}");
                // Every donor was solved before this batch, and is the
                // nearest such node in L1, ties going to the lower index.
                for &(i, d) in batch {
                    assert!(
                        d < start,
                        "n={n}: sibling {i} draws on {d} of its own batch"
                    );
                    let best = l1(&priors[i], &priors[d]);
                    for (j, prior) in priors.iter().enumerate().take(start) {
                        let dj = l1(&priors[i], prior);
                        assert!(dj >= best, "n={n}: {j} is nearer to {i} than {d}");
                        assert!(j >= d || dj > best, "n={n}: tie of {j} < {d} for {i}");
                        ties += usize::from(j > d && dj == best);
                    }
                }
                start *= 2;
            }
            assert!(start >= n, "n={n}: the plan stops before the level ends");
        }
        // The fixed patterns make exact ties, so the tie rule was tested.
        assert!(ties > 0, "no donor choice broke a tie");
    }

    #[test]
    fn nearest_prior_plan_of_a_prefix_is_a_prefix_of_the_plan() {
        let priors = test_priors(70);
        let whole = nearest_prior_plan(&priors).concat();
        for k in 1..=priors.len() {
            let prefix = nearest_prior_plan(&priors[..k]).concat();
            assert_eq!(prefix, whole[..k - 1], "prefix of {k} nodes");
        }
    }

    #[test]
    fn a_basis_is_kept_from_its_solve_to_its_last_reader_only() {
        for n in 0..=70 {
            let plan = nearest_prior_plan(&test_priors(n));
            let last = last_reads(&plan, n);
            // Walk the level as the precompute does: the level donor's
            // basis, then each batch's, released after each batch.
            let mut held = vec![false; n];
            if n > 0 {
                held[0] = last[0].is_some();
            }
            for (b, batch) in plan.iter().enumerate() {
                for &(i, d) in batch {
                    assert!(
                        held[d],
                        "n={n}: {i} in batch {b} reads {d}'s released basis"
                    );
                }
                for &(i, _) in batch {
                    held[i] = last[i].is_some();
                }
                for (h, l) in held.iter_mut().zip(&last) {
                    *h &= *l != Some(b);
                }
            }
            assert!(!held.contains(&true), "n={n}: a basis outlived the level");
            // A basis is kept exactly for the nodes some batch names, the
            // level donor always among them and the last batch never.
            for i in 0..n {
                let named = plan.iter().flatten().any(|&(_, d)| d == i);
                assert_eq!(last[i].is_some(), named, "n={n}: node {i}");
            }
            if let Some(final_batch) = plan.last() {
                assert!(last[0].is_some(), "n={n}");
                assert!(final_batch.iter().all(|&(i, _)| last[i].is_none()));
            }
        }
    }

    /// g=2, h=3 over a skewed prior: the root, 4 level-1 and 16 level-2
    /// internal nodes, the 16 siblings with different nearest donors.
    fn skewed_tree(opts: crate::opt::OptOptions) -> MsmMechanism {
        let domain = BBox::square(8.0);
        let pts = (0..60).map(|i| {
            Point::new(
                0.2 + 7.6 * ((i * i * 7 % 61) as f64 / 61.0),
                0.2 + 7.6 * ((i * 13 % 29) as f64 / 29.0).powi(2),
            )
        });
        MsmMechanism::builder(domain, GridPrior::from_points(domain, 8, pts))
            .epsilon(1.0)
            .granularity(2)
            .strategy(AllocationStrategy::FixedHeight(3))
            .opt_options(opts)
            .build()
            .unwrap()
    }

    #[test]
    fn capped_precompute_solves_its_nodes_as_the_whole_tree_does() {
        let build = || skewed_tree(crate::opt::OptOptions::default());
        let whole = build();
        assert_eq!(whole.precompute(usize::MAX).unwrap(), 21);
        // The cap keeps the root, the 4 level-1 nodes and the first 7
        // level-2 nodes, some of which draw on a sibling other than the
        // level donor.
        let level2 = next_internal_level(&whole, &whole.children_of(LevelCell::ROOT));
        let level2_priors: Vec<Vec<f64>> = level2[..7]
            .iter()
            .map(|&c| normalized_prior(&whole, c))
            .collect();
        assert!(
            nearest_prior_plan(&level2_priors)
                .concat()
                .iter()
                .any(|&(_, d)| d != 0),
            "every sibling drew on the level donor"
        );
        let capped = build();
        assert_eq!(capped.precompute_jobs(12, 4).unwrap(), 12);
        let (whole, capped) = (whole.cache_snapshot(), capped.cache_snapshot());
        assert_eq!(capped.len(), 12);
        for ((cell, a), (capped_cell, b)) in whole.iter().zip(&capped) {
            assert_eq!(cell, capped_cell);
            for x in 0..a.num_inputs() {
                let bits = |ch: &Channel| ch.row(x).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "node {cell:?} row {x}");
            }
        }
    }

    #[test]
    fn spanner_bundle_imports_into_a_full_set_mechanism() {
        // `certify::admit` re-certifies every channel over the full pair
        // set at the strict tolerance, whatever its constraint set, so a
        // bundle solved under a spanner set by the cut loop passes the
        // import gate and doctor's re-check of a full-set mechanism.
        use crate::opt::{ConstraintSet, OptOptions};
        let provisioner = skewed_tree(OptOptions {
            constraints: ConstraintSet::Spanner { dilation: 1.2 },
            cutgen: true,
        });
        assert_eq!(provisioner.precompute(usize::MAX).unwrap(), 21);
        let mut blob = Vec::new();
        provisioner.export_cache(&mut blob).unwrap();
        let device = skewed_tree(OptOptions::default());
        let report = device.import_cache(&mut blob.as_slice()).unwrap();
        assert_eq!(report.loaded, 21);
        assert!(
            report.quarantined.is_empty(),
            "quarantined {:?}",
            report.quarantined
        );
        for (cell, cert) in device.recertify_cache() {
            assert_eq!(cert.verdict, Verdict::Certified, "node {cell:?}");
        }
    }

    #[test]
    fn precompute_respects_node_cap() {
        let msm = mechanism();
        let n = msm.precompute(2).unwrap();
        assert!(n <= 2, "cache holds {n}");
    }

    #[test]
    fn forged_epsilon_violating_entry_is_quarantined_not_served() {
        // The adversarial case certification exists for: an entry whose
        // bytes are intact (every FNV-1a checksum valid) but whose channel
        // violates the ε·d constraints. Rewrite the first entry's row 0 to
        // the deterministic distribution [1, 0, 0, 0] — rows still sum to
        // 1, the payload parses, and all checksums are fixed up — then
        // confirm import quarantines exactly that entry and serves nothing
        // from it.
        let mut blob = exported_blob();
        for (z, v) in [1.0, 0.0, 0.0, 0.0].into_iter().enumerate() {
            put_f64(&mut blob, PROBS + 8 * z, v);
        }
        fix_first_entry_sums(&mut blob);

        let device = mechanism();
        let report = device.import_cache(&mut blob.as_slice()).unwrap();
        assert_eq!(report.loaded, 4, "the healthy entries still import");
        assert_eq!(report.quarantined.len(), 1);
        let (cell, cert) = &report.quarantined[0];
        assert_eq!(cert.verdict, Verdict::Quarantined);
        assert!(
            cert.max_violation > 1e-3,
            "a support mismatch is a gross violation, got {}",
            cert.max_violation
        );
        assert_eq!(device.cached_channels(), 4);
        // The quarantined node is absent from the cache; a query through it
        // triggers a fresh gated solve rather than serving the forgery.
        let rebuilt = device.try_channel_for(*cell).unwrap();
        assert!(rebuilt
            .certificate()
            .is_some_and(|c| c.verdict != Verdict::Quarantined));
        let eps_entry = device.budgets().level(cell.level + 1);
        assert!(rebuilt.satisfies_geoind(eps_entry, 1e-6));
    }

    #[test]
    fn imported_channels_carry_certificates() {
        let blob = exported_blob();
        let device = mechanism();
        device.import_cache(&mut blob.as_slice()).unwrap();
        for (_, cert) in device.recertify_cache() {
            assert_eq!(cert.verdict, Verdict::Certified);
        }
    }
}
