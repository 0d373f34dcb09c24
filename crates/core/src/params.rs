//! VOODB parameters — Table 3 of the paper, plus the Table 4 presets for
//! the two validated systems.
//!
//! "Genericity in VOODB is primarily achieved through a set of parameters
//! that help tuning the model in a variety of configurations" (§3.3). Each
//! active resource carries its parameter group; the `SYSCLASS` parameter
//! controls how the components are wired together.

use bufmgr::{DiskTimings, PolicyKind, PrefetchKind, O2_FRAMES_PER_MB, TEXAS_FRAMES_PER_MB};
use clustering::{ClusteringKind, InitialPlacement};

/// `SYSCLASS` — the architecture the evaluation model instantiates
/// (Table 3: `{Centralized | Object Server | Page Server | DB Server |
/// Other}`; the "Other" here is a hybrid multi-server à la GemStone).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemClass {
    /// Client and server on one machine, no network (Texas).
    Centralized,
    /// The server ships individual objects.
    ObjectServer,
    /// The server ships whole pages (O2, ObjectStore) — the Table 3
    /// default.
    PageServer,
    /// Queries execute entirely on the server; only results travel.
    DbServer,
    /// A hybrid multi-server: pages are hash-partitioned over several
    /// servers, each with its own disk and buffer.
    HybridMultiServer {
        /// Number of servers (≥ 1).
        servers: usize,
    },
}

impl SystemClass {
    /// Number of independent server sites (disks/buffers).
    pub fn server_count(&self) -> usize {
        match self {
            SystemClass::HybridMultiServer { servers } => (*servers).max(1),
            _ => 1,
        }
    }
}

impl std::fmt::Display for SystemClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemClass::Centralized => write!(f, "Centralized"),
            SystemClass::ObjectServer => write!(f, "Object Server"),
            SystemClass::PageServer => write!(f, "Page Server"),
            SystemClass::DbServer => write!(f, "DB Server"),
            SystemClass::HybridMultiServer { servers } => {
                write!(f, "Hybrid Multi-Server ({servers})")
            }
        }
    }
}

/// The complete VOODB parameter set (Table 3).
#[derive(Clone, Debug)]
pub struct VoodbParams {
    /// `SYSCLASS` — system class (default: Page Server).
    pub system_class: SystemClass,
    /// `NETTHRU` — network throughput in MB/s (default 1; use
    /// `f64::INFINITY` for the O2 setting of Table 4).
    pub network_throughput_mbps: f64,
    /// `PGSIZE` — disk page size in bytes (default 4096).
    pub page_size: u32,
    /// `BUFFSIZE` — buffer size in pages (default 500).
    pub buffer_pages: usize,
    /// `PGREP` — buffer page replacement strategy (default LRU-1).
    pub page_replacement: PolicyKind,
    /// `PREFETCH` — prefetching policy (default None).
    pub prefetch: PrefetchKind,
    /// `CLUSTP` — object clustering policy (default None).
    pub clustering: ClusteringKind,
    /// `INITPL` — objects' initial placement (default Optimized
    /// Sequential).
    pub initial_placement: InitialPlacement,
    /// Disk timings (`DISKSEA`/`DISKLAT`/`DISKTRA`).
    pub disk: DiskTimings,
    /// `MULTILVL` — multiprogramming level (default 10).
    pub multiprogramming_level: usize,
    /// `GETLOCK` — lock acquisition time in ms (default 0.5).
    pub get_lock_ms: f64,
    /// `RELLOCK` — lock release time in ms (default 0.5).
    pub release_lock_ms: f64,
    /// `NUSERS` — number of users (default 1).
    pub users: usize,
    /// Texas's object-loading policy: loading a page swizzles its pointers,
    /// dirtying it — every eviction becomes a swap write, which doubles the
    /// I/O cost of a miss under memory pressure. This is the
    /// interchangeable "Other" module that lets VOODB mimic Texas's
    /// super-linear degradation (§4.3.2 / Fig. 11). Off by default.
    pub swizzle: bool,
    /// Concurrency control (§5's extension): the paper's base model
    /// charges only lock *times*; `TwoPhase` adds a real object lock
    /// manager with conflicts, wait-die deadlock prevention and restarts.
    pub concurrency: ConcurrencyControl,
}

/// Concurrency-control modes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConcurrencyControl {
    /// The paper's model: GETLOCK/RELLOCK CPU times only, the scheduler's
    /// multiprogramming level bounds concurrency (Table 1).
    TimedOnly,
    /// Two-phase locking on objects: shared/exclusive modes, FIFO waits;
    /// deadlock victims restart after a backoff (keeping their scheduler
    /// slot and their timestamp).
    TwoPhase {
        /// Backoff before a deadlock victim restarts, in ms.
        restart_backoff_ms: f64,
        /// How deadlocks are handled (wait-die, livelock-free).
        deadlock: crate::lockmgr::DeadlockPolicy,
    },
}

impl Default for VoodbParams {
    /// The Table 3 default column.
    fn default() -> Self {
        VoodbParams {
            system_class: SystemClass::PageServer,
            network_throughput_mbps: 1.0,
            page_size: 4096,
            buffer_pages: 500,
            page_replacement: PolicyKind::Lru,
            prefetch: PrefetchKind::None,
            clustering: ClusteringKind::None,
            initial_placement: InitialPlacement::OptimizedSequential,
            disk: DiskTimings::table3_default(),
            multiprogramming_level: 10,
            get_lock_ms: 0.5,
            release_lock_ms: 0.5,
            users: 1,
            swizzle: false,
            concurrency: ConcurrencyControl::TimedOnly,
        }
    }
}

impl VoodbParams {
    /// The O2 system of Table 4, with a server cache of `cache_mb` MB
    /// ([`O2_FRAMES_PER_MB`]: 16 MB ⇒ the paper's 3840 pages).
    pub fn o2(cache_mb: usize) -> Self {
        VoodbParams {
            system_class: SystemClass::PageServer,
            network_throughput_mbps: f64::INFINITY,
            page_size: 4096,
            buffer_pages: (cache_mb * O2_FRAMES_PER_MB).max(8),
            page_replacement: PolicyKind::Lru,
            prefetch: PrefetchKind::None,
            clustering: ClusteringKind::None,
            initial_placement: InitialPlacement::OptimizedSequential,
            disk: DiskTimings::o2(),
            multiprogramming_level: 10,
            get_lock_ms: 0.5,
            release_lock_ms: 0.5,
            users: 1,
            swizzle: false,
            concurrency: ConcurrencyControl::TimedOnly,
        }
    }

    /// The Texas system of Table 4, on a host with `memory_mb` MB of RAM.
    ///
    /// [`TEXAS_FRAMES_PER_MB`] usable frames/MB, calibrated to the
    /// knee of Fig. 11.
    pub fn texas(memory_mb: usize) -> Self {
        VoodbParams {
            system_class: SystemClass::Centralized,
            network_throughput_mbps: f64::INFINITY, // N/A for centralized
            page_size: 4096,
            buffer_pages: (memory_mb * TEXAS_FRAMES_PER_MB).max(8),
            page_replacement: PolicyKind::Lru,
            prefetch: PrefetchKind::None,
            clustering: ClusteringKind::None,
            initial_placement: InitialPlacement::OptimizedSequential,
            disk: DiskTimings::texas(),
            multiprogramming_level: 1,
            get_lock_ms: 0.0,
            release_lock_ms: 0.0,
            users: 1,
            swizzle: true,
            concurrency: ConcurrencyControl::TimedOnly,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.page_size < 64 {
            return Err("page_size too small".into());
        }
        if self.buffer_pages == 0 {
            return Err("buffer_pages must be positive".into());
        }
        if self.network_throughput_mbps <= 0.0 {
            return Err("network throughput must be positive".into());
        }
        if self.multiprogramming_level == 0 {
            return Err("multiprogramming level must be positive".into());
        }
        if self.users == 0 {
            return Err("users must be positive".into());
        }
        if self.get_lock_ms < 0.0 || self.release_lock_ms < 0.0 {
            return Err("lock times must be non-negative".into());
        }
        if self.disk.search_ms < 0.0 || self.disk.latency_ms < 0.0 || self.disk.transfer_ms < 0.0 {
            return Err("disk times must be non-negative".into());
        }
        if let SystemClass::HybridMultiServer { servers } = self.system_class {
            if servers == 0 {
                return Err("hybrid system needs at least one server".into());
            }
        }
        if let ConcurrencyControl::TwoPhase {
            restart_backoff_ms, ..
        } = self.concurrency
        {
            if restart_backoff_ms < 0.0 {
                return Err("restart backoff must be non-negative".into());
            }
        }
        Ok(())
    }

    /// Network transfer time for `bytes`, in ms (0 for infinite
    /// throughput).
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        if self.network_throughput_mbps.is_infinite() {
            0.0
        } else {
            // MB/s → bytes/ms = throughput × 1048576 / 1000.
            let bytes_per_ms = self.network_throughput_mbps * 1_048_576.0 / 1_000.0;
            bytes as f64 / bytes_per_ms
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table3() {
        let p = VoodbParams::default();
        assert_eq!(p.system_class, SystemClass::PageServer);
        assert_eq!(p.network_throughput_mbps, 1.0);
        assert_eq!(p.page_size, 4096);
        assert_eq!(p.buffer_pages, 500);
        assert_eq!(p.page_replacement, PolicyKind::Lru);
        assert_eq!(p.prefetch, PrefetchKind::None);
        assert_eq!(p.clustering, ClusteringKind::None);
        assert_eq!(p.initial_placement, InitialPlacement::OptimizedSequential);
        assert_eq!(p.disk, DiskTimings::table3_default());
        assert_eq!(p.multiprogramming_level, 10);
        assert_eq!(p.get_lock_ms, 0.5);
        assert_eq!(p.release_lock_ms, 0.5);
        assert_eq!(p.users, 1);
        p.validate().unwrap();
    }

    #[test]
    fn o2_preset_matches_table4() {
        let p = VoodbParams::o2(16);
        assert_eq!(p.system_class, SystemClass::PageServer);
        assert!(p.network_throughput_mbps.is_infinite());
        assert_eq!(p.buffer_pages, 3840);
        assert_eq!(p.disk, DiskTimings::o2());
        assert_eq!(p.multiprogramming_level, 10);
        assert_eq!(p.get_lock_ms, 0.5);
        assert!(!p.swizzle);
        p.validate().unwrap();
    }

    #[test]
    fn texas_preset_matches_table4() {
        let p = VoodbParams::texas(64);
        assert_eq!(p.system_class, SystemClass::Centralized);
        assert_eq!(p.buffer_pages, 64 * 230);
        assert_eq!(p.disk, DiskTimings::texas());
        assert_eq!(p.multiprogramming_level, 1);
        assert_eq!(p.get_lock_ms, 0.0);
        assert!(p.swizzle);
        p.validate().unwrap();
    }

    #[test]
    fn invalid_params_rejected() {
        let p = VoodbParams {
            buffer_pages: 0,
            ..VoodbParams::default()
        };
        assert!(p.validate().is_err());
        let p = VoodbParams {
            users: 0,
            ..VoodbParams::default()
        };
        assert!(p.validate().is_err());
        let p = VoodbParams {
            system_class: SystemClass::HybridMultiServer { servers: 0 },
            ..VoodbParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn transfer_time() {
        let mut p = VoodbParams::default();
        // 1 MB/s: a 4096-byte page takes ~3.9 ms.
        let ms = p.transfer_ms(4096);
        assert!((ms - 3.90625).abs() < 1e-9);
        p.network_throughput_mbps = f64::INFINITY;
        assert_eq!(p.transfer_ms(4096), 0.0);
    }

    #[test]
    fn system_class_helpers() {
        assert_eq!(SystemClass::PageServer.server_count(), 1);
        assert_eq!(
            SystemClass::HybridMultiServer { servers: 4 }.server_count(),
            4
        );
        assert_eq!(SystemClass::PageServer.to_string(), "Page Server");
    }
}
